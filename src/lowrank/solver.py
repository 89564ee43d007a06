"""Outer solver loops.

prograamme_solve runs the SVD-free proximal-gradient / alternating
minimization scheme, optionally with adaptive rank continuation.
pgd_solve is the SVD-based baseline (plain proximal gradient descent or,
with a FISTA-like inertial rule, the FISTA baseline). Both run one outer
loop, _solve: extrapolate, take a gradient step, apply the prox step,
check for divergence, stop on the step norm and record a trace. Only the
prox step differs: the factored inner solve with its rank read and rank
budget, or the exact SVT.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import amfit, operators, prox
from .amfit import FactorPair, FixedI, check_count
from .exceptions import DivergenceError, NonFiniteError
from .linalg import DEFAULT_RANK_TOL

#: rc's starting budget, and the columns a cut keeps above the rank of X,
#: so that rank_x < r shows the budget is not binding. A growth adds only the
#: residual's directions above the threshold and keeps no margin: on the
#: 400x400 rank-10 completion the budget goes 4 -> 8 -> 10 -> 11.
_RANK_MARGIN = 4

#: Consecutive equal rank reads of X after which rc moves its budget.
_CADENCE = 3

#: Relative prox-gradient residual above which an exit with a binding
#: budget is not certified.
_EXIT_RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# inertial rules

@dataclass(frozen=True)
class Zero:
    """No inertia: a_k = 0."""


@dataclass(frozen=True)
class Constant:
    """Constant inertia a_k = a, a in [0, 1)."""

    a: float

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"constant inertia must lie in [0, 1), got {self.a}")


@dataclass(frozen=True)
class FistaLike:
    """FISTA-style inertia a_k = (k - 1) / (k + d) with d > 2."""

    d: float = 20.0

    def __post_init__(self):
        if not self.d > 2.0:
            raise ValueError(f"FISTA-like rule needs d > 2, got {self.d}")


@dataclass(frozen=True)
class Online:
    """Capped inertia a_k = min{a, c / (k^(1+delta) * step_prev^2)}.

    step_prev = |X_k-1 - X_k-2| is the norm of the last step, 0 at k = 1.
    The cap construction makes the terms a_k * step^2 summable by design.
    """

    a: float = 0.5
    c: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        # c = inf is the constant rule a_k = a
        if not (self.c > 0.0 and self.delta > 0.0):
            raise ValueError(f"c and delta must be positive, got {self.c} and {self.delta}")


def inertial_value(rule, k, step_norm_prev=0.0):
    """Inertial parameter a_k for outer iteration k >= 1."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    if isinstance(rule, Zero):
        return 0.0
    if isinstance(rule, Constant):
        return rule.a
    if isinstance(rule, FistaLike):
        return (k - 1.0) / (k + rule.d)
    if isinstance(rule, Online):
        # in float64 an overflowing denominator gives a cap of 0, and a zero
        # or underflowing one an infinite cap; fmin skips the NaN of c = inf
        # over an infinite denominator
        with np.errstate(all="ignore"):
            denom = np.float64(k) ** (1.0 + rule.delta) * np.float64(step_norm_prev) ** 2
            return float(np.fmin(rule.a, rule.c / denom))
    raise TypeError(f"unknown inertial rule {rule!r}")


# ---------------------------------------------------------------------------
# configuration and traces

@dataclass(frozen=True)
class Continuation:
    """Rank-continuation policy: fit the factor budget r to the rank of X.

    The budget starts small and moves both ways, each move decided by the
    numerical rank of the iterate (relative tolerance DEFAULT_RANK_TOL) once
    it has read the same value for _CADENCE consecutive iterations. A rank
    that fills the budget grows r (at most doubling it, never past
    SolverConfig.r); a rank more than a margin below the budget cuts r to
    that rank plus the margin, so that a rank below r shows the budget does
    not bind.
    """

    enabled: bool = False


@dataclass(frozen=True)
class Stopping:
    """Stopping rule on the iterate step norm.

    step_tol acts on the absolute step |X_k+1 - X_k|; rel_step_tol, when
    positive, additionally stops on the step relative to max(|X_k|, 1).
    Both are nonnegative (0 turns a rule off), and max_iter is an integer
    of at least 1.
    """

    step_tol: float = 1e-10
    rel_step_tol: float = 0.0
    max_iter: int = 1000

    def __post_init__(self):
        for name in ("step_tol", "rel_step_tol"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_count("max_iter", self.max_iter)


@dataclass(frozen=True)
class SolverConfig:
    """Bundle of all solver parameters.

    gamma defaults to 1/L when None. r is the factor rank budget; with
    continuation enabled it is the cap of an adaptive budget.
    """

    gamma: float = None
    rule: object = field(default_factory=Zero)
    inner: object = field(default_factory=lambda: FixedI(1))
    r: int = 10
    continuation: Continuation = field(default_factory=Continuation)
    stop: Stopping = field(default_factory=Stopping)

    def __post_init__(self):
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        check_count("r", self.r)


@dataclass
class TraceRecord:
    k: int
    elapsed_s: float
    step_norm: float
    rank_x: int
    r: int
    inner_iters: int


@dataclass
class SolveTrace:
    """Per-iteration records and the final state of one solver run.

    seconds and each record's elapsed_s time the solver call from its first
    line, set-up included.
    """

    records: list
    X: np.ndarray
    converged: bool
    seconds: float
    seed: int
    gamma: float
    lipschitz: float
    notes: tuple
    exit_residual: float

    @property
    def iterations(self):
        return len(self.records)

    @property
    def final_rank(self):
        return self.records[-1].rank_x if self.records else 0

    def column(self, name):
        return [getattr(rec, name) for rec in self.records]


# ---------------------------------------------------------------------------
# factor utilities

def truncate_factors(U, V, new_r):
    """Best rank-new_r factor pair approximating U @ V.

    Thin QR of U and of V^T reduce the problem to an SVD of the small
    r x r core; the singular weight is split evenly between the factors.
    """
    pair = FactorPair(U, V)
    if not 1 <= new_r <= pair.r:
        raise ValueError(f"new_r={new_r} lies outside [1, r] for the factor rank r={pair.r}")
    Qu, Ru = np.linalg.qr(pair.U)
    Qv, Rv = np.linalg.qr(pair.V.T)
    P, s, Qt = np.linalg.svd(Ru @ Rv.T)
    root = np.sqrt(s[:new_r])
    U_new = Qu @ (P[:, :new_r] * root)
    V_new = (root[:, None] * Qt[:new_r]) @ Qv.T
    return FactorPair(U_new, V_new)


def _factored_rank(U, V, rel_tol):
    """Numerical rank of U @ V via the r x r core, without forming the product's SVD."""
    Ru = np.linalg.qr(U, mode="r")
    Rv = np.linalg.qr(V.T, mode="r")
    s = np.linalg.svd(Ru @ Rv.T, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


#: Columns the rank sketch adds to the rank it expects.
_SKETCH_OVERSAMPLING = 10


def _sketched_rank(X, U, V, rel_tol, hint, rng):
    """Certified numerical rank of X = U @ V from a range sketch, or None.

    A Gaussian sketch of width w = hint + _SKETCH_OVERSAMPLING gives
    X = Q B + E with Q orthonormal and E orthogonal to it (Halko, Martinsson
    and Tropp, SIAM Review 2011, sec. 4.3). With s the singular values of B
    and e = |E|_F, each sigma_i(X) lies in [s_i, sqrt(s_i^2 + e^2)] and every
    sigma_j(X) with j > w is at most e. The count is returned only when these
    intervals, widened by a rounding slack that covers this read and
    _factored_rank alike, place every singular value on one side of
    rel_tol * sigma_1(X); it then equals _factored_rank(U, V, rel_tol).
    Otherwise the result is None, as it is without any sketch when 2w
    exceeds the factor budget r and the sketch would not pay. rng only
    changes how often a read is certified, never its value.
    """
    w = hint + _SKETCH_OVERSAMPLING
    if 2 * w > U.shape[1]:
        return None
    m, n = X.shape
    Q = np.linalg.qr(X @ rng.standard_normal((n, w)))[0]
    B = Q.T @ X
    # one m x n temporary, not two: a second one costs more than the GEMMs
    E = Q @ B
    E -= X
    e = float(np.linalg.norm(E))
    s = np.linalg.svd(B, compute_uv=False)
    slack = 64.0 * np.finfo(float).eps * (m + n) * np.linalg.norm(U) * np.linalg.norm(V)
    upper = np.sqrt(s * s + e * e)
    floor_lo = rel_tol * (s[0] - slack)
    floor_hi = rel_tol * (upper[0] + slack)
    above = s - slack > floor_hi
    below = upper + slack < floor_lo
    if e + slack >= floor_lo or not np.all(above | below):
        return None
    return int(np.count_nonzero(above))


# ---------------------------------------------------------------------------
# solvers

def _prox_residual(p, X, gamma):
    """Relative prox-gradient residual |X - SVT(X - g grad f(X), g tau)| / (g max(|X|, 1))."""
    Z = X - gamma * operators.gradient(p, X)
    R = X - prox.svt(Z, gamma * p.tau)
    return float(np.linalg.norm(R)) / (gamma * max(float(np.linalg.norm(X)), 1.0))


def _grow_factors(R, mu, pair, b, rng):
    """Append the SVT of the top b directions of the prox residual R to the factors.

    Two block power steps find the top of R = Z - UV; every singular value
    s_i > mu of that part adds the column Q P_i sqrt(s_i - mu) to U and the
    row sqrt(s_i - mu) Wt_i to V. With UV the rank-r part of SVT(Z, mu),
    these are its missing terms. Returns None when no s_i exceeds mu.
    """
    Q = np.linalg.qr(R @ rng.standard_normal((R.shape[1], b)))[0]
    for _ in range(2):
        Q = np.linalg.qr(R @ (R.T @ Q))[0]
    P, s, Wt = np.linalg.svd(Q.T @ R, full_matrices=False)
    keep = s > mu
    if not keep.any():
        return None
    root = np.sqrt(s[keep] - mu)
    return FactorPair(np.hstack([pair.U, (Q @ P[:, keep]) * root]),
                      np.vstack([pair.V, root[:, None] * Wt[keep]]))


def prograamme_solve(p, cfg, *, seed=0):
    """SVD-free proximal gradient with alternating-minimization inner loop.

    Starts at X = 0 with a random factor pair drawn from seed, then
    iterates the inertial extrapolation, a gradient step on the weighted
    loss, and the factored inner solve whose product replaces the SVT
    step. The rank of X comes from _sketched_rank, sized by the previous
    record's rank, and from the exact _factored_rank whenever the sketch
    cannot certify it; both give the same count.

    The product equals the SVT step only while the budget r covers the
    rank of the optimum. The budget binds when the rank of X equals r, and
    an exit on a binding budget is certified by the prox-gradient residual
    (SolveTrace.exit_residual). Above _EXIT_RESIDUAL_TOL the run notes that
    X is not the optimum; rc then grows and goes on if it can, and
    otherwise the run ends with converged False, plain and rc alike.

    With cfg.continuation.enabled (rc), r starts at _RANK_MARGIN and
    adapts, capped at cfg.r: once the rank of X has held for _CADENCE
    iterations, r grows by _grow_factors if that rank fills it, and is cut
    to the rank plus _RANK_MARGIN if that is below r. Each move adds a note
    to the trace.

    Args:
        p: Problem instance.
        cfg: SolverConfig; cfg.r is the factor rank budget, rc's cap.
        seed: Seed for the start and restart factor generator.

    Returns:
        SolveTrace. Elapsed times run from the first line of the call, so
        they cover the set-up and every step of each iteration, the rank
        read, the budget moves and the exit certificate included.

    Raises:
        DivergenceError: the gradient step, the inner solve or the iterate
            became non-finite; its trace holds the finite records before,
            the last finite X and the run's notes.
    """
    return _solve(p, cfg, seed, exact=False)


def pgd_solve(p, cfg, *, seed=0):
    """SVD-based inertial proximal gradient descent baseline.

    Runs the outer loop of prograamme_solve, from X = 0, with the proximal
    step computed exactly by singular value thresholding. With rule Zero
    this is plain PGD; with a FistaLike rule it is the FISTA baseline. The
    budget r is min(m, n) and never binds, grows or is cut: cfg.r,
    cfg.inner and cfg.continuation are ignored, and seed only labels the
    trace.
    """
    return _solve(p, cfg, seed, exact=True)


def _solve(p, cfg, seed, exact):
    """The proximal-gradient loop of both solvers from X = 0; exact picks the SVT prox step."""
    start = time.perf_counter()
    X = np.zeros(p.domain_shape)
    m, n = X.shape
    L = operators.lipschitz_bound(p)
    gamma = cfg.gamma if cfg.gamma is not None else 1.0 / L
    mu = p.tau * gamma
    adaptive = cfg.continuation.enabled and not exact
    if exact:
        r = r_cap = min(m, n)
    else:
        rng = np.random.default_rng(seed)
        # the rank sketch and the growth steps draw from generators of their
        # own so that the cold-start restarts do not move; a certified read
        # does not depend on its draws
        sketch_rng = np.random.default_rng(0)
        grow_rng = np.random.default_rng(1)
        r_cap = min(cfg.r, m, n)
        r = min(r_cap, _RANK_MARGIN) if adaptive else r_cap
        pair = amfit.random_pair(m, n, r, rng)

    # Y -> Y - gamma grad f(Y), taken as the operator sees fit
    gradient_step = p.op.gradient_step(p, gamma)
    # the last step X_k - X_k-1 and its norm, zero before the first
    D = X
    step = 0.0
    records = []
    notes = []
    # the default gamma = 1/L meets the bound exactly, whatever the rounding of gamma * L
    if isinstance(cfg.rule, FistaLike) and gamma >= 1.0 / L:
        notes.append("step size meets or exceeds the classical FISTA bound 1/L; "
                     "convergence is empirical only")
    held = 0

    def trace(converged, exit_residual=None):
        """SolveTrace of the records so far; every exit, divergence included, builds it here."""
        return SolveTrace(records, X, converged, time.perf_counter() - start, seed, gamma, L,
                          tuple(notes), exit_residual)

    def divergence(what):
        """DivergenceError for `what` in iteration k, with the finite records before it."""
        return DivergenceError(f"{what} became non-finite at iteration {k} "
                               f"(gamma={gamma:.3e}, L={L:.3e})", trace=trace(False))

    for k in range(1, cfg.stop.max_iter + 1):
        a = inertial_value(cfg.rule, k, step)
        # both prox steps validate Z on entry, so Z is read for non-finite
        # entries only when one of them refuses a non-finite matrix; a
        # gradient step that raises leaves Z None
        Z = None
        try:
            Z = gradient_step(X if a == 0.0 else X + a * D)
            # not read again before the next step replaces it: free its array for the prox step
            D = None
            if exact:
                X_new, rank_x = prox.svt_with_rank(Z, mu)
                inner_iters = 0
            else:
                if pair.is_zero():
                    # degenerate fixed point of the inner iteration; restart
                    pair = amfit.random_pair(m, n, r, rng)
                pair, inner_iters = amfit.inner_solve(Z, mu, pair, cfg.inner, k)
                X_new = pair.product()
        except NonFiniteError as exc:
            # with Z finite, an overflow inside the alternating passes
            finite = Z is not None and np.all(np.isfinite(Z))
            raise divergence("inner solve" if finite else "gradient step") from exc
        D = X_new - X
        step = float(np.linalg.norm(D))
        # X is finite, so a finite step proves X_new finite
        if not np.isfinite(step) and not np.all(np.isfinite(X_new)):
            raise divergence("iterate")
        stop = step <= cfg.stop.step_tol or (
            cfg.stop.rel_step_tol > 0.0
            and step <= cfg.stop.rel_step_tol * max(float(np.linalg.norm(X)), 1.0)
        )
        # the previous iterate is read no more; dropping it before the rank
        # read keeps D from adding an m x n array to the loop's peak
        X = X_new

        if not exact:
            hint = records[-1].rank_x if records else r
            rank_x = _sketched_rank(X, pair.U, pair.V, DEFAULT_RANK_TOL, hint, sketch_rng)
            if rank_x is None:
                rank_x = _factored_rank(pair.U, pair.V, DEFAULT_RANK_TOL)
        held = held + 1 if records and records[-1].rank_x == rank_x else 1
        # the exact step's budget min(m, n) is no constraint, even when X fills it
        binding = not exact and rank_x == r
        residual = _prox_residual(p, X, gamma) if stop and binding else None
        uncertified = residual is not None and residual > _EXIT_RESIDUAL_TOL
        if (adaptive and binding and r < r_cap
                and (uncertified or (held >= _CADENCE and not stop))):
            grown = _grow_factors(Z - X, mu, pair, min(r, r_cap - r), grow_rng)
            # whether or not it adds columns, the next attempt waits for
            # _CADENCE more reads
            held = 0
            if grown is not None:
                # the rank of X fills the budget: add the residual's missing
                # SVT terms as new columns and go on
                notes.append(f"rank budget grown from {r} to {grown.r} at iteration {k}")
                pair, r, stop = grown, grown.r, False
        elif adaptive and held >= _CADENCE and rank_x + _RANK_MARGIN < r:
            # the rank of X has settled below the budget: drop the factor
            # columns that carry nothing beyond DEFAULT_RANK_TOL, keeping a margin
            new_r = rank_x + _RANK_MARGIN
            pair = truncate_factors(pair.U, pair.V, new_r)
            notes.append(f"rank budget cut from {r} to {new_r} at iteration {k}")
            r = new_r
        records.append(TraceRecord(k, time.perf_counter() - start, step, rank_x, r,
                                   inner_iters))

        if stop:
            if uncertified:
                notes.append(
                    f"rank budget r={r} binds at exit: prox-gradient residual "
                    f"{residual:.2e} > {_EXIT_RESIDUAL_TOL:.0e}, so X is not the "
                    "optimum; a larger r is needed"
                )
            # an exit on a binding budget that fails its certificate has not converged
            return trace(not uncertified, residual)
    return trace(False)
