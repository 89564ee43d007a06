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

import csv
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import amfit, linalg, operators, prox
from .amfit import FactorPair, FixedI, IncreasingI, Tolerance
from .exceptions import DimensionError, DivergenceError, NonFiniteError
from .linalg import as_matrix

#: Columns rc keeps above the rank of X, so that rank_x < r shows the
#: budget is not binding; also rc's starting budget.
_RANK_MARGIN = 4

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

    The cap construction makes the terms a_k * step^2 summable by design.
    """

    a: float = 0.5
    c: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        if self.c <= 0.0 or self.delta <= 0.0:
            raise ValueError("c and delta must be positive")


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
        if step_norm_prev == 0.0:
            return rule.a
        return min(rule.a, rule.c / (k ** (1.0 + rule.delta) * step_norm_prev**2))
    raise TypeError(f"unknown inertial rule {rule!r}")


# ---------------------------------------------------------------------------
# configuration and traces

@dataclass(frozen=True)
class Continuation:
    """Rank-continuation policy: fit the factor budget r to the rank of X.

    The budget starts small and moves both ways, each move decided by the
    numerical rank of the iterate (relative tolerance rank_tol) once it has
    read the same value for cadence consecutive iterations. A rank that
    fills the budget grows r (at most doubling it, never past SolverConfig.r);
    a rank more than a margin below the budget cuts r to that rank plus the
    margin, so that a rank below r shows the budget does not bind.
    """

    enabled: bool = False
    cadence: int = 3
    rank_tol: float = linalg.DEFAULT_RANK_TOL

    def __post_init__(self):
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")


@dataclass(frozen=True)
class Stopping:
    """Stopping rule on the iterate step norm.

    step_tol acts on the absolute step |X_k+1 - X_k|; rel_step_tol, when
    positive, additionally stops on the step relative to max(|X_k|, 1).
    """

    step_tol: float = 1e-10
    rel_step_tol: float = 0.0
    max_iter: int = 1000


@dataclass(frozen=True)
class SolverConfig:
    """Bundle of all solver parameters.

    gamma defaults to 1/L when None. trace_level "full" also records the
    objective each iteration (needs an SVD); "light" skips it to keep the
    SVD-free path honest in timing benchmarks. r is the factor rank
    budget; with continuation enabled it is the cap of an adaptive budget.
    """

    gamma: float = None
    rule: object = field(default_factory=Zero)
    inner: object = field(default_factory=lambda: FixedI(1))
    r: int = 10
    continuation: Continuation = field(default_factory=Continuation)
    stop: Stopping = field(default_factory=Stopping)
    trace_level: str = "light"

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.r < 1:
            raise ValueError(f"factor rank must be >= 1, got {self.r}")
        if self.trace_level not in ("light", "full"):
            raise ValueError(f"trace_level must be 'light' or 'full', got {self.trace_level!r}")


TRACE_HEADER = ["k", "elapsed_s", "objective", "step_norm", "rank_x", "r", "inner_iters"]


@dataclass
class TraceRecord:
    k: int
    elapsed_s: float
    objective: float
    step_norm: float
    rank_x: int
    r: int
    inner_iters: int


@dataclass
class SolveTrace:
    """Per-iteration records and the final state of one solver run."""

    records: list
    X: np.ndarray
    converged: bool
    iterations: int
    seconds: float
    seed: int = None
    gamma: float = None
    lipschitz: float = None
    notes: tuple = ()
    exit_residual: float = None

    @property
    def final_rank(self):
        return self.records[-1].rank_x if self.records else 0

    def column(self, name):
        return [getattr(rec, name) for rec in self.records]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACE_HEADER)
            for rec in self.records:
                w.writerow(
                    [
                        rec.k,
                        repr(rec.elapsed_s),
                        repr(rec.objective) if rec.objective == rec.objective else "nan",
                        repr(rec.step_norm),
                        rec.rank_x,
                        rec.r,
                        rec.inner_iters,
                    ]
                )

    def summary(self, config=None, algorithm=None):
        out = {
            "algorithm": algorithm,
            "seed": self.seed,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_rank": self.final_rank,
            "total_seconds": self.seconds,
            "gamma": self.gamma,
            "lipschitz": self.lipschitz,
            "exit_residual": self.exit_residual,
            "notes": list(self.notes),
        }
        if config is not None:
            out["config"] = config_to_dict(config)
        return out


def config_to_dict(cfg):
    """JSON-serializable echo of a SolverConfig."""
    d = asdict(cfg)
    d["rule"] = {"type": type(cfg.rule).__name__, **asdict(cfg.rule)}
    d["inner"] = {"type": type(cfg.inner).__name__, **asdict(cfg.inner)}
    return d


# ---------------------------------------------------------------------------
# factor utilities

def truncate_factors(U, V, new_r):
    """Best rank-new_r factor pair approximating U @ V.

    Thin QR of U and of V^T reduce the problem to an SVD of the small
    r x r core; the singular weight is split evenly between the factors.
    """
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    r = U.shape[1]
    if V.shape[0] != r:
        raise DimensionError(f"inner dimensions differ: {U.shape} x {V.shape}")
    if new_r > r:
        raise ValueError(f"new_r={new_r} exceeds current factor rank {r}")
    if new_r == 0:
        warnings.warn("rank-0 factor budget is degenerate; using rank 1")
        new_r = 1
    Qu, Ru = np.linalg.qr(U)
    Qv, Rv = np.linalg.qr(V.T)
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

def _check_start(p, X0):
    shape = p.domain_shape
    if X0 is None:
        return np.zeros(shape)
    X0 = as_matrix(X0, "X0")
    if X0.shape != shape:
        raise DimensionError(f"X0 shape {X0.shape} != domain {shape}")
    return X0.copy()


def _gradient_step(p, X, X_prev, a, gamma):
    """Gradient step Z = Y - gamma grad f(Y) from the extrapolation Y = X + a (X - X_prev).

    With a = 0, Y is X itself and the extrapolation passes are skipped.
    """
    Y = X if a == 0.0 else X + a * (X - X_prev)
    G = operators.gradient(p, Y)
    G *= gamma
    return Y - G


def _diverged(step, X_new):
    """Whether X_new has a non-finite entry, given step = |X_new - X| with X finite.

    A finite step proves X_new finite, so its entries are read only when
    the step is not finite.
    """
    return not np.isfinite(step) and not np.all(np.isfinite(X_new))


def _prox_residual(p, X, gamma):
    """Relative prox-gradient residual |X - SVT(X - g grad f(X), g tau)| / (g max(|X|, 1))."""
    Z = X - gamma * operators.gradient(p, X)
    R = X - prox.svt(Z, gamma * p.tau)
    return float(np.linalg.norm(R)) / (gamma * max(float(np.linalg.norm(X)), 1.0))


def _grow_factors(R, mu, pair, r_cap, rng):
    """Append the SVT of the top part of the prox residual R to the factors.

    Two block power steps of width b = min(r, r_cap - r) find the top of
    R = Z - UV; every singular value s_i > mu of that part adds the column
    Q P_i sqrt(s_i - mu) to U and the row sqrt(s_i - mu) Wt_i to V. With UV
    the rank-r part of SVT(Z, mu), these are its missing terms. Returns
    None when no s_i exceeds mu.
    """
    b = min(pair.r, r_cap - pair.r)
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


def prograamme_solve(p, cfg, X0=None, seed=0):
    """SVD-free proximal gradient with alternating-minimization inner loop.

    Iterates the inertial extrapolation, a gradient step on the weighted
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
    adapts, capped at cfg.r: once the rank of X has held for cadence
    iterations, r grows by _grow_factors if that rank fills it, and is cut
    to the rank plus _RANK_MARGIN if that is below r. Each move adds a note
    to the trace.

    Args:
        p: Problem instance.
        cfg: SolverConfig; cfg.r is the factor rank budget, rc's cap.
        X0: Starting iterate, zero matrix by default.
        seed: Seed for the cold-start factor generator.

    Returns:
        SolveTrace. Elapsed times cover the whole iteration, including the
        rank read, the budget moves and the exit certificate. Only the
        opt-in "full" trace objective is excluded.

    Raises:
        DivergenceError: the gradient step, the inner solve or the iterate
            became non-finite; its trace holds the finite records before.
    """
    return _solve(p, cfg, X0, seed, exact=False)


def pgd_solve(p, cfg, X0=None, seed=0):
    """SVD-based inertial proximal gradient descent baseline.

    Runs the outer loop of prograamme_solve with the proximal step computed
    exactly by singular value thresholding. With rule Zero this is plain
    PGD; with a FistaLike rule it is the FISTA baseline. The budget r is
    min(m, n) and never binds, grows or is cut: cfg.r, cfg.inner and
    cfg.continuation are ignored, and seed only labels the trace.
    """
    return _solve(p, cfg, X0, seed, exact=True)


def _solve(p, cfg, X0, seed, exact):
    """The proximal-gradient loop of both solvers; exact picks the SVT prox step."""
    X = _check_start(p, X0)
    m, n = X.shape
    L = operators.lipschitz_bound(p)
    gamma = cfg.gamma if cfg.gamma is not None else 1.0 / L
    mu = p.tau * gamma
    cont = cfg.continuation
    adaptive = cont.enabled and not exact
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

    X_prev = X
    step_prev = 0.0
    records = []
    notes = []
    if isinstance(cfg.rule, FistaLike) and gamma * L >= 1.0:
        notes.append("step size meets or exceeds the classical FISTA bound 1/L; "
                     "convergence is empirical only")
    held = 0
    residual = None
    elapsed = 0.0
    converged = False

    def divergence(what):
        """DivergenceError for `what` in iteration k, with the finite records before it."""
        trace = SolveTrace(records, X, False, k - 1, elapsed + time.perf_counter() - t0,
                           seed, gamma, L)
        return DivergenceError(f"{what} became non-finite at iteration {k} "
                               f"(gamma={gamma:.3e}, L={L:.3e})", trace=trace)

    k = 0
    for k in range(1, cfg.stop.max_iter + 1):
        t0 = time.perf_counter()
        Z = _gradient_step(p, X, X_prev, inertial_value(cfg.rule, k, step_prev), gamma)
        if not np.all(np.isfinite(Z)):
            raise divergence("gradient step")
        if exact:
            X_new, rank_x = prox.svt_with_rank(Z, mu)
            inner_iters = 0
        else:
            policy = cfg.inner.resolve(k) if isinstance(cfg.inner, IncreasingI) else cfg.inner
            if pair.is_zero():
                # degenerate fixed point of the inner iteration; restart
                pair = amfit.random_pair(m, n, r, rng)
            try:
                pair, inner_iters = amfit.inner_solve(Z, mu, pair, policy)
            except NonFiniteError as exc:
                # Z is finite, so an overflow inside the alternating passes
                raise divergence("inner solve") from exc
            X_new = pair.product()
        step = float(np.linalg.norm(X_new - X))
        if _diverged(step, X_new):
            raise divergence("iterate")

        if not exact:
            hint = records[-1].rank_x if records else r
            rank_x = _sketched_rank(X_new, pair.U, pair.V, cont.rank_tol, hint, sketch_rng)
            if rank_x is None:
                rank_x = _factored_rank(pair.U, pair.V, cont.rank_tol)
        held = held + 1 if records and records[-1].rank_x == rank_x else 1
        # the exact step's budget min(m, n) is no constraint, even when X fills it
        binding = not exact and rank_x == r
        stop = step <= cfg.stop.step_tol or (
            cfg.stop.rel_step_tol > 0.0
            and step <= cfg.stop.rel_step_tol * max(float(np.linalg.norm(X)), 1.0)
        )
        if stop and binding:
            residual = _prox_residual(p, X_new, gamma)
        uncertified = residual is not None and residual > _EXIT_RESIDUAL_TOL
        grown = None
        if (adaptive and binding and r < r_cap
                and (uncertified or (held >= cont.cadence and not stop))):
            grown = _grow_factors(Z - X_new, mu, pair, r_cap, grow_rng)
            # whether or not it adds columns, the next attempt waits for
            # cadence more reads
            held = 0
        if grown is not None:
            # the rank of X fills the budget: add the residual's missing
            # SVT terms as new columns and go on
            notes.append(f"rank budget grown from {r} to {grown.r} at iteration {k}")
            pair, r, residual, stop = grown, grown.r, None, False
        elif adaptive and held >= cont.cadence and rank_x + _RANK_MARGIN < r:
            # the rank of X has settled below the budget: drop the factor
            # columns that carry nothing beyond rank_tol, keeping a margin
            new_r = rank_x + _RANK_MARGIN
            pair = truncate_factors(pair.U, pair.V, new_r)
            notes.append(f"rank budget cut from {r} to {new_r} at iteration {k}")
            r = new_r
        elif uncertified:
            notes.append(
                f"rank budget r={r} binds at exit: prox-gradient residual "
                f"{residual:.2e} > {_EXIT_RESIDUAL_TOL:.0e}, so X is not the "
                "optimum; a larger r is needed"
            )
        elapsed += time.perf_counter() - t0

        obj = operators.objective(p, X_new) if cfg.trace_level == "full" else float("nan")
        records.append(TraceRecord(k, elapsed, obj, step, rank_x, r, inner_iters))

        X_prev, X, step_prev = X, X_new, step
        if stop:
            # an exit on a binding budget that fails its certificate has not converged
            converged = not uncertified
            break

    return SolveTrace(records, X, converged, k, elapsed, seed, gamma, L,
                      notes=tuple(notes), exit_residual=residual)
