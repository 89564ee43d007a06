"""SVD-free inner solver.

Alternating minimization of 0.5*|UV - Z|^2 + (mu/2)*(|U|^2 + |V|^2) over
the factor pair (U, V). For a factor budget at least the rank of the
thresholded target, the product UV of the minimizer equals the singular
value thresholding of Z at level mu, so this loop replaces the SVT step
of proximal gradient descent without computing an SVD.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .linalg import as_matrix, spd_solve


def check_count(name, value, low=1, error=ValueError):
    """Raise error unless value is an integer >= low; a bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be >= {low} and an integer, got {value!r}")


@dataclass
class FactorPair:
    """A factorization candidate X = U @ V with shared inner dimension r."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = as_matrix(self.U, "U")
        self.V = as_matrix(self.V, "V")
        if self.U.shape[1] != self.V.shape[0]:
            raise DimensionError(
                f"inner dimensions differ: U is {self.U.shape}, V is {self.V.shape}"
            )

    @property
    def r(self):
        return self.U.shape[1]

    def product(self):
        return self.U @ self.V

    def is_zero(self):
        return not (np.any(self.U) and np.any(self.V))


@dataclass(frozen=True)
class FixedI:
    """Run exactly `passes` alternating passes per call."""

    passes: int = 1

    def __post_init__(self):
        check_count("passes", self.passes)


@dataclass(frozen=True)
class Tolerance:
    """Stop when the relative change of UV drops below eps, capped at max_inner."""

    eps: float = 1e-4
    max_inner: int = 20

    def __post_init__(self):
        if not self.eps >= 0.0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        check_count("max_inner", self.max_inner)


@dataclass(frozen=True)
class IncreasingI:
    """Fixed passes that grow by one every `every` outer iterations.

    At outer iteration k, inner_solve runs start + (k - 1) // every passes.
    """

    start: int = 1
    every: int = 50

    def __post_init__(self):
        check_count("start", self.start)
        check_count("every", self.every)


def random_pair(m, n, r, rng):
    """Gaussian cold-start factors scaled by 1/sqrt(r).

    A zero start is a fixed point of the alternating updates, so cold
    starts must be random.
    """
    scale = 1.0 / np.sqrt(r)
    return FactorPair(
        scale * rng.standard_normal((m, r)), scale * rng.standard_normal((r, n))
    )


def _ridge(Z, U, mu):
    """Ridge regression of Z on U: (U^T U + mu I)^-1 U^T Z.

    Z and U are taken as validated float64 matrices (inner_solve checks Z,
    FactorPair the factors); spd_solve still rejects a non-finite Gram or
    right-hand side, so an overflow inside a pass raises NonFiniteError.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    G = U.T @ U
    G.flat[::G.shape[0] + 1] += mu  # the diagonal, in place
    return spd_solve(G, U.T @ Z)


def update_U(Z, V, mu):
    """Exact minimizer over U with V fixed: Z V^T (V V^T + mu I)^-1."""
    return _ridge(Z.T, V.T, mu).T


def update_V(Z, U, mu):
    """Exact minimizer over V with U fixed: (U^T U + mu I)^-1 U^T Z."""
    return _ridge(Z, U, mu)


def inner_solve(Z, mu, start, policy, k=1):
    """Run the alternating inner loop on target Z.

    Args:
        Z: Target matrix of the proximal subproblem.
        mu: Regularization weight tau * gamma of the outer step; must be > 0.
        start: Warm-start FactorPair with shapes consistent with Z.
        policy: FixedI, Tolerance or IncreasingI stopping policy.
        k: Outer iteration index, read by IncreasingI only.

    Returns:
        Tuple (FactorPair, passes_run).
    """
    Z = as_matrix(Z, "Z")
    U, V = start.U, start.V
    if U.shape[0] != Z.shape[0] or V.shape[1] != Z.shape[1]:
        raise DimensionError(
            f"factor shapes {U.shape} x {V.shape} incompatible with Z {Z.shape}"
        )
    if isinstance(policy, IncreasingI):
        policy = FixedI(policy.start + (k - 1) // policy.every)
    if isinstance(policy, FixedI):
        for _ in range(policy.passes):
            U = update_U(Z, V, mu)
            V = update_V(Z, U, mu)
        return FactorPair(U, V), policy.passes
    if isinstance(policy, Tolerance):
        X = U @ V
        for i in range(policy.max_inner):
            U = update_U(Z, V, mu)
            V = update_V(Z, U, mu)
            X_new = U @ V
            change = np.linalg.norm(X_new - X) / max(np.linalg.norm(X), 1.0)
            X = X_new
            if change <= policy.eps:
                return FactorPair(U, V), i + 1
        return FactorPair(U, V), policy.max_inner
    raise TypeError(f"unknown inner policy {policy!r}")
