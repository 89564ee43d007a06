"""SVD-free inner solver.

Alternating minimization of 0.5*|UV - Z|^2 + (mu/2)*(|U|^2 + |V|^2) over
the factor pair (U, V). For a factor budget at least the rank of the
thresholded target, the product UV of the minimizer equals the singular
value thresholding of Z at level mu, so this loop replaces the SVT step
of proximal gradient descent without computing an SVD.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .linalg import as_matrix, spd_solve


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


@dataclass(frozen=True)
class Tolerance:
    """Stop when the relative change of UV drops below eps, capped at max_inner."""

    eps: float = 1e-4
    max_inner: int = 20


@dataclass(frozen=True)
class IncreasingI:
    """Fixed passes that grow by one every `every` outer iterations.

    Resolved by the outer solver; calling inner_solve with this policy at
    outer iteration k runs start + (k - 1) // every passes.
    """

    start: int = 1
    every: int = 50

    def resolve(self, k):
        return FixedI(self.start + max(k - 1, 0) // self.every)


def random_pair(m, n, r, rng):
    """Gaussian cold-start factors scaled by 1/sqrt(r).

    A zero start is a fixed point of the alternating updates, so cold
    starts must be random.
    """
    scale = 1.0 / np.sqrt(r)
    return FactorPair(
        scale * rng.standard_normal((m, r)), scale * rng.standard_normal((r, n))
    )


def update_U(Z, V, mu):
    """Exact minimizer over U with V fixed: Z V^T (V V^T + mu I)^-1."""
    Z = as_matrix(Z, "Z")
    V = as_matrix(V, "V")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    G = V @ V.T
    G.flat[::G.shape[0] + 1] += mu  # the diagonal, in place
    return spd_solve(G, V @ Z.T).T


def update_V(Z, U, mu):
    """Exact minimizer over V with U fixed: (U^T U + mu I)^-1 U^T Z."""
    Z = as_matrix(Z, "Z")
    U = as_matrix(U, "U")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    G = U.T @ U
    G.flat[::G.shape[0] + 1] += mu
    return spd_solve(G, U.T @ Z)


def inner_objective(Z, U, V, mu):
    """Value of 0.5*|UV - Z|^2 + (mu/2)*(|U|^2 + |V|^2)."""
    R = U @ V - Z
    return 0.5 * float(np.sum(R * R)) + 0.5 * mu * float(
        np.sum(U * U) + np.sum(V * V)
    )


def inner_solve(Z, mu, start, policy):
    """Run the alternating inner loop on target Z.

    Args:
        Z: Target matrix of the proximal subproblem.
        mu: Regularization weight tau * gamma of the outer step; must be > 0.
        start: Warm-start FactorPair with shapes consistent with Z.
        policy: FixedI or Tolerance stopping policy.

    Returns:
        Tuple (FactorPair, passes_run).
    """
    Z = as_matrix(Z, "Z")
    U, V = start.U, start.V
    if U.shape[0] != Z.shape[0] or V.shape[1] != Z.shape[1]:
        raise DimensionError(
            f"factor shapes {U.shape} x {V.shape} incompatible with Z {Z.shape}"
        )
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
