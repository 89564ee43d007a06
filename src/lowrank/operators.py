"""Observation operators and the weighted least-squares loss.

An observation operator maps the m x n recovery domain to the measurement
space. Three variants are supported: the identity map, an entrywise 0/1
mask (matrix completion), and a dense sensing matrix acting on the
column-stacked vectorization of the input (compressed sensing).
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import DegenerateProblemError, DimensionError
from .linalg import as_matrix


def vec(X):
    """Column-stacking vectorization, returned as an (mn, 1) matrix."""
    return np.reshape(X, (-1, 1), order="F")


def unvec(x, shape):
    """Inverse of :func:`vec` for the given (m, n) shape."""
    return np.reshape(x, shape, order="F")


@dataclass(frozen=True)
class Identity:
    """Identity observation: the matrix is observed directly."""

    shape: tuple

    @property
    def domain_shape(self):
        return self.shape

    @property
    def codomain_shape(self):
        return self.shape

    @property
    def operator_norm(self):
        return 1.0


@dataclass(frozen=True)
class EntryMask:
    """Entrywise 0/1 mask; observed entries are those where the mask is 1."""

    mask: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mask, "mask")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "mask", m)

    @property
    def domain_shape(self):
        return self.mask.shape

    @property
    def codomain_shape(self):
        return self.mask.shape

    @property
    def operator_norm(self):
        return 1.0


@dataclass(frozen=True)
class DenseSensing:
    """Dense linear measurements of vec(X); codomain is a (d, 1) matrix."""

    S: np.ndarray
    domain_shape: tuple

    def __post_init__(self):
        S = as_matrix(self.S, "S")
        m, n = self.domain_shape
        if S.shape[1] != m * n:
            raise DimensionError(
                f"sensing matrix has {S.shape[1]} columns, expected {m * n}"
            )
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "domain_shape", (int(m), int(n)))
        object.__setattr__(self, "_norm_cache", [None])

    @property
    def codomain_shape(self):
        return (self.S.shape[0], 1)

    @property
    def operator_norm(self):
        """Upper bound on sigma_1(S), computed once and cached.

        Calls linalg.spectral_norm through the module, so a wrapper on that
        name sees the call. The bound exceeds sigma_1(S) by a relative
        1e-10 at most.
        """
        if self._norm_cache[0] is None:
            self._norm_cache[0] = linalg.spectral_norm(self.S)
        return self._norm_cache[0]


def apply(op, X):
    """Apply the observation operator to a domain matrix."""
    X = as_matrix(X, "X")
    if X.shape != tuple(op.domain_shape):
        raise DimensionError(
            f"operand shape {X.shape} does not match domain {op.domain_shape}"
        )
    if isinstance(op, Identity):
        return X
    if isinstance(op, EntryMask):
        return op.mask * X
    if isinstance(op, DenseSensing):
        return op.S @ vec(X)
    raise TypeError(f"unknown observation operator {type(op)!r}")


def adjoint(op, R):
    """Apply the adjoint of the observation operator to a codomain matrix."""
    R = as_matrix(R, "R")
    if R.shape != tuple(op.codomain_shape):
        raise DimensionError(
            f"operand shape {R.shape} does not match codomain {op.codomain_shape}"
        )
    if isinstance(op, Identity):
        return R
    if isinstance(op, EntryMask):
        return op.mask * R
    if isinstance(op, DenseSensing):
        return unvec(op.S.T @ R, op.domain_shape)
    raise TypeError(f"unknown observation operator {type(op)!r}")


@dataclass(frozen=True)
class Problem:
    """One weighted low-rank recovery instance.

    Minimizes 0.5 * |(op(X) - F) . W|^2 + tau * |X|_* over X. The squared
    weights W_tilde = W . W are cached at construction. For the operators
    that act entrywise, W_bar = op* W_tilde op is cached as well: the
    matrix mask . W_tilde for EntryMask, and W_tilde itself (not a copy)
    for Identity. It is None for DenseSensing.
    """

    op: object
    F: np.ndarray
    W: np.ndarray
    tau: float
    W_tilde: np.ndarray = field(init=False, repr=False)
    W_bar: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        F = as_matrix(self.F, "F")
        W = as_matrix(self.W, "W")
        shape = tuple(self.op.codomain_shape)
        if F.shape != shape:
            raise DimensionError(f"F shape {F.shape} != codomain {shape}")
        if W.shape != shape:
            raise DimensionError(f"W shape {W.shape} != codomain {shape}")
        if np.any(W < 0.0):
            raise ValueError("weights must be nonnegative")
        if not np.any(W):
            raise DegenerateProblemError("weight matrix is identically zero")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        W_tilde = W * W
        if isinstance(self.op, EntryMask):
            W_bar = self.op.mask * W_tilde
        elif isinstance(self.op, Identity):
            W_bar = W_tilde
        else:
            W_bar = None
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "W_tilde", W_tilde)
        object.__setattr__(self, "W_bar", W_bar)

    @property
    def domain_shape(self):
        return tuple(self.op.domain_shape)


def loss(p, X):
    """Smooth part of the objective: 0.5 * |(op(X) - F) . W|^2."""
    R = (apply(p.op, X) - p.F) * p.W
    return 0.5 * float(np.sum(R * R))


def gradient(p, X):
    """Gradient of the smooth loss at X: op*((op(X) - F) . W_tilde).

    With W_bar cached (Identity, EntryMask) this is (X - F) . W_bar, two
    passes over one new array with X validated once. It equals the
    adjoint(apply(...)) form bit for bit, up to the sign of zeros at
    unobserved entries. Dense sensing takes the adjoint(apply(...)) form.
    """
    if p.W_bar is None:
        R = (apply(p.op, X) - p.F) * p.W_tilde
        return adjoint(p.op, R)
    X = as_matrix(X, "X")
    if X.shape != p.F.shape:
        raise DimensionError(
            f"operand shape {X.shape} does not match domain {p.F.shape}"
        )
    R = X - p.F
    R *= p.W_bar
    return R


def lipschitz_bound(p):
    """Upper bound on the Lipschitz constant of the loss gradient.

    Equals the squared operator norm times the largest squared weight. The
    identity and mask operators have unit norm; dense sensing uses an upper
    bound on the spectral norm of the sensing matrix, at most 1e-10 above
    it relatively. So gamma = 1/L never exceeds the step bound 1/L of the
    convergence theory.
    """
    w_max = float(np.max(p.W_tilde))
    if w_max == 0.0:
        raise DegenerateProblemError("weight matrix is identically zero")
    return float(p.op.operator_norm) ** 2 * w_max


def objective(p, X):
    """Full objective: weighted loss plus tau times the nuclear norm.

    Needs an SVD of X; used for traces and tests only, never inside the
    SVD-free iteration.
    """
    _, s, _ = linalg.thin_svd(X)
    return loss(p, X) + p.tau * float(np.sum(s))
