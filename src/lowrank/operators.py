"""Observation operators and the weighted least-squares loss.

An observation operator maps the m x n recovery domain to the measurement
space. Two variants are supported: the identity map and a dense sensing
matrix acting on the column-stacked vectorization of the input (compressed
sensing). Matrix completion is the identity with W zero off the observed
set: a 0/1 mask is part of the weights, not of the operator.

Each operator carries its own maps on operands already validated:
`apply(X)`, `adjoint(R)` and `operator_norm`, and `gradient_step(p, gamma)`,
the map Y -> Y - gamma grad f(Y) that the solvers take once per iteration.
The module function `apply` validates the operand and then calls the
operator's method; `gradient` forms the loss gradient through it and the
operator's `adjoint`.
"""

import functools
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
    operator_norm = 1.0

    @property
    def domain_shape(self):
        return self.shape

    @property
    def codomain_shape(self):
        return self.shape

    def apply(self, X):
        return X

    adjoint = apply

    def gradient_step(self, p, gamma):
        """Y -> A . Y + C = Y - gamma grad f(Y), with A and C formed once.

        A = 1 - gamma W_tilde and C = (gamma W_tilde) . F; each call writes
        two passes into one buffer Z, which the next call overwrites. Where
        gamma W_tilde = 1 the step is F exactly, and where W_tilde = 0 it is
        Y exactly. C is F itself when the two are equal bit for bit (unit
        weights at gamma = 1), so the cache adds one array, not two. Y is
        not scanned: a non-finite Y makes Z non-finite (0 . inf is NaN), and
        the prox step refuses it.
        """
        C = gamma * p.W_tilde
        A = 1.0 - C
        C *= p.F
        if np.array_equal(C, p.F):
            C = p.F
        return functools.partial(_affine, A, C, np.empty_like(A))


def _affine(A, C, Z, Y):
    """Z = A . Y + C, written into the buffer Z."""
    np.multiply(A, Y, out=Z)
    Z += C
    return Z


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

    @property
    def codomain_shape(self):
        return (self.S.shape[0], 1)

    @functools.cached_property
    def operator_norm(self):
        """Upper bound on sigma_1(S), computed once and cached.

        Calls linalg.spectral_norm through the module, so a wrapper on that
        name sees the call. The bound exceeds sigma_1(S) by a relative
        1e-10 at most.
        """
        return linalg.spectral_norm(self.S)

    def apply(self, X):
        return self.S @ vec(X)

    def adjoint(self, R):
        return unvec(self.S.T @ R, self.domain_shape)

    def gradient_step(self, p, gamma):
        """Y -> Y - gamma grad f(Y), through the module function gradient.

        It is looked up at each call, so a wrapper on operators.gradient
        sees every step; it raises NonFiniteError on a non-finite Y.
        """
        def step(Y):
            G = gradient(p, Y)
            G *= gamma
            return Y - G
        return step


def apply(op, X):
    """Apply the observation operator to a domain matrix."""
    X = as_matrix(X, "X")
    if X.shape != tuple(op.domain_shape):
        raise DimensionError(
            f"operand shape {X.shape} does not match domain {op.domain_shape}"
        )
    return op.apply(X)


@dataclass(frozen=True)
class Problem:
    """One weighted low-rank recovery instance.

    Minimizes 0.5 * |(op(X) - F) . W|^2 + tau * |X|_* over X. The squared
    weights W_tilde = W . W, which the gradient reads, are cached at
    construction. The observed set of a completion problem is the support
    of W.
    """

    op: object
    F: np.ndarray
    W: np.ndarray
    tau: float
    W_tilde: np.ndarray = field(init=False, repr=False)

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
        # the loss and its Lipschitz bound read only the squares, so they are
        # what must be usable: a weight above about 1e154 squares to inf, and
        # weights all below about 1e-162 square to zero
        with np.errstate(over="ignore"):
            W_tilde = W * W
        w_max = np.max(W_tilde)
        if w_max == np.inf:
            raise DegenerateProblemError(
                f"squared weights W . W overflow (max weight {np.max(W):.3e})")
        if w_max == 0.0:
            raise DegenerateProblemError("squared weights W . W are identically zero "
                                         f"(max weight {np.max(W):.3e})")
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "W_tilde", W_tilde)

    @property
    def domain_shape(self):
        return tuple(self.op.domain_shape)


def loss(p, X):
    """Smooth part of the objective: 0.5 * |(op(X) - F) . W|^2."""
    R = (apply(p.op, X) - p.F) * p.W
    return 0.5 * float(np.sum(R * R))


def gradient(p, X):
    """Gradient of the smooth loss at X: op*((op(X) - F) . W_tilde).

    X is validated once, by apply. The residual is weighted in place, so
    the identity makes two passes into one new array. Dense sensing's
    gradient step calls this function; Identity's does not, so for
    completion it serves the exit certificate, the tests and outside callers.
    """
    R = apply(p.op, X) - p.F
    R *= p.W_tilde
    return p.op.adjoint(R)


def lipschitz_bound(p):
    """Upper bound on the Lipschitz constant of the loss gradient.

    Equals the squared operator norm times the largest squared weight, so
    unobserved entries (zero weight) do not count. The identity has unit
    norm; dense sensing uses an upper bound on the spectral norm of the
    sensing matrix, at most 1e-10 above it relatively. So gamma = 1/L never
    exceeds the step bound 1/L of the convergence theory. Problem makes
    sure the largest squared weight is positive and finite.
    """
    return float(p.op.operator_norm) ** 2 * float(np.max(p.W_tilde))


def objective(p, X):
    """Full objective: weighted loss plus tau times the nuclear norm.

    Needs an SVD of X, so no solver calls it; evaluate it on a finished
    SolveTrace's X, as objective(p, trace.X).
    """
    _, s, _ = linalg.thin_svd(X)
    return loss(p, X) + p.tau * float(np.sum(s))
