"""Seeded synthetic problem generators and evaluation metrics.

Ground truths are products of independent full-rank Gaussian factors, so
their rank equals the factor width exactly. All randomness flows through
numpy's default PCG64 generator seeded from the spec, making every
generated instance reproducible across platforms.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .amfit import check_count
from .exceptions import DimensionError, InvalidSpecError
from .linalg import as_matrix
from .operators import DenseSensing, Identity, Problem


# ---------------------------------------------------------------------------
# spec variants; each refuses its own bad fields, naming the field

def _check_finite(variant, *names, low=None):
    for name in names:
        value = getattr(variant, name)
        if not math.isfinite(value) or (low is not None and value < low):
            bound = "" if low is None else f" and >= {low}"
            raise InvalidSpecError(f"{name} must be finite{bound}, got {value!r}")


def _check_order(variant, lo, hi):
    if getattr(variant, lo) > getattr(variant, hi):
        raise InvalidSpecError(f"{lo} must not exceed {hi}, got "
                               f"{getattr(variant, lo)!r} > {getattr(variant, hi)!r}")


def _check_fraction(name, value):
    if value is None or not 0.0 < value < 1.0:
        raise InvalidSpecError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class GaussianScaled:
    """Gaussian noise scaled by eta_factor times the largest ground-truth entry.

    With sparsity set, the noise lives on a random support of that fraction.
    eta_factor is finite and >= 0; a set sparsity lies in (0, 1).
    """

    eta_factor: float = 0.2
    sparsity: float = None

    def __post_init__(self):
        _check_finite(self, "eta_factor", low=0.0)
        if self.sparsity is not None:
            _check_fraction("sparsity", self.sparsity)


@dataclass(frozen=True)
class SparseLarge:
    """Uniform noise from [low, high] on a random support of fraction sparsity.

    low <= high are finite, and so is high - low, the width numpy's draw
    needs; sparsity lies in (0, 1).
    """

    low: float = -50.0
    high: float = 50.0
    sparsity: float = 0.1

    def __post_init__(self):
        _check_finite(self, "low", "high")
        _check_order(self, "low", "high")
        if not math.isfinite(self.high - self.low):
            raise InvalidSpecError(f"high - low must be finite, got {self.high!r} - {self.low!r}")
        _check_fraction("sparsity", self.sparsity)


@dataclass(frozen=True)
class AdditiveGaussian:
    """Dense i.i.d. Gaussian noise with a finite standard deviation sigma >= 0."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_finite(self, "sigma", low=0.0)


@dataclass(frozen=True)
class AllOnes:
    """Unit weights everywhere."""


@dataclass(frozen=True)
class UniformInt:
    """Integer weights drawn uniformly from [w_min, w_max].

    Both bounds are integers, w_min >= 0, w_max >= 1 and w_min <= w_max;
    the draw's exclusive bound w_max + 1 must fit int64.
    """

    w_min: int = 1
    w_max: int = 10

    def __post_init__(self):
        check_count("w_min", self.w_min, 0, InvalidSpecError)
        check_count("w_max", self.w_max, 1, InvalidSpecError)
        _check_order(self, "w_min", "w_max")
        if self.w_max >= np.iinfo(np.int64).max:
            raise InvalidSpecError("w_max must be below 2**63 - 1, so that the draw "
                                   f"bound w_max + 1 fits int64, got {self.w_max!r}")


@dataclass(frozen=True)
class LargeOnSupport:
    """Weights in [w_min, w_max] on a random support of the given fraction, 1 elsewhere.

    fraction lies in (0, 1); the bounds are finite, with 0 <= w_min <= w_max.
    """

    fraction: float = 0.1
    w_min: float = 5.0
    w_max: float = 10.0

    def __post_init__(self):
        _check_fraction("fraction", self.fraction)
        _check_finite(self, "w_min", "w_max", low=0.0)
        _check_order(self, "w_min", "w_max")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic recovery instance.

    mask_fraction observes a random set of entries (matrix completion): the
    weights, and F, are zero off it. sensing_dim switches on a dense
    Gaussian sensing operator of that many measurements. At most one of the
    two may be set. m, n, rank, a set sensing_dim and seed are integers
    (never bools), seed >= 0 and the others >= 1.
    """

    m: int
    n: int
    rank: int
    noise: object = field(default_factory=AdditiveGaussian)
    weights: object = field(default_factory=AllOnes)
    mask_fraction: float = None
    sensing_dim: int = None
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 1), ("n", 1), ("rank", 1), ("sensing_dim", 1), ("seed", 0)):
            if name != "sensing_dim" or self.sensing_dim is not None:
                check_count(name, getattr(self, name), low, InvalidSpecError)
        if self.rank >= min(self.m, self.n):
            raise InvalidSpecError(
                f"rank {self.rank} must be < min(m, n) = {min(self.m, self.n)}"
            )
        if self.mask_fraction is not None and not 0.0 < self.mask_fraction <= 1.0:
            raise InvalidSpecError(f"mask fraction must lie in (0, 1], got {self.mask_fraction}")
        if self.mask_fraction is not None and self.sensing_dim is not None:
            raise InvalidSpecError("mask and dense sensing are mutually exclusive")


# ---------------------------------------------------------------------------
# generation

@dataclass
class GeneratedProblem:
    """Full output of the generator, including pieces the Problem drops.

    The sensing matrix, if any, is op.S. A completion mask is folded into W
    and F, both zero off the observed set; noise is the full draw, observed
    or not, so noise_norm does not depend on the mask.
    """

    spec: SyntheticSpec
    op: object
    F: np.ndarray
    W: np.ndarray
    ground_truth: np.ndarray
    noise: np.ndarray

    @property
    def noise_norm(self):
        # squares that overflow give an infinite norm, which Problem refuses
        # as a tau
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return float(np.linalg.norm(self.noise))

    def problem(self, tau):
        return Problem(self.op, self.F, self.W, tau)


def _support(rng, m, n, fraction):
    """Exactly floor(fraction * m * n) entry indices, chosen without replacement."""
    count = int(np.floor(fraction * m * n))
    flat = rng.permutation(m * n)[:count]
    sel = np.zeros(m * n, dtype=bool)
    sel[flat] = True
    return sel.reshape(m, n)


def _make_noise(rng, spec, shape, ground_truth):
    m, n = shape
    if isinstance(spec.noise, GaussianScaled):
        S = rng.standard_normal(shape)
        if spec.noise.sparsity is not None:
            S = S * _support(rng, m, n, spec.noise.sparsity)
        eta = spec.noise.eta_factor * float(np.max(ground_truth))
        return eta * S
    if isinstance(spec.noise, SparseLarge):
        S = rng.uniform(spec.noise.low, spec.noise.high, size=shape)
        return S * _support(rng, m, n, spec.noise.sparsity)
    if isinstance(spec.noise, AdditiveGaussian):
        return spec.noise.sigma * rng.standard_normal(shape)
    raise InvalidSpecError(f"unknown noise variant {spec.noise!r}")


def _make_weights(rng, spec, shape):
    m, n = shape
    if isinstance(spec.weights, AllOnes):
        return np.ones(shape)
    if isinstance(spec.weights, UniformInt):
        return rng.integers(spec.weights.w_min, spec.weights.w_max + 1,
                            size=shape).astype(float)
    if isinstance(spec.weights, LargeOnSupport):
        W = np.ones(shape)
        sel = _support(rng, m, n, spec.weights.fraction)
        W[sel] = rng.uniform(spec.weights.w_min, spec.weights.w_max,
                             size=int(sel.sum()))
        return W
    raise InvalidSpecError(f"unknown weight variant {spec.weights!r}")


def generate_full(spec):
    """Generate one instance, retaining the ground truth and the noise.

    Draw order is fixed (factors, mask/sensing, noise, weights) so a given
    (spec, seed) always produces identical output. A mask multiplies F and
    the drawn weights.
    """
    # a draw that overflows leaves non-finite entries in F, which Problem and
    # the CLI's writer refuse, so numpy does not warn about it first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rng = np.random.default_rng(spec.seed)
        m, n = spec.m, spec.n
        A = rng.standard_normal((m, spec.rank))
        B = rng.standard_normal((spec.rank, n))
        X = A @ B

        if spec.sensing_dim is not None:
            # 1/sqrt(d) scaling makes the sensing map a near-isometry, so
            # measurement and domain scales match
            d = spec.sensing_dim
            op = DenseSensing(rng.standard_normal((d, m * n)) / np.sqrt(d), (m, n))
        else:
            op = Identity((m, n))
        mask = 1.0
        if spec.mask_fraction is not None:
            mask = (rng.random((m, n)) < spec.mask_fraction).astype(float)
        noise = _make_noise(rng, spec, op.codomain_shape, X)
        F = (op.apply(X) + noise) * mask

        W = _make_weights(rng, spec, op.codomain_shape) * mask
        return GeneratedProblem(spec, op, F, W, X, noise)


# ---------------------------------------------------------------------------
# metrics

def rmse(F, X):
    """Root mean squared entrywise error |F - X| / sqrt(mn)."""
    F = as_matrix(F, "F")
    X = as_matrix(X, "X")
    if F.shape != X.shape:
        raise DimensionError(f"shape mismatch: {F.shape} vs {X.shape}")
    return float(np.linalg.norm(F - X)) / np.sqrt(F.size)

