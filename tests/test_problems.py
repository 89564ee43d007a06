import numpy as np
import pytest

from lowrank import problems
from lowrank.exceptions import DegenerateProblemError, DimensionError, InvalidSpecError
from lowrank.operators import DenseSensing, Identity
from lowrank.problems import (AdditiveGaussian, AllOnes, GaussianScaled,
                              LargeOnSupport, SparseLarge, SyntheticSpec,
                              UniformInt, generate_full, rmse)

from helpers import condition_number_sweep, fidelity


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(10, 10, 10)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(10, 10, 0)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(0, 10, 1)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(10, 10, 2, mask_fraction=1.5)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(10, 10, 2, mask_fraction=0.5, sensing_dim=20)
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(10, 10, 2, weights=UniformInt(5, 2))
    # a fraction or a bool used to fail only inside generate_full
    for field, value in (("m", 12.5), ("rank", True), ("sensing_dim", 30.5), ("seed", 2.5),
                         ("seed", True)):
        with pytest.raises(InvalidSpecError, match=f"{field} must be >= [01] and an integer"):
            SyntheticSpec(**dict({"m": 12, "n": 10, "rank": 2}, **{field: value}))
    # each variant checks its own fields; a negative or fractional bound, a
    # NaN w_min and a NaN sigma used to fail only inside generate_full, or
    # not at all
    nan, inf = float("nan"), float("inf")
    for make, message in (
            (lambda: UniformInt(-5, 10), "w_min must be >= 0 and an integer"),
            (lambda: UniformInt(2.5, 10), "w_min must be >= 0 and an integer"),
            (lambda: UniformInt(0, 0), "w_max must be >= 1 and an integer"),
            (lambda: UniformInt(1, 10.0), "w_max must be >= 1 and an integer"),
            (lambda: UniformInt(1, 2**63 - 1), "w_max must be below 2"),
            (lambda: LargeOnSupport(0.1, nan, 10.0), "w_min must be finite and >= 0"),
            (lambda: LargeOnSupport(0.1, -1.0, 10.0), "w_min must be finite and >= 0"),
            (lambda: LargeOnSupport(0.1, 5.0, inf), "w_max must be finite"),
            (lambda: LargeOnSupport(0.1, 5.0, 4.0), "w_min must not exceed w_max"),
            (lambda: LargeOnSupport(1.0), "fraction must lie in"),
            (lambda: AdditiveGaussian(nan), "sigma must be finite and >= 0"),
            (lambda: AdditiveGaussian(-0.1), "sigma must be finite and >= 0"),
            (lambda: GaussianScaled(inf), "eta_factor must be finite and >= 0"),
            (lambda: GaussianScaled(-1.0), "eta_factor must be finite and >= 0"),
            (lambda: GaussianScaled(0.2, 0.0), "sparsity must lie in"),
            (lambda: SparseLarge(5.0, 1.0), "low must not exceed high"),
            (lambda: SparseLarge(-inf, 1.0), "low must be finite"),
            (lambda: SparseLarge(0.0, nan), "high must be finite"),
            # numpy's uniform draw raised OverflowError, a traceback from the CLI
            (lambda: SparseLarge(-1e308, 1e308), r"high - low must be finite"),
            (lambda: SparseLarge(sparsity=1.0), "sparsity must lie in")):
        with pytest.raises(InvalidSpecError, match=message):
            make()
    # generation refuses a noise or weights object of no known variant
    for field, what in (("noise", "noise"), ("weights", "weight")):
        with pytest.raises(InvalidSpecError, match=f"unknown {what} variant"):
            generate_full(SyntheticSpec(10, 10, 2, **{field: object()}))
    # every bound at the edge of its range is accepted
    UniformInt(0, 1), UniformInt(3, 3), UniformInt(1, 2**63 - 2), LargeOnSupport(0.5, 0.0, 0.0)
    AdditiveGaussian(0.0), GaussianScaled(0.0), SparseLarge(2.0, 2.0, 0.5)


def test_generator_is_deterministic():
    spec = SyntheticSpec(12, 14, 2, noise=AdditiveGaussian(0.5),
                         weights=UniformInt(1, 10), mask_fraction=0.5, seed=3)
    g1 = generate_full(spec)
    g2 = generate_full(spec)
    np.testing.assert_array_equal(g1.F, g2.F)
    np.testing.assert_array_equal(g1.W, g2.W)
    np.testing.assert_array_equal(g1.ground_truth, g2.ground_truth)
    np.testing.assert_array_equal(g1.noise, g2.noise)
    g3 = generate_full(problems.SyntheticSpec(12, 14, 2, noise=AdditiveGaussian(0.5),
                                              weights=UniformInt(1, 10),
                                              mask_fraction=0.5, seed=4))
    assert np.any(g3.F != g1.F)


def test_ground_truth_rank_exact():
    for rank in (1, 4, 9):
        gen = generate_full(SyntheticSpec(25, 30, rank, seed=rank))
        assert np.linalg.matrix_rank(gen.ground_truth) == rank


def test_operator_selection():
    assert isinstance(generate_full(SyntheticSpec(8, 8, 2)).op, Identity)
    assert isinstance(generate_full(SyntheticSpec(8, 8, 2, mask_fraction=0.5)).op, Identity)
    assert isinstance(
        generate_full(SyntheticSpec(8, 8, 2, sensing_dim=30)).op, DenseSensing
    )


def test_mask_is_folded_into_f_and_w():
    spec = SyntheticSpec(12, 9, 2, noise=AdditiveGaussian(0.5), weights=UniformInt(1, 10),
                         mask_fraction=0.4, seed=5)
    gen = generate_full(spec)
    # redraw the mask: it follows the two factors in the draw order
    rng = np.random.default_rng(spec.seed)
    rng.standard_normal((spec.m, spec.rank))
    rng.standard_normal((spec.rank, spec.n))
    mask = rng.random((spec.m, spec.n)) < spec.mask_fraction
    assert 0 < mask.sum() < mask.size
    assert np.all(gen.F[~mask] == 0.0) and np.all(gen.W[~mask] == 0.0)
    assert np.all(gen.W[mask] >= 1.0)
    np.testing.assert_array_equal(gen.F[mask], (gen.ground_truth + gen.noise)[mask])
    # the noise is the full draw, so the noise-norm tau presets ignore the mask
    assert np.all(gen.noise[~mask] != 0.0)


def test_instance_with_no_observed_entry_is_degenerate():
    gen = generate_full(SyntheticSpec(3, 3, 1, mask_fraction=0.01, seed=1))
    assert not np.any(gen.W)
    with pytest.raises(DegenerateProblemError):
        gen.problem(1.0)


def test_mask_density_close_to_requested():
    gen = generate_full(SyntheticSpec(2000, 2000, 4, mask_fraction=0.5, seed=0))
    density = float(np.mean(gen.W != 0))
    assert abs(density - 0.5) <= 0.01 * 0.5


def test_uniform_int_weights_in_range():
    gen = generate_full(SyntheticSpec(50, 50, 2, weights=UniformInt(1, 10), seed=2))
    assert gen.W.min() >= 1.0 and gen.W.max() <= 10.0
    assert np.all(gen.W == np.round(gen.W))
    # all ten values should appear on 2500 draws
    assert len(np.unique(gen.W)) == 10


def test_large_on_support_weights():
    gen = generate_full(
        SyntheticSpec(40, 40, 2, weights=LargeOnSupport(0.1, 5.0, 10.0), seed=3)
    )
    big = gen.W > 1.0
    assert int(big.sum()) == int(np.floor(0.1 * 1600))
    assert np.all(gen.W[~big] == 1.0)
    assert gen.W[big].min() >= 5.0 and gen.W[big].max() <= 10.0


def test_gaussian_scaled_noise_magnitude():
    spec = SyntheticSpec(60, 60, 3, noise=GaussianScaled(eta_factor=0.2), seed=4)
    gen = generate_full(spec)
    eta = 0.2 * float(np.max(gen.ground_truth))
    assert np.std(gen.noise) == pytest.approx(eta, rel=0.1)


def test_gaussian_scaled_sparse_support():
    spec = SyntheticSpec(40, 40, 3, noise=GaussianScaled(0.2, sparsity=0.1), seed=5)
    gen = generate_full(spec)
    assert int(np.count_nonzero(gen.noise)) == int(np.floor(0.1 * 1600))


def test_sparse_large_noise():
    spec = SyntheticSpec(50, 50, 3, noise=SparseLarge(-50, 50, 0.1), seed=6)
    gen = generate_full(spec)
    nz = gen.noise[gen.noise != 0.0]
    assert len(nz) == int(np.floor(0.1 * 2500))
    assert nz.min() >= -50.0 and nz.max() <= 50.0


def test_sensing_measurements_consistent():
    spec = SyntheticSpec(10, 10, 2, noise=AdditiveGaussian(0.1),
                         sensing_dim=40, seed=7)
    gen = generate_full(spec)
    assert gen.op.S.shape == (40, 100)
    assert gen.F.shape == (40, 1)
    from lowrank.operators import apply
    np.testing.assert_allclose(
        gen.F, apply(gen.op, gen.ground_truth) + gen.noise, atol=1e-12
    )


def test_generated_problem_carries_tau():
    gen = generate_full(SyntheticSpec(10, 12, 2, seed=8))
    p = gen.problem(0.5)
    assert p.tau == 0.5
    assert p.domain_shape == (10, 12)
    assert gen.ground_truth.shape == (10, 12)


def test_rmse_values():
    assert rmse(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert rmse(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(1.0)
    F = np.array([[3.0, 0.0], [0.0, 0.0]])
    assert rmse(F, np.zeros((2, 2))) == pytest.approx(1.5)
    with pytest.raises(DimensionError):
        rmse(np.ones((2, 2)), np.ones((2, 3)))


def test_fidelity_inside_and_outside():
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    X = np.zeros((2, 2))
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert fidelity(F, X, W) == pytest.approx(np.sqrt(1 + 16) / np.sqrt(2))
    assert fidelity(F, X, W, inside=False) == pytest.approx(np.sqrt(4 + 9) / np.sqrt(2))


def test_fidelity_error_cases():
    F = np.ones((2, 2))
    with pytest.raises(ValueError, match="binary"):
        fidelity(F, F, 2.0 * np.ones((2, 2)), inside=False)
    with pytest.raises(ValueError, match="identically zero"):
        fidelity(F, F, np.ones((2, 2)), inside=False)


def test_condition_number_sweep_basic():
    base = SyntheticSpec(30, 30, 3, weights=UniformInt(1, 10), seed=1)
    out = condition_number_sweep(base, [10, 100], tau=lambda w: 1e-2 / w**2)
    assert len(out) == 2
    (p1, k1), (p2, k2) = out
    assert p1.tau == pytest.approx(1e-4)
    assert p2.tau == pytest.approx(1e-6)
    assert 1.0 < k1 < np.inf and 1.0 < k2 < np.inf
    assert p2.W.max() > p1.W.max()


def test_condition_number_sweep_singular_weight():
    # w_max = 1 gives the all-ones rank-1 weight matrix, kappa = inf
    base = SyntheticSpec(20, 20, 2, weights=UniformInt(1, 5), seed=2)
    out = condition_number_sweep(base, [1])
    assert out[0][1] == np.inf


def test_condition_number_sweep_requires_uniform_int():
    base = SyntheticSpec(20, 20, 2, weights=AllOnes(), seed=0)
    with pytest.raises(InvalidSpecError):
        condition_number_sweep(base, [10])
