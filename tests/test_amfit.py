import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank import problems
from lowrank.amfit import (FactorPair, FixedI, IncreasingI, Tolerance,
                           inner_solve, random_pair, update_U, update_V)
from lowrank.exceptions import DimensionError, NonFiniteError
from lowrank.prox import svt
from lowrank.solver import (Continuation, SolverConfig, Stopping,
                            prograamme_solve)

from helpers import inner_objective


def test_factor_pair_shapes():
    with pytest.raises(DimensionError):
        FactorPair(np.ones((3, 2)), np.ones((3, 4)))


def test_factor_pair_product_and_zero():
    pair = FactorPair(np.zeros((3, 2)), np.ones((2, 4)))
    assert pair.is_zero()
    assert pair.r == 2
    np.testing.assert_array_equal(pair.product(), np.zeros((3, 4)))


def test_random_pair_scale():
    rng = np.random.default_rng(0)
    pair = random_pair(200, 100, 16, rng)
    # entries are N(0, 1/r); column norms of U concentrate near sqrt(m/r)
    assert np.std(pair.U) == pytest.approx(0.25, rel=0.05)
    assert not pair.is_zero()


def test_update_U_zero_V():
    Z = np.ones((3, 4))
    U = update_U(Z, np.zeros((2, 4)), 0.5)
    np.testing.assert_array_equal(U, np.zeros((3, 2)))


def test_update_U_identity_V():
    # with V = I the minimizer is Z / (1 + mu)
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((5, 4))
    U = update_U(Z, np.eye(4), 0.25)
    np.testing.assert_allclose(U, Z / 1.25, atol=1e-12)


def test_update_V_identity_U():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((4, 6))
    V = update_V(Z, np.eye(4), 0.5)
    np.testing.assert_allclose(V, Z / 1.5, atol=1e-12)


def test_updates_are_exact_minimizers():
    # perturbing the updated factor never lowers the inner objective
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((6, 5))
    V = rng.standard_normal((3, 5))
    mu = 0.8
    U = update_U(Z, V, mu)
    base = inner_objective(Z, U, V, mu)
    for _ in range(20):
        assert base <= inner_objective(Z, U + 1e-3 * rng.standard_normal(U.shape), V, mu) + 1e-12
    U2 = rng.standard_normal((6, 3))
    V2 = update_V(Z, U2, mu)
    base = inner_objective(Z, U2, V2, mu)
    for _ in range(20):
        assert base <= inner_objective(Z, U2, V2 + 1e-3 * rng.standard_normal(V2.shape), mu) + 1e-12


def test_update_rejects_bad_mu():
    with pytest.raises(ValueError):
        update_U(np.ones((2, 2)), np.ones((1, 2)), 0.0)


def test_inner_objective_nonincreasing():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((8, 7))
    pair = random_pair(8, 7, 4, rng)
    mu = 0.3
    prev = inner_objective(Z, pair.U, pair.V, mu)
    for _ in range(10):
        pair, _ = inner_solve(Z, mu, pair, FixedI(1))
        cur = inner_objective(Z, pair.U, pair.V, mu)
        assert cur <= prev + 1e-12
        prev = cur


@st.composite
def svt_targets(draw):
    """(Z, mu, k, rng): an m x n target with k singular values above mu.

    Every singular value keeps a margin from mu (at least 1.5 mu above it or
    at most 0.6 mu), since the alternating passes converge at a rate set by
    that gap and a Tolerance budget cannot reach SVT across a vanishing one.
    """
    m = draw(st.integers(2, 16))
    n = draw(st.integers(2, 16))
    p = min(m, n)
    k = draw(st.integers(1, p))
    mu = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = mu * np.concatenate([rng.uniform(1.5, 20.0, k), rng.uniform(0.0, 0.6, p - k)])
    P = np.linalg.qr(rng.standard_normal((m, p)))[0]
    Q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    return (P * s) @ Q.T, mu, k, rng


@settings(max_examples=60, deadline=None)
@given(svt_targets(), st.sampled_from([0, 4]))
def test_inner_solve_reaches_svt(case, extra):
    # with a budget of rank(SVT(Z, mu)) or more, the product UV of the
    # inner minimizer is the SVT of Z
    Z, mu, k, rng = case
    target = svt(Z, mu)
    rank = np.linalg.matrix_rank(target)
    assert rank == k
    pair = random_pair(*Z.shape, rank + extra, rng)
    pair, _ = inner_solve(Z, mu, pair, Tolerance(1e-13, 1000))
    assert np.linalg.norm(pair.product() - target) <= 1e-10 * max(np.linalg.norm(Z), 1.0)


def test_inner_solve_shrinks_zero_target():
    rng = np.random.default_rng(6)
    pair = random_pair(5, 5, 3, rng)
    pair, _ = inner_solve(np.zeros((5, 5)), 1.0, pair, FixedI(50))
    assert np.linalg.norm(pair.product()) <= 1e-10


def test_fixed_policy_pass_count():
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((6, 6))
    pair = random_pair(6, 6, 2, rng)
    _, passes = inner_solve(Z, 0.5, pair, FixedI(3))
    assert passes == 3


def test_tolerance_policy_caps_passes():
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((6, 6))
    pair = random_pair(6, 6, 2, rng)
    _, passes = inner_solve(Z, 0.5, pair, Tolerance(0.0, 7))
    assert passes == 7
    _, passes = inner_solve(Z, 0.5, pair, Tolerance(1e10, 7))
    assert passes == 1


def test_rank_bounded_by_budget():
    rng = np.random.default_rng(9)
    Z = rng.standard_normal((12, 10))
    pair = random_pair(12, 10, 3, rng)
    pair, _ = inner_solve(Z, 0.1, pair, Tolerance(1e-10, 200))
    assert np.linalg.matrix_rank(pair.product()) <= 3


def test_increasing_policy_resolution():
    pol = IncreasingI(start=1, every=50)
    start = random_pair(4, 4, 2, np.random.default_rng(13))
    for k, passes in ((1, 1), (50, 1), (51, 2), (101, 3)):
        assert inner_solve(np.ones((4, 4)), 0.5, start, pol, k)[1] == passes


@pytest.mark.parametrize("cls, kwargs", [(FixedI, {"passes": 0}),
                                         (Tolerance, {"max_inner": 0}),
                                         (IncreasingI, {"start": 0}),
                                         (IncreasingI, {"every": 0}),
                                         (FixedI, {"passes": 2.5}),
                                         (FixedI, {"passes": True}),
                                         (Tolerance, {"max_inner": float("inf")}),
                                         (IncreasingI, {"start": 1.5}),
                                         (IncreasingI, {"every": True})],
                         ids=["passes", "max_inner", "start", "every", "passes-fraction",
                              "passes-bool", "max_inner-inf", "start-fraction", "every-bool"])
def test_policies_reject_empty_budgets(cls, kwargs):
    # FixedI(0) would run no pass yet report a binding budget; every=0
    # divides by zero when the solver resolves the policy; a fraction, a
    # bool or inf is no count of passes
    with pytest.raises(ValueError, match=">= 1"):
        cls(**kwargs)


def test_inner_solve_shape_check():
    rng = np.random.default_rng(10)
    pair = random_pair(4, 4, 2, rng)
    with pytest.raises(DimensionError):
        inner_solve(np.ones((5, 4)), 0.5, pair, FixedI(1))
    # an object of no known policy runs no pass
    with pytest.raises(TypeError, match="unknown inner policy"):
        inner_solve(np.ones((4, 4)), 0.5, pair, object())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inner_solve_overflow_raises_non_finite():
    # Z is finite, but the first U has entries near 1e300, so the Gram
    # U^T U of the V update overflows
    rng = np.random.default_rng(12)
    Z = np.full((20, 15), 1e300)
    with pytest.raises(NonFiniteError, match="G contains non-finite entries"):
        inner_solve(Z, 0.5, random_pair(20, 15, 4, rng), FixedI(1))


def test_inner_loop_stays_off_scipy_linalg(monkeypatch):
    # scipy ships a second OpenBLAS with its own thread pool; alternating
    # its calls with numpy's products in one update makes the two pools
    # starve each other, so the factored loop must not reach scipy.linalg
    scipy_linalg = pytest.importorskip("scipy.linalg")

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg called inside the factored loop")

    for name in ("cho_factor", "cho_solve", "cholesky", "solve",
                 "solve_triangular", "lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy_linalg, name, forbidden)

    rng = np.random.default_rng(11)
    Z = rng.standard_normal((20, 15))
    for policy in (FixedI(3), Tolerance(1e-8, 50)):
        pair, _ = inner_solve(Z, 0.5, random_pair(20, 15, 4, rng), policy)
        assert np.all(np.isfinite(pair.product()))

    spec = problems.SyntheticSpec(30, 30, 3, noise=problems.AdditiveGaussian(0.1),
                                  mask_fraction=0.5, seed=1)
    gen = problems.generate_full(spec)
    trace = prograamme_solve(
        gen.problem(gen.noise_norm),
        SolverConfig(r=10, inner=FixedI(1), stop=Stopping(1e-8, max_iter=200),
                     continuation=Continuation(enabled=True)),
        seed=1,
    )
    assert trace.iterations >= 1
    assert np.all(np.isfinite(trace.X))
