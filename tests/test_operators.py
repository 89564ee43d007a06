import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank import operators
from lowrank.exceptions import DegenerateProblemError, DimensionError
from lowrank.operators import (DenseSensing, Identity, Problem,
                               apply, gradient, lipschitz_bound,
                               loss, objective, unvec, vec)


def random_ops(rng, m=6, n=5, d=12):
    """(operator, mask) pairs: identity, completion, dense sensing.

    Completion is the identity whose weights carry a 0/1 mask, so a test
    multiplies its W by the mask.
    """
    return [make_op(kind, rng, m, n, d) for kind in ("identity", "mask", "sensing")]


def make_op(kind, rng, m, n, d):
    """The operator of `kind` and the 0/1 mask (or 1.0) its weights carry."""
    if kind == "sensing":
        return DenseSensing(rng.standard_normal((d, m * n)), (m, n)), 1.0
    mask = 1.0
    if kind == "mask":
        mask = (rng.random((m, n)) < 0.6).astype(float)
        mask.flat[0] = 1.0
    return Identity((m, n)), mask


def test_vec_is_column_stacking():
    X = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(X), [[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(unvec(vec(X), (2, 2)), X)


def test_apply_identity():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(apply(Identity((4, 3)), X), X)


def test_apply_dense_sensing_identity_rows():
    # S = I picks out vec(X)
    X = np.arange(6.0).reshape(2, 3)
    op = DenseSensing(np.eye(6), (2, 3))
    np.testing.assert_array_equal(apply(op, X), vec(X))


def test_sensing_rejects_wrong_columns():
    with pytest.raises(DimensionError):
        DenseSensing(np.ones((3, 5)), (2, 3))


def test_apply_shape_check():
    with pytest.raises(DimensionError):
        apply(Identity((3, 3)), np.ones((2, 2)))


def test_adjoint_inner_product_identity():
    # <op(X), R> == <X, op.adjoint(R)> for every variant
    rng = np.random.default_rng(1)
    for op, mask in random_ops(rng):
        for _ in range(50):
            X = rng.standard_normal(op.domain_shape)
            R = rng.standard_normal(op.codomain_shape) * mask
            lhs = float(np.sum(apply(op, X) * R))
            rhs = float(np.sum(X * op.adjoint(R)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def wide(rng, shape):
    """Signed entries whose magnitudes spread over 1e-5 to 1e5."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-5.0, 5.0, size=shape)


def weights_with_zeros(rng, shape):
    """Non-integer nonnegative weights, about a third of them zero, not all zero."""
    W = rng.uniform(0.0, 3.0, size=shape) * (rng.random(shape) < 0.7)
    W.flat[0] = 0.5
    return W


instances = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(instances, st.booleans())
def test_gradient_matches_adjoint_apply_form(instance, masked):
    m, n, seed = instance
    rng = np.random.default_rng(seed)
    op, mask = make_op("mask" if masked else "identity", rng, m, n, 0)
    p = Problem(op, wide(rng, (m, n)) * mask, weights_with_zeros(rng, (m, n)) * mask, 1.0)
    X = wide(rng, (m, n))
    textbook = op.adjoint((apply(op, X) - p.F) * p.W_tilde)
    assert np.array_equal(gradient(p, X), textbook)


@settings(max_examples=300, deadline=None)
@given(instances, st.integers(1, 15), st.sampled_from(["identity", "mask", "sensing"]))
def test_adjointness_property(instance, d, kind):
    m, n, seed = instance
    rng = np.random.default_rng(seed)
    op, mask = make_op(kind, rng, m, n, d)
    X = wide(rng, op.domain_shape)
    R = wide(rng, op.codomain_shape) * mask
    lhs = float(np.sum(apply(op, X) * R))
    rhs = float(np.sum(X * op.adjoint(R)))
    # relative to the Cauchy-Schwarz bound |<A X, R>| <= |A| |X| |R|
    a_norm = np.linalg.norm(op.S) if kind == "sensing" else 1.0
    assert abs(lhs - rhs) <= 1e-12 * a_norm * np.linalg.norm(X) * np.linalg.norm(R)


def test_problem_caches_the_gradient_weights():
    # W_tilde = W . W is cached once, and the gradient is
    # op*((op(X) - F) . W_tilde) bit for bit for each operator
    rng = np.random.default_rng(7)
    for op, mask in random_ops(rng, 4, 3, 5):
        shape = op.codomain_shape
        W = rng.uniform(0.0, 2.0, size=shape) * mask
        p = Problem(op, wide(rng, shape) * mask, W, 1.0)
        assert np.array_equal(p.W_tilde, W * W)
        X = wide(rng, op.domain_shape)
        textbook = op.adjoint((op.apply(X) - p.F) * p.W_tilde)
        assert np.array_equal(gradient(p, X), textbook)


def test_sensing_norm_is_computed_once_per_operator(monkeypatch):
    # through the module name, so a wrapper installed on
    # linalg.spectral_norm sees every call
    calls = []
    spectral_norm = operators.linalg.spectral_norm

    def counted(A, *args, **kwargs):
        calls.append(A)
        return spectral_norm(A, *args, **kwargs)

    monkeypatch.setattr(operators.linalg, "spectral_norm", counted)
    rng = np.random.default_rng(8)
    ops = [DenseSensing(rng.standard_normal((12, 30)), (6, 5)) for _ in range(2)]
    for i, op in enumerate(ops, 1):
        p = Problem(op, np.zeros((12, 1)), np.ones((12, 1)), 1.0)
        norm = op.operator_norm
        assert lipschitz_bound(p) == norm ** 2
        assert op.operator_norm == norm
        assert len(calls) == i and calls[-1] is op.S


def test_gradient_shape_check():
    p = Problem(Identity((3, 3)), np.ones((3, 3)), np.ones((3, 3)), 1.0)
    with pytest.raises(DimensionError):
        gradient(p, np.ones((3, 2)))
    with pytest.raises(ValueError):
        gradient(p, np.full((3, 3), np.inf))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_problem_validation():
    F = np.ones((3, 3))
    with pytest.raises(ValueError):
        Problem(Identity((3, 3)), F, -np.ones((3, 3)), 1.0)
    with pytest.raises(DegenerateProblemError):
        Problem(Identity((3, 3)), F, np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        Problem(Identity((3, 3)), F, np.ones((3, 3)), 0.0)
    with pytest.raises(DimensionError):
        Problem(Identity((3, 3)), np.ones((2, 3)), np.ones((3, 3)), 1.0)
    # squares of 1e200 overflow and squares of 1e-200 underflow to zero: the
    # first was accepted with L = inf, so gamma = 0, and the second was
    # refused by lipschitz_bound as a zero weight matrix, which W is not
    F = np.ones((20, 20))
    with pytest.raises(DegenerateProblemError, match=r"^squared weights W \. W overflow"):
        Problem(Identity((20, 20)), F, np.full((20, 20), 1e200), 1.0)
    with pytest.raises(DegenerateProblemError,
                       match=r"^squared weights W \. W are identically zero"):
        Problem(Identity((20, 20)), F, np.full((20, 20), 1e-200), 1.0)
    # one overflowing square is enough
    W = np.ones((20, 20))
    W[3, 4] = 1e160
    with pytest.raises(DegenerateProblemError, match="overflow"):
        Problem(Identity((20, 20)), F, W, 1.0)


def test_gradient_identity_unit_weights():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((5, 4))
    X = rng.standard_normal((5, 4))
    p = Problem(Identity((5, 4)), F, np.ones((5, 4)), 1.0)
    np.testing.assert_allclose(gradient(p, X), X - F, atol=1e-14)


def test_gradient_zero_at_data():
    rng = np.random.default_rng(3)
    for op, mask in random_ops(rng):
        X = rng.standard_normal(op.domain_shape)
        F = apply(op, X) * mask
        W = rng.uniform(0.5, 2.0, size=op.codomain_shape) * mask
        p = Problem(op, F, W, 1.0)
        assert np.linalg.norm(gradient(p, X)) <= 1e-12


def test_gradient_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for op, mask in random_ops(rng, m=4, n=3, d=7):
        X = rng.standard_normal(op.domain_shape)
        F = rng.standard_normal(op.codomain_shape) * mask
        W = rng.uniform(0.5, 3.0, size=op.codomain_shape) * mask
        p = Problem(op, F, W, 1.0)
        G = gradient(p, X)
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                E = np.zeros_like(X)
                E[i, j] = h
                fd = (loss(p, X + E) - loss(p, X - E)) / (2 * h)
                assert abs(G[i, j] - fd) <= 1e-5 * max(abs(fd), 1.0)


def test_lipschitz_identity_unit():
    p = Problem(Identity((4, 4)), np.ones((4, 4)), np.ones((4, 4)), 1.0)
    assert lipschitz_bound(p) == pytest.approx(1.0)


def test_lipschitz_scales_with_max_weight():
    W = np.ones((4, 4))
    W[1, 2] = 3.0
    p = Problem(Identity((4, 4)), np.ones((4, 4)), W, 1.0)
    assert lipschitz_bound(p) == pytest.approx(9.0)


@settings(max_examples=300, deadline=None)
@given(instances, st.sampled_from(["identity", "mask", "sensing"]), st.floats(0.0, 3.0),
       st.booleans())
def test_lipschitz_sampled_inequality(instance, kind, spread, tight):
    # weights spread over w_max / w_min = 10^spread, up to 1e3; a tight case
    # steps along the top eigenvector of the gradient's linear part
    # H = A* diag(W~) A, where identity reaches the bound exactly
    m, n, seed = instance
    rng = np.random.default_rng(seed)
    op, mask = make_op(kind, rng, m, n, int(rng.integers(1, 16)))
    W = 10.0 ** rng.uniform(0.0, spread, size=op.codomain_shape) * mask
    p = Problem(op, rng.standard_normal(op.codomain_shape), W, 1.0)
    L = lipschitz_bound(p)
    X = rng.standard_normal(op.domain_shape)
    Y = rng.standard_normal(op.domain_shape)
    if tight:
        H = np.column_stack([vec(op.adjoint(p.W_tilde * apply(op, unvec(e, (m, n)))))
                             for e in np.eye(m * n)])
        Y = X + unvec(np.linalg.eigh(H)[1][:, -1], (m, n))
    lhs = np.linalg.norm(gradient(p, X) - gradient(p, Y))
    assert lhs <= L * np.linalg.norm(X - Y) * (1 + 1e-10)


def test_lipschitz_bound_is_an_upper_bound_for_sensing():
    # L = sigma_1(S)^2 * max W_tilde must not fall short; a spectral norm
    # read from below would make the step 1/L too long
    rng = np.random.default_rng(300)
    op = DenseSensing(rng.standard_normal((300, 900)), (30, 30))
    W = rng.uniform(0.5, 2.0, size=op.codomain_shape)
    p = Problem(op, rng.standard_normal(op.codomain_shape), W, 1.0)
    s1 = np.linalg.svd(op.S, compute_uv=False)[0]
    assert lipschitz_bound(p) >= s1 ** 2 * np.max(W * W)


def test_objective_zero():
    p = Problem(Identity((3, 3)), np.zeros((3, 3)), np.ones((3, 3)), 2.0)
    assert objective(p, np.zeros((3, 3))) == 0.0


def test_objective_rank_one():
    # X = F rank one: loss vanishes, nuclear norm is the single singular value
    u = np.array([[3.0], [4.0]])
    v = np.array([[1.0, 0.0]])
    X = u @ v
    p = Problem(Identity((2, 2)), X, np.ones((2, 2)), 0.5)
    assert objective(p, X) == pytest.approx(0.5 * 5.0, rel=1e-12)


def test_objective_matches_direct_formula():
    rng = np.random.default_rng(6)
    for op, mask in random_ops(rng):
        X = rng.standard_normal(op.domain_shape)
        F = rng.standard_normal(op.codomain_shape) * mask
        W = rng.uniform(0.5, 2.0, size=op.codomain_shape) * mask
        p = Problem(op, F, W, 1.7)
        R = (apply(op, X) - F) * W
        direct = 0.5 * np.sum(R**2) + 1.7 * np.sum(np.linalg.svd(X, compute_uv=False))
        assert objective(p, X) == pytest.approx(direct, rel=1e-12)
