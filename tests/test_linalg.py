import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank import linalg
from lowrank.exceptions import (DefinitenessError, DimensionError, NonFiniteError,
                                 NumericalError)


def test_spd_solve_identity():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 3))
    np.testing.assert_allclose(linalg.spd_solve(np.eye(4), B), B, atol=1e-14)


def test_spd_solve_diagonal():
    G = np.diag([2.0, 4.0])
    B = np.array([[2.0], [8.0]])
    np.testing.assert_allclose(linalg.spd_solve(G, B), [[1.0], [2.0]], atol=1e-14)


def test_spd_solve_multiply_back():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        G = M.T @ M + np.eye(6)
        B = rng.standard_normal((6, 4))
        Y = linalg.spd_solve(G, B)
        assert np.linalg.norm(G @ Y - B) <= 1e-10 * np.linalg.norm(B)


def test_spd_solve_ill_conditioned():
    # condition numbers up to 1e6
    rng = np.random.default_rng(4)
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        G = Q @ np.diag(np.logspace(0, 6, 8)) @ Q.T
        G = 0.5 * (G + G.T)
        B = rng.standard_normal((8, 2))
        Y = linalg.spd_solve(G, B)
        assert np.linalg.norm(G @ Y - B) <= 1e-8 * np.linalg.norm(B)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        linalg.spd_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))


EPS = np.finfo(float).eps
LEAF = linalg._INV_LEAF


def _with_eigenvalues(rng, d):
    """A symmetric matrix with eigenvalues d and random eigenvectors."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(d), len(d))))
    G = (Q * d) @ Q.T
    return 0.5 * (G + G.T)


def _refined_solve(G, B):
    """G^-1 B to about working precision, by LU and refinement whose
    residuals are formed in extended precision."""
    Y = np.linalg.solve(G, B)
    Gx = G.astype(np.longdouble)
    for _ in range(3):
        Y = Y + np.linalg.solve(G, (B - Gx @ Y).astype(float))
    return Y


# r covers both sides of the leaf of the recursive inverse and an odd split
sizes = st.one_of(st.integers(1, 160), st.sampled_from([LEAF, LEAF + 1, 2 * LEAF + 1]))


@st.composite
def spd_systems(draw):
    r = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = np.logspace(0, -draw(st.integers(0, 12)), r)
    G = _with_eigenvalues(rng, d)
    B = rng.standard_normal((r, draw(st.integers(1, 70))))
    if draw(st.booleans()):
        # right-hand sides along the top of G's spectrum, as V Z^T is for
        # G = V V^T + mu I; here an explicit inverse of G loses its accuracy
        B = G @ B
    return G * 10.0 ** draw(st.integers(-50, 50)), B * 10.0 ** draw(st.integers(-50, 50))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="the reference solution needs an extended long double")
@settings(max_examples=200, deadline=None)
@given(spd_systems())
def test_spd_solve_is_as_accurate_as_lu(system):
    G, B = system
    r = G.shape[0]
    Y = linalg.spd_solve(G, B)
    # backward stable: the residual is that of an exact solve of a nearby G
    assert np.linalg.norm(G @ Y - B) <= 4 * r * EPS * np.linalg.norm(G) * np.linalg.norm(Y)
    # forward error within a small factor of LU's, or of the cond(G) eps that
    # bounds it; at r below about 32 LU often lands far under that bound
    exact = _refined_solve(G, B)
    err = np.linalg.norm(Y - exact) / np.linalg.norm(exact)
    lu_err = np.linalg.norm(np.linalg.solve(G, B) - exact) / np.linalg.norm(exact)
    assert err <= 4 * max(lu_err, np.linalg.cond(G) * EPS)


@settings(max_examples=100, deadline=None)
@given(sizes.filter(lambda r: r > 1), st.integers(0, 8), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_spd_solve_rejects_any_negative_direction(r, depth, trailing, seed):
    # one eigenvalue -10^-depth against a top of 1; with `trailing` the
    # negative direction lies wholly in the trailing diagonal block, which a
    # blockwise inverse reaches only through a Schur complement
    rng = np.random.default_rng(seed)
    d = np.logspace(0, -3, r)
    d[rng.integers(r)] = -10.0 ** -depth
    if trailing:
        h = r // 2
        d = np.sort(d)[::-1]
        G = np.zeros((r, r))
        G[:h, :h] = _with_eigenvalues(rng, d[:h])
        G[h:, h:] = _with_eigenvalues(rng, d[h:])
    else:
        G = _with_eigenvalues(rng, d)
    with pytest.raises(DefinitenessError):
        linalg.spd_solve(G, rng.standard_normal((r, 3)))


def test_thin_svd_diagonal():
    _, s, _ = linalg.thin_svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 1.0])


def test_thin_svd_zero():
    _, s, _ = linalg.thin_svd(np.zeros((3, 4)))
    np.testing.assert_array_equal(s, np.zeros(3))


def test_thin_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 5))
    P, s, Qt = linalg.thin_svd(A)
    assert np.linalg.norm((P * s) @ Qt - A) <= 1e-9 * np.linalg.norm(A)
    assert np.linalg.norm(P.T @ P - np.eye(5)) <= 1e-12
    assert np.linalg.norm(Qt @ Qt.T - np.eye(5)) <= 1e-12


def test_thin_svd_reconstruction_sweep():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        A = rng.standard_normal((m, n))
        P, s, Qt = linalg.thin_svd(A)
        assert np.linalg.norm((P * s) @ Qt - A) <= 1e-9 * np.linalg.norm(A)
        assert np.all(np.diff(s) <= 0.0)


def test_numerical_rank_identity():
    assert linalg.numerical_rank(np.eye(5), 1e-6) == 5


def test_numerical_rank_outer_product():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((1, 9))
    assert linalg.numerical_rank(u @ v) == 1


def test_numerical_rank_factor_product():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 30))
    assert linalg.numerical_rank(A) == 4


def test_numerical_rank_scale_invariant():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 7)) @ rng.standard_normal((7, 10))
    for c in (1e-6, 1.0, 1e6):
        assert linalg.numerical_rank(c * A) == linalg.numerical_rank(A)


def test_numerical_rank_zero_matrix():
    assert linalg.numerical_rank(np.zeros((4, 4))) == 0


def test_numerical_rank_bad_tolerance():
    with pytest.raises(ValueError):
        linalg.numerical_rank(np.eye(2), 2.0)


def test_spectral_norm_diagonal():
    assert linalg.spectral_norm(np.diag([5.0, 2.0])) == pytest.approx(5.0, rel=1e-8)


def test_spectral_norm_orthogonal():
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert linalg.spectral_norm(Q) == pytest.approx(1.0, rel=1e-8)


def test_spectral_norm_zero():
    assert linalg.spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((30, 20))
    _, s, _ = linalg.thin_svd(A)
    assert linalg.spectral_norm(A) == pytest.approx(s[0], rel=1e-6)


def test_spectral_norm_below_frobenius():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.standard_normal((7, 9))
        assert linalg.spectral_norm(A) <= np.linalg.norm(A) * (1 + 1e-12)


def _with_singular_values(rng, m, n, s):
    """An m x n matrix with the given singular values and random singular vectors."""
    k = min(m, n)
    P, _ = np.linalg.qr(rng.standard_normal((m, k)))
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (P * np.asarray(s, dtype=float)[:k]) @ Q.T


@st.composite
def spectral_cases(draw):
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(
        ["gaussian", "rank1", "repeated_top", "few_distinct", "small_gap"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    if kind == "gaussian":
        A = rng.standard_normal((m, n))
    elif kind == "rank1":
        A = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    elif kind == "repeated_top":
        A = _with_singular_values(rng, m, n, [2.0] * 3 + list(rng.uniform(0, 1, k)))
    elif kind == "few_distinct":
        A = _with_singular_values(rng, m, n, [3.0] * (k - k // 2) + [1.0] * (k // 2))
    else:
        gap = 10.0 ** draw(st.integers(-8, -2))
        tail = np.sort(rng.uniform(0, 1 - gap, k))[::-1]
        A = _with_singular_values(rng, m, n, [1.0] + list(tail))
    scale = 10.0 ** draw(st.integers(-100, 100))
    return A * scale


@settings(max_examples=300, deadline=None)
@given(spectral_cases())
def test_spectral_norm_is_a_tight_upper_bound(A):
    s1 = np.linalg.svd(A, compute_uv=False)[0]
    if s1 == 0.0:
        assert linalg.spectral_norm(A) == 0.0
        return
    assert s1 <= linalg.spectral_norm(A) <= s1 * (1 + 1e-10)


def test_spectral_norm_not_below_sigma1_on_gaussian():
    # a Gaussian spectrum has almost no gap at its top edge; power
    # iteration stopped about 9e-10 below sigma_1 here
    A = np.random.default_rng(300).standard_normal((300, 900))
    s1 = np.linalg.svd(A, compute_uv=False)[0]
    assert s1 <= linalg.spectral_norm(A) <= s1 * (1 + 1e-10)


def test_spectral_norm_not_below_sigma1_on_two_values():
    # a two-dimensional Krylov space: Lanczos stops after two steps with
    # theta exact to rounding, where power iteration read 2.999999999999790
    A = np.diag([3.0] * 5 + [1.0] * 5)
    assert 3.0 <= linalg.spectral_norm(A) <= 3.0 * (1 + 1e-10)


def test_spectral_norm_raises_when_steps_run_out():
    A = np.random.default_rng(14).standard_normal((50, 80))
    with pytest.raises(NumericalError):
        linalg.spectral_norm(A, max_iter=2)
    with pytest.raises(ValueError):
        linalg.spectral_norm(A, max_iter=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, error", [(np.nan, NonFiniteError), (np.inf, NonFiniteError),
                                        (-np.inf, NonFiniteError), (1e200, NumericalError)])
def test_spectral_norm_tells_non_finite_from_overflow(bad, error):
    A = np.random.default_rng(15).standard_normal((30, 50))
    for i, j in [(0, 0), (29, 49), (7, 3)]:
        B = A.copy()
        B[i, j] = bad
        for M in (B, B.T):
            with pytest.raises(error):
                linalg.spectral_norm(M)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((5, 3))
    path = tmp_path / "a.csv"
    linalg.write_matrix_csv(path, A)
    np.testing.assert_allclose(linalg.read_matrix_csv(path, (5, 3)), A, rtol=1e-15)


def test_csv_shape_check(tmp_path):
    path = tmp_path / "a.csv"
    linalg.write_matrix_csv(path, np.ones((2, 2)))
    with pytest.raises(DimensionError):
        linalg.read_matrix_csv(path, (3, 2))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[1.0, np.nan]])
