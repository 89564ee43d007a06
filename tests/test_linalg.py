import numpy as np
import pytest

from lowrank import linalg
from lowrank.exceptions import DefinitenessError, DimensionError


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
