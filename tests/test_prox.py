import numpy as np
import pytest

from lowrank.exceptions import NonFiniteError
from lowrank.linalg import thin_svd
from lowrank.prox import svt, svt_with_rank


def test_svt_diagonal():
    Z = np.diag([3.0, 1.0, 0.2])
    np.testing.assert_allclose(svt(Z, 0.5), np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((5, 4))
    np.testing.assert_allclose(svt(Z, 0.0), Z, atol=1e-12)


def test_svt_kills_small_matrices():
    rng = np.random.default_rng(1)
    Z = 0.1 * rng.standard_normal((4, 4))
    X, rank = svt_with_rank(Z, 10.0)
    assert rank == 0
    np.testing.assert_array_equal(X, np.zeros((4, 4)))


def test_svt_rank_counts_thresholded_values():
    Z = np.diag([5.0, 2.0, 1.0, 0.1])
    _, rank = svt_with_rank(Z, 1.0)
    # value exactly at the threshold is cut
    assert rank == 2


def test_svt_nonexpansive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.standard_normal((6, 5))
        B = rng.standard_normal((6, 5))
        g = float(rng.uniform(0.1, 3.0))
        assert np.linalg.norm(svt(A, g) - svt(B, g)) <= np.linalg.norm(A - B) * (1 + 1e-12)


def test_svt_subgradient_optimality():
    # R = svt(Z, g) minimizes g|X|_* + 0.5|X - Z|^2, so (Z - R)/g must be a
    # nuclear-norm subgradient at R: P Q^T + N with P^T N = 0, N Q = 0, |N|_2 <= 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        Z = rng.standard_normal((4, 4))
        g = 0.7
        R, rank = svt_with_rank(Z, g)
        D = (Z - R) / g
        if rank > 0:
            P, s, Qt = thin_svd(R)
            P, Qt = P[:, :rank], Qt[:rank]
            N = D - P @ Qt
            assert np.linalg.norm(P.T @ N) <= 1e-10
            assert np.linalg.norm(N @ Qt.T) <= 1e-10
        else:
            N = D
        assert np.linalg.norm(N, 2) <= 1.0 + 1e-10


def test_svt_objective_optimality_against_perturbations():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((5, 5))
    g = 1.2

    def obj(X):
        return g * np.sum(np.linalg.svd(X, compute_uv=False)) + 0.5 * np.sum((X - Z) ** 2)

    X = svt(Z, g)
    best = obj(X)
    for _ in range(50):
        assert best <= obj(X + 1e-3 * rng.standard_normal((5, 5))) + 1e-12


def test_svt_refuses_non_finite_z():
    Z = np.eye(3)
    Z[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        svt_with_rank(Z, 0.5)
    # nor a negative threshold
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        svt(np.eye(3), -1.0)
