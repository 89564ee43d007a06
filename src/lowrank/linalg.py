"""Dense linear-algebra kernels shared by the solvers.

All routines operate on plain 2-D float64 numpy arrays in row-major order.
Inputs are validated once on entry; every function is pure. Kernels that run
inside a solver iteration stay on numpy's BLAS/LAPACK, because scipy ships a
second OpenBLAS whose thread pool contends with numpy's when calls alternate.
"""

import numpy as np

from .exceptions import DefinitenessError, DimensionError, NonFiniteError, NumericalError

#: Default relative tolerance for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-8


def as_matrix(A, name="matrix"):
    """Coerce input to a validated dense float64 matrix.

    Args:
        A: Array-like with two dimensions and at least one row and column.
        name: Label used in error messages.

    Returns:
        A float64 ndarray of shape (m, n) with all entries finite.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dimensions, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return M


def spd_solve(G, B):
    """Solve G @ Y = B for symmetric positive definite G.

    A Cholesky factorization certifies definiteness and an LU solve gives
    Y; neither forms an explicit inverse. Both run on numpy's LAPACK, not
    scipy's, because scipy ships a second OpenBLAS whose idle threads starve
    numpy's between the products and the solve of an inner-loop update.

    Args:
        G: SPD matrix of shape (r, r).
        B: Right-hand side with r rows.

    Returns:
        Y with G @ Y = B.

    Raises:
        DefinitenessError: G is not positive definite.
    """
    G = as_matrix(G, "G")
    B = as_matrix(B, "B")
    if G.shape[0] != G.shape[1]:
        raise DimensionError(f"G must be square, got {G.shape}")
    if B.shape[0] != G.shape[0]:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {G.shape[0]}")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
    return np.linalg.solve(G, B)


def thin_svd(A):
    """Thin singular value decomposition.

    Args:
        A: Matrix of shape (m, n).

    Returns:
        Tuple (P, s, Qt) with P of shape (m, k), s nonincreasing of length
        k = min(m, n), Qt of shape (k, n), and P @ diag(s) @ Qt == A.
    """
    A = as_matrix(A)
    try:
        P, s, Qt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge for shape {A.shape} "
            f"(|A|_F={np.linalg.norm(A):.3e}): {exc}"
        ) from exc
    return P, s, Qt


def numerical_rank(A, rel_tol=DEFAULT_RANK_TOL):
    """Number of singular values above rel_tol times the largest one.

    Returns 0 for the zero matrix.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    _, s, _ = thin_svd(A)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def spectral_norm(A, rel_tol=1e-10, max_iter=10000):
    """Largest singular value of A, via power iteration on the Gram matrix.

    Args:
        A: Matrix of shape (m, n).
        rel_tol: Relative change of the estimate at which to stop.
        max_iter: Iteration cap before giving up.

    Returns:
        sigma_1(A) to roughly 1e-8 relative accuracy; 0.0 for the zero matrix.
    """
    A = as_matrix(A)
    if not np.any(A):
        return 0.0
    # form the smaller of A^T A and A A^T once; each power step is then a
    # single small matvec instead of two large ones
    if A.shape[0] > A.shape[1]:
        A = A.T
    G = A @ A.T
    rng = np.random.default_rng(0)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = G @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            # v landed in the null space; restart from a fresh direction
            v = rng.standard_normal(G.shape[0])
            v /= np.linalg.norm(v)
            continue
        lam_new = float(nrm)
        v = w / nrm
        if abs(lam_new - lam) <= rel_tol * max(lam_new, 1e-300):
            return float(np.sqrt(lam_new))
        lam = lam_new
    raise NumericalError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {np.sqrt(lam):.6e})"
    )


def write_matrix_csv(path, A):
    """Write a matrix as plain CSV: one row per line, '.' decimal, no header."""
    A = as_matrix(A)
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def read_matrix_csv(path, expected_shape=None):
    """Read a plain CSV matrix written by :func:`write_matrix_csv`.

    Args:
        path: File to read.
        expected_shape: Optional (rows, cols) sidecar check; a mismatch
            raises DimensionError.
    """
    A = np.loadtxt(path, delimiter=",", ndmin=2)
    A = as_matrix(A, str(path))
    if expected_shape is not None and tuple(A.shape) != tuple(expected_shape):
        raise DimensionError(
            f"{path}: expected shape {tuple(expected_shape)}, got {A.shape}"
        )
    return A
