"""Dense linear-algebra kernels shared by the solvers.

All routines operate on plain 2-D float64 numpy arrays in row-major order.
Inputs are validated once on entry; every function is pure. Kernels that run
inside a solver iteration stay on numpy's BLAS/LAPACK, because scipy ships a
second OpenBLAS whose thread pool contends with numpy's when calls alternate.
numpy has no triangular solve, so spd_solve forms the inverse of its
Cholesky factor by recursive blocks, which keeps the work in GEMMs and is as
stable as a triangular solve (see spd_solve).
"""

import numpy as np

from .exceptions import DefinitenessError, DimensionError, NonFiniteError, NumericalError

#: Default relative tolerance for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-8

#: Rows by which spectral_norm grows its Lanczos basis.
_LANCZOS_BLOCK = 128

#: Largest diagonal block that _tril_inverse hands to LAPACK's inv whole.
#: At r=200 with 400 right-hand sides, 64 (leaves of 50 rows) beat 32 and 100.
_INV_LEAF = 64


def _as_2d(A, name):
    """A as a float64 ndarray with two positive dimensions; entries unchecked."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dimensions, got {M.shape}")
    return M


def as_matrix(A, name="matrix"):
    """Coerce input to a validated dense float64 matrix.

    Args:
        A: Array-like with two dimensions and at least one row and column.
        name: Label used in error messages.

    Returns:
        A float64 ndarray of shape (m, n) with all entries finite.
    """
    M = _as_2d(A, name)
    if not np.all(np.isfinite(M)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return M


def spd_solve(G, B):
    """Solve G @ Y = B for symmetric positive definite G.

    The Cholesky factor L of G = L L^T certifies definiteness. The solve
    then forms the inverse of the Cholesky factor by recursive 2x2-block
    inversion (see _tril_inverse) and returns Y = L^-T (L^-1 B), two GEMMs;
    numpy's only alternative is an LU solve, whose triangular sweeps over
    many right-hand sides run well below GEMM speed. Inverting a triangular
    factor this way is stable: the computed inverse has a residual as small
    as a triangular solve's (Du Croz and Higham, Stability of methods for
    matrix inversion, IMA J. Numer. Anal. 12, 1992), and Y has the small
    residual and the cond(G)-bounded error of an LU solve. An explicit
    inverse of G itself does not: its residual grows with the condition
    number of G for right-hand sides along G's top eigenvectors, as V Z^T is
    for G = V V^T + mu I. Everything runs on numpy's LAPACK, not scipy's,
    because scipy ships a second OpenBLAS whose idle threads starve numpy's
    between the products and the solve of an inner-loop update.

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
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
    Li = _tril_inverse(L)
    return Li.T @ (Li @ B)


def _tril_inverse(L):
    """Inverse of a lower triangular L with a positive diagonal.

    Splits L = [[L11, 0], [L21, L22]] at h = r // 2 and returns
    [[L11^-1, 0], [-L22^-1 (L21 L11^-1), L22^-1]], recursing on both
    diagonal blocks down to _INV_LEAF rows, so all work above the leaves
    is GEMMs.
    """
    r = L.shape[0]
    if r <= _INV_LEAF:
        return np.linalg.inv(L)
    h = r // 2
    Li = np.zeros_like(L)
    A = Li[:h, :h] = _tril_inverse(L[:h, :h])
    C = Li[h:, h:] = _tril_inverse(L[h:, h:])
    Li[h:, :h] = -C @ (L[h:, :h] @ A)
    return Li


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
    """Upper bound on the largest singular value of A, via Lanczos.

    Runs Lanczos with full reorthogonalization on the smaller Gram matrix G
    of A, from a seeded Gaussian start. The top Ritz pair (theta, y) of the
    tridiagonal T has the residual rho = |G y - theta y| = beta_j |y_j|, read
    off T for free, and some eigenvalue of G lies within rho of theta
    (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 4). Once the pair
    has converged to the top eigenvalue, theta + rho bounds it from above.
    Power iteration and plain Lanczos stop below sigma_1, which makes a step
    1/L slightly too long. The pair is read at each of the first 16 steps and
    at every fourth step after that, since each read costs an eigh of T.

    Args:
        A: Matrix of shape (m, n).
        rel_tol: Relative residual rho / theta at which to stop.
        max_iter: Step cap; at most min(m, n) steps are ever taken.

    Returns:
        sigma_1 <= result <= sigma_1 * sqrt(1 + rel_tol + (m + n) eps) + 1 ulp,
        where the (m + n) eps term covers rounding in G and in the Ritz values;
        0.0 for the zero matrix.

    Raises:
        NonFiniteError: A has an infinite or NaN entry.
        NumericalError: the Gram matrix of A under- or overflowed, or the
            residual did not fall below rel_tol * theta within
            min(max_iter, m, n) steps.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    A = _as_2d(A, "matrix")
    # form the smaller of A^T A and A A^T once; each Lanczos step is then a
    # single small matvec instead of two large ones
    if A.shape[0] > A.shape[1]:
        A = A.T
    # an overflow or a non-finite entry is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        G = A @ A.T
    # unit largest diagonal keeps the norms inside Lanczos finite and nonzero
    scale = float(G.diagonal().max())
    if not 0.0 < scale < np.inf:
        if not np.any(A):
            return 0.0
        # a non-finite entry of A makes its row's diagonal entry of G
        # non-finite, so A is checked here instead of by a pass of its own
        as_matrix(A)
        raise NumericalError(f"the Gram matrix of A under- or overflowed "
                             f"(|A|_max={np.abs(A).max():.3e})")
    G /= scale
    n = G.shape[0]
    steps = min(max_iter, n)
    q = np.random.default_rng(0).standard_normal(n)
    Q = np.empty((min(steps, _LANCZOS_BLOCK), n))
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for j in range(steps):
        w = G @ Q[j]
        alpha.append(float(Q[j] @ w))
        # project out the whole basis twice, so that the basis stays
        # orthogonal to working precision and T is the projection of G
        for _ in range(2):
            w -= Q[:j + 1].T @ (Q[:j + 1] @ w)
        beta.append(float(np.linalg.norm(w)))
        if j < 16 or j % 4 == 3 or beta[-1] == 0.0 or j + 1 == steps:
            T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
            evals, evecs = np.linalg.eigh(T)
            theta = float(evals[-1])
            # beta = 0: the Krylov space is invariant and theta is exact there
            rho = beta[-1] * abs(float(evecs[-1, -1]))
            if theta > 0.0 and rho <= rel_tol * theta:
                slack = sum(A.shape) * np.finfo(float).eps * theta
                return float(np.nextafter(np.sqrt((theta + rho + slack) * scale), np.inf))
            if beta[-1] == 0.0:
                break  # an invariant Krylov space inside the null space of G
        if j + 1 < steps:
            if j + 1 == len(Q):
                Q = np.concatenate([Q, np.empty((min(_LANCZOS_BLOCK, steps - len(Q)), n))])
            Q[j + 1] = w / beta[-1]
    raise NumericalError(
        f"Lanczos did not converge in {len(alpha)} steps "
        f"(top Ritz value {np.sqrt(max(theta, 0.0) * scale):.6e}, "
        f"relative residual {rho / theta if theta > 0.0 else np.inf:.2e})"
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
