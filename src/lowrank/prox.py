"""Proximal map of the nuclear norm: singular value thresholding."""

import numpy as np

from . import linalg


def svt(Z, gamma):
    """Singular value thresholding, the proximal map of the nuclear norm.

    Returns argmin_X gamma * |X|_* + 0.5 * |X - Z|^2. Singular values
    exactly equal to gamma are thresholded to zero.
    """
    X, _ = svt_with_rank(Z, gamma)
    return X


def svt_with_rank(Z, gamma):
    """Like :func:`svt` but also returns the rank of the result.

    linalg.thin_svd validates Z, once.
    """
    if gamma < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {gamma}")
    P, s, Qt = linalg.thin_svd(Z)
    s_thr = np.maximum(s - gamma, 0.0)
    rank = int(np.count_nonzero(s_thr))
    return (P[:, :rank] * s_thr[:rank]) @ Qt[:rank], rank
