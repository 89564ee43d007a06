"""Helpers shared by the tests: a weight-conditioning sweep, a weighted
fidelity metric, the objective of the alternating inner solve and the
objective path of a solve."""

from dataclasses import replace
from unittest import mock

import numpy as np

from lowrank import linalg, operators, prox
from lowrank.amfit import FactorPair
from lowrank.exceptions import DimensionError, InvalidSpecError
from lowrank.linalg import as_matrix
from lowrank.problems import UniformInt, generate_full
from lowrank.solver import pgd_solve


def fidelity(F, X, W, inside=True):
    """Weighted residual |(F - X) . W| / |W|, or its complement.

    With inside=False the selector is 1 - W, which requires a binary W;
    an all-zero selector makes the metric undefined.
    """
    F = as_matrix(F, "F")
    X = as_matrix(X, "X")
    W = as_matrix(W, "W")
    if F.shape != X.shape or F.shape != W.shape:
        raise DimensionError("F, X, W must share a shape")
    if not inside:
        if not np.all((W == 0.0) | (W == 1.0)):
            raise ValueError("outside fidelity requires a binary weight matrix")
        W = 1.0 - W
    denom = float(np.linalg.norm(W))
    if denom == 0.0:
        raise ValueError("fidelity is undefined: selector is identically zero")
    return float(np.linalg.norm((F - X) * W)) / denom


def condition_number_sweep(base, max_weights, tau=1.0):
    """One problem per weight maximum, with the weight condition number.

    Args:
        base: SyntheticSpec whose weights are UniformInt with w_min = 1.
        max_weights: Iterable of integer weight maxima.
        tau: Regularization weight for the generated problems; either a
            scalar or a callable of the weight maximum.

    Returns:
        List of (Problem, kappa_W) pairs; kappa_W is inf for singular W.
    """
    if not isinstance(base.weights, UniformInt) or base.weights.w_min != 1:
        raise InvalidSpecError("sweep requires UniformInt weights with w_min = 1")
    out = []
    for i, w_max in enumerate(max_weights):
        spec = replace(base, weights=UniformInt(1, int(w_max)), seed=base.seed + i)
        gen = generate_full(spec)
        _, s, _ = linalg.thin_svd(gen.W)
        if s[-1] <= 1e-300 or s[-1] <= 1e-15 * s[0]:
            kappa = float("inf")
        else:
            kappa = float(s[0] / s[-1])
        tau_value = tau(w_max) if callable(tau) else tau
        out.append((gen.problem(tau_value), kappa))
    return out


def inner_objective(Z, U, V, mu):
    """Value of 0.5*|UV - Z|^2 + (mu/2)*(|U|^2 + |V|^2)."""
    R = U @ V - Z
    return 0.5 * float(np.sum(R * R)) + 0.5 * mu * float(
        np.sum(U * U) + np.sum(V * V)
    )


def objective_path(solve, p, cfg, **kwargs):
    """Run solve(p, cfg, **kwargs); return the trace and P(X_k) of each record.

    The objective needs an SVD of every iterate, so the solvers do not
    record it. This wraps the seam each solver looks up through its module
    to form the iterate, prox.svt_with_rank for pgd_solve and
    FactorPair.product for prograamme_solve, and evaluates
    operators.objective on every X it returns. Only that seam is wrapped:
    the factored solver's exit certificate also runs an SVT.
    """
    values = []
    exact = solve is pgd_solve
    owner, name = (prox, "svt_with_rank") if exact else (FactorPair, "product")
    inner = getattr(owner, name)

    def wrapped(*args):
        out = inner(*args)
        values.append(operators.objective(p, out[0] if exact else out))
        return out

    with mock.patch.object(owner, name, wrapped):
        trace = solve(p, cfg, **kwargs)
    assert len(values) == len(trace.records)
    return trace, values
