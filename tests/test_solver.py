import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank import problems, solver
from lowrank.amfit import FixedI, Tolerance
from lowrank.exceptions import DivergenceError
from lowrank.linalg import DEFAULT_RANK_TOL, numerical_rank
from lowrank.operators import Identity, Problem
from lowrank.prox import svt
from lowrank.solver import (Constant, Continuation, FistaLike, Online,
                            SolverConfig, Stopping, Zero,
                            check_convergence_conditions, inertial_value,
                            pgd_solve, prograamme_solve, truncate_factors)


def small_completion_problem(tau_scale=1.0):
    spec = problems.SyntheticSpec(
        30, 30, 3, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5, seed=1
    )
    gen = problems.generate_full(spec)
    return gen.problem(tau_scale * gen.noise_norm), gen


def test_inertial_zero_and_constant():
    assert inertial_value(Zero(), 5) == 0.0
    assert inertial_value(Constant(0.3), 17) == 0.3


def test_inertial_fista_values():
    rule = FistaLike(20.0)
    assert inertial_value(rule, 1) == 0.0
    assert inertial_value(rule, 21) == pytest.approx(20.0 / 41.0)


def test_inertial_online_cap():
    rule = Online(a=0.5, c=1.0, delta=1.0)
    # zero previous step keeps the plain cap
    assert inertial_value(rule, 3, 0.0) == 0.5
    # large previous step forces the summability cap below a
    assert inertial_value(rule, 10, 10.0) == pytest.approx(1.0 / (100.0 * 100.0))
    assert inertial_value(rule, 2, 1e-8) == 0.5


def test_inertial_validation():
    with pytest.raises(ValueError):
        Constant(1.0)
    with pytest.raises(ValueError):
        FistaLike(2.0)
    with pytest.raises(ValueError):
        inertial_value(Zero(), 0)


def test_large_tau_drives_solution_to_zero():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((8, 8))
    tau = 10.0 * np.linalg.norm(F, 2)
    p = Problem(Identity((8, 8)), F, np.ones((8, 8)), tau)
    cfg = SolverConfig(r=8, inner=Tolerance(1e-12, 100), stop=Stopping(1e-12, 0.0, 200))
    trace = prograamme_solve(p, cfg, seed=1)
    assert trace.converged
    assert np.linalg.norm(trace.X) <= 1e-8


def test_pgd_first_step_is_svt_of_gradient_step():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((6, 6))
    p = Problem(Identity((6, 6)), F, np.ones((6, 6)), 0.5)
    cfg = SolverConfig(stop=Stopping(0.0, 0.0, 1))
    trace = pgd_solve(p, cfg)
    # from X0 = 0 with gamma = 1/L = 1 the first iterate is svt(F, tau)
    np.testing.assert_allclose(trace.X, svt(F, 0.5), atol=1e-12)


def test_pgd_terminates_at_fixed_point():
    p, _ = small_completion_problem()
    cfg = SolverConfig(stop=Stopping(1e-10, 0.0, 2000))
    star = pgd_solve(p, cfg)
    assert star.converged
    again = pgd_solve(p, cfg, X0=star.X)
    assert again.converged
    assert again.iterations <= 3


def test_solver_agreement_small():
    p, _ = small_completion_problem()
    stop = Stopping(1e-10, 0.0, 2000)
    prog = prograamme_solve(
        p, SolverConfig(r=10, inner=Tolerance(1e-10, 500), stop=stop), seed=1
    )
    pgd = pgd_solve(p, SolverConfig(stop=stop))
    assert prog.converged and pgd.converged
    dist = np.linalg.norm(prog.X - pgd.X) / max(np.linalg.norm(pgd.X), 1.0)
    assert dist <= 1e-6


def test_objective_descent_rule_zero():
    p, _ = small_completion_problem()
    cfg = SolverConfig(
        r=10, inner=Tolerance(1e-10, 200), stop=Stopping(1e-8, 0.0, 500),
        trace_level="full",
    )
    trace = prograamme_solve(p, cfg, seed=2)
    obj = trace.column("objective")
    for prev, cur in zip(obj, obj[1:]):
        assert cur <= prev * (1 + 1e-12)


def test_truncate_factors_exact_when_rank_small():
    rng = np.random.default_rng(2)
    # product has true rank 3 but budget 8
    core_U = rng.standard_normal((10, 3))
    core_V = rng.standard_normal((3, 9))
    M = rng.standard_normal((3, 8))
    U = core_U @ M
    Minv = np.linalg.pinv(M)
    V = Minv @ core_V
    X = U @ V
    pair = truncate_factors(U, V, 3)
    assert pair.r == 3
    assert np.linalg.norm(pair.product() - X) <= 1e-9 * np.linalg.norm(X)


def test_truncate_factors_matches_svd_tail():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((12, 6))
    V = rng.standard_normal((6, 11))
    X = U @ V
    s = np.linalg.svd(X, compute_uv=False)
    pair = truncate_factors(U, V, 4)
    err = np.linalg.norm(pair.product() - X)
    assert err == pytest.approx(np.sqrt(np.sum(s[4:] ** 2)), rel=1e-9)


@st.composite
def planted_factor_pairs(draw):
    """(U, V, k): an m x r by r x n pair whose product has rank k <= r."""
    m = draw(st.integers(2, 25))
    n = draw(st.integers(2, 25))
    r = draw(st.integers(1, min(m, n)))
    k = draw(st.integers(1, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** rng.uniform(-3.0, 0.0, size=k)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    U = scale * (rng.standard_normal((m, k)) * spread) @ rng.standard_normal((k, r))
    V = rng.standard_normal((r, n))
    return U, V, k


def _assert_balanced(pair, X):
    gap = np.abs(pair.U.T @ pair.U - pair.V @ pair.V.T).max()
    assert gap <= 1e-10 * np.linalg.norm(X)


@settings(max_examples=60, deadline=None)
@given(planted_factor_pairs(), st.data())
def test_truncate_factors_properties(planted, data):
    U, V, k = planted
    X = U @ V
    norm = np.linalg.norm(X)
    # cutting to the planted rank loses nothing
    pair = truncate_factors(U, V, k)
    assert pair.r == k
    assert np.linalg.norm(pair.product() - X) <= 1e-10 * norm
    _assert_balanced(pair, X)
    # cutting below it leaves exactly the Eckart-Young tail
    if k > 1:
        j = data.draw(st.integers(1, k - 1))
        s = np.linalg.svd(X, compute_uv=False)
        pair = truncate_factors(U, V, j)
        err = np.linalg.norm(pair.product() - X)
        assert abs(err - np.sqrt(np.sum(s[j:] ** 2))) <= 1e-10 * norm
        _assert_balanced(pair, X)


@st.composite
def sketch_cases(draw):
    """(U, V, hint, kind, k): balanced factors of a planted spectrum.

    kind "gap": rank k <= hint + 10 with a tail at least 1e4 below the rank
    tolerance (or exactly zero); "edge": the same, or a tail just below the
    tolerance, with one more value at tol * sigma_1 * (1 +- 10^-j), j in
    1..12; "band": a tail that straddles the tolerance; "wide": rank
    k > hint + 10; "zero": X = 0.
    """
    hint = draw(st.integers(0, 6))
    m = draw(st.integers(2 * (hint + 10), 60))
    n = draw(st.integers(2 * (hint + 10), 60))
    r = draw(st.integers(2 * (hint + 10), min(m, n)))
    kind = draw(st.sampled_from(["gap", "edge", "band", "wide", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wide":
        k = draw(st.integers(hint + 11, r))
    else:
        k = draw(st.integers(1, min(hint + 10, r - 1)))
    s = np.zeros(r)
    s[:k] = np.sort(10.0 ** rng.uniform(-3.0, 0.0, size=k))[::-1]
    s[0] = 1.0
    if kind in ("gap", "edge") and draw(st.booleans()):
        s[k:] = 10.0 ** rng.uniform(-16.0, -12.0, size=r - k)
    if kind == "edge":
        # a tail just below the tolerance blurs the sketch near it
        if draw(st.booleans()):
            s[k:] = 10.0 ** rng.uniform(-10.0, -8.5, size=r - k)
        j = draw(st.integers(1, 12))
        s[k] = DEFAULT_RANK_TOL * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0**-j)
    if kind == "band":
        s[k:] = 10.0 ** rng.uniform(-10.0, -6.0, size=r - k)
    s *= 10.0 ** draw(st.floats(-6.0, 6.0))
    P = np.linalg.qr(rng.standard_normal((m, r)))[0]
    Q = np.linalg.qr(rng.standard_normal((n, r)))[0]
    O = np.linalg.qr(rng.standard_normal((r, r)))[0]
    root = np.sqrt(s)
    U = (P * root) @ O
    V = O.T @ (root[:, None] * Q.T)
    if kind == "zero":
        U = np.zeros_like(U)
    return U, V, hint, kind, k


@settings(max_examples=150, deadline=None)
@given(sketch_cases(), st.integers(0, 2**32 - 1))
def test_sketched_rank_is_exact_or_declines(case, sketch_seed):
    U, V, hint, kind, k = case
    tol = DEFAULT_RANK_TOL
    got = solver._sketched_rank(U @ V, U, V, tol, hint, np.random.default_rng(sketch_seed))
    assert got is None or got == solver._factored_rank(U, V, tol)
    if kind == "wide":
        assert got is None
    if kind == "gap" and k <= hint:
        # a clean gap with the full oversampling is always certified
        assert got == k


def test_sketched_rank_skips_narrow_budgets():
    rng = np.random.default_rng(0)
    U = rng.standard_normal((50, 21))
    V = rng.standard_normal((21, 50))
    # w = 1 + 10 columns would be more than half of r = 21
    assert solver._sketched_rank(U @ V, U, V, DEFAULT_RANK_TOL, 1, rng) is None


def test_sketched_rank_leaves_traces_bit_identical(monkeypatch):
    spec = problems.SyntheticSpec(
        120, 120, 4, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5, seed=3
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    sketched = solver._sketched_rank

    def run(enabled, read):
        calls = []

        def spy(*args):
            calls.append(read(*args))
            return calls[-1]

        monkeypatch.setattr(solver, "_sketched_rank", spy)
        cfg = SolverConfig(r=60, inner=FixedI(1),
                           continuation=Continuation(enabled=enabled),
                           stop=Stopping(1e-8, 0.0, 3000))
        trace = prograamme_solve(p, cfg, seed=1)
        rows = [(rec.k, rec.step_norm, rec.rank_x, rec.r, rec.inner_iters)
                for rec in trace.records]
        return rows, trace, sum(c is not None for c in calls)

    for enabled in (False, True):
        rows, trace, certified = run(enabled, sketched)
        exact_rows, exact, _ = run(enabled, lambda *args: None)
        assert trace.converged
        assert rows == exact_rows
        assert trace.notes == exact.notes
        np.testing.assert_array_equal(trace.X, exact.X)
        if enabled:
            # the reads before the cut, which decide it, are sketched
            assert any("cut from 60 to 4" in note for note in trace.notes)
            assert certified > 0
        else:
            assert certified >= len(rows) / 2


def test_truncate_factors_validation():
    with pytest.raises(ValueError):
        truncate_factors(np.ones((4, 2)), np.ones((2, 4)), 3)
    with pytest.warns(UserWarning):
        pair = truncate_factors(np.ones((4, 2)), np.ones((2, 4)), 0)
    assert pair.r == 1


def test_continuation_shrinks_budget_monotonically():
    spec = problems.SyntheticSpec(
        60, 60, 4, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.6, seed=5
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    cfg = SolverConfig(
        r=30,
        inner=Tolerance(1e-6, 50),
        continuation=Continuation(enabled=True, cadence=5),
        stop=Stopping(1e-9, 0.0, 1000),
    )
    trace = prograamme_solve(p, cfg, seed=1)
    assert trace.converged
    rs = trace.column("r")
    assert all(b <= a for a, b in zip(rs, rs[1:]))
    assert trace.final_rank == 4
    assert rs[-1] == 4
    assert numerical_rank(trace.X) == 4

    # a record's r is the budget after that iteration's cut, if any
    ranks = trace.column("rank_x")
    r_before = [cfg.r] + rs[:-1]
    cuts = [i for i in range(len(rs)) if rs[i] < r_before[i]]
    cadence = cfg.continuation.cadence
    settled = next(i for i in range(cadence - 1, len(ranks))
                   if ranks[i] < r_before[i] and len(set(ranks[i - cadence + 1:i + 1])) == 1)
    assert cuts[0] == settled
    assert rs[settled] == ranks[settled]
    assert all(ranks[i] < r_before[i] for i in cuts)


def test_divergent_step_raises():
    p, _ = small_completion_problem()
    L = 1.0  # unit weights, mask operator
    cfg = SolverConfig(gamma=50.0 / L, stop=Stopping(0.0, 0.0, 5000))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc_info:
        pgd_solve(p, cfg)
    assert exc_info.value.trace is not None


def test_trace_is_deterministic():
    p, _ = small_completion_problem()
    cfg = SolverConfig(r=8, inner=FixedI(2), stop=Stopping(1e-9, 0.0, 300))
    t1 = prograamme_solve(p, cfg, seed=7)
    t2 = prograamme_solve(p, cfg, seed=7)
    for a, b in zip(t1.records, t2.records):
        assert (a.k, a.step_norm, a.rank_x, a.r, a.inner_iters) == (
            b.k, b.step_norm, b.rank_x, b.r, b.inner_iters
        )
    np.testing.assert_array_equal(t1.X, t2.X)


def test_trace_csv_roundtrip(tmp_path):
    p, _ = small_completion_problem()
    trace = pgd_solve(p, SolverConfig(stop=Stopping(1e-6, 0.0, 50), trace_level="full"))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == solver.TRACE_HEADER
    assert len(rows) == len(trace.records) + 1
    assert float(rows[1][3]) == trace.records[0].step_norm


def test_probe_exact_prox_records_rank():
    p, _ = small_completion_problem()
    cfg = SolverConfig(r=10, stop=Stopping(1e-6, 0.0, 20), probe_exact_prox=True)
    trace = prograamme_solve(p, cfg, seed=1)
    assert all(rec.rank_exact_prox is not None for rec in trace.records)


def test_check_convergence_conditions():
    p, _ = small_completion_problem()
    cfg = SolverConfig(rule=Constant(0.5), r=10, stop=Stopping(1e-9, 0.0, 500))
    trace = prograamme_solve(p, cfg, seed=1)
    report = check_convergence_conditions(trace, Constant(0.5))
    assert report["total"] < np.inf
    assert not report["suspect_nonsummable"]
    zero_report = check_convergence_conditions(trace, Zero())
    assert zero_report["total"] == 0.0


def test_fista_stepsize_note():
    p, _ = small_completion_problem()
    cfg = SolverConfig(rule=FistaLike(20.0), stop=Stopping(1e-8, 0.0, 1000))
    trace = pgd_solve(p, cfg)
    assert any("FISTA" in note for note in trace.notes)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(r=0)
    with pytest.raises(ValueError):
        SolverConfig(trace_level="verbose")
    with pytest.raises(ValueError):
        Continuation(cadence=0)
