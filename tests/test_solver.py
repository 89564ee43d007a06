import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank import amfit, linalg, operators, problems, solver
from lowrank.amfit import FactorPair, FixedI, Tolerance
from lowrank.exceptions import DivergenceError
from lowrank.linalg import DEFAULT_RANK_TOL, numerical_rank
from lowrank.operators import Identity, Problem
from lowrank.prox import svt
from lowrank.solver import (Constant, Continuation, FistaLike, Online,
                            SolverConfig, Stopping, Zero, inertial_value,
                            pgd_solve, prograamme_solve, truncate_factors)


def small_completion_problem(tau_scale=1.0):
    spec = problems.SyntheticSpec(
        30, 30, 3, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5, seed=1
    )
    gen = problems.generate_full(spec)
    return gen.problem(tau_scale * gen.noise_norm), gen


MOVE_NOTE = re.compile(r"rank budget (cut|grown) from (\d+) to (\d+) at iteration (\d+)")


def budget_moves(trace, start):
    """(verb, from, to, k) for every change of the budget r between records."""
    rs = trace.column("r")
    before = [start] + rs[:-1]
    return [("cut" if b < a else "grown", a, b, k)
            for k, a, b in zip(trace.column("k"), before, rs) if a != b]


def noted_moves(trace):
    return [(m[1], int(m[2]), int(m[3]), int(m[4]))
            for m in map(MOVE_NOTE.fullmatch, trace.notes) if m]


def assert_rc_budget(trace, cap, planted):
    """The budget stays within the cap, only shrinks after its last growth,
    ends within a margin of the planted rank and moves only as noted."""
    moves = budget_moves(trace, min(cap, solver._RANK_MARGIN))
    assert noted_moves(trace) == moves
    rs = trace.column("r")
    assert max(rs) <= cap
    grows = [k for verb, _, _, k in moves if verb == "grown"]
    tail = rs[grows[-1] - 1:] if grows else rs
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert trace.final_rank == planted
    assert numerical_rank(trace.X) == planted
    assert planted <= rs[-1] <= planted + solver._RANK_MARGIN


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
            # rc's budget stays within a margin of the rank of X, narrower
            # than a sketch of that rank needs, so every read is exact
            assert max(trace.column("r")) < 2 * solver._SKETCH_OVERSAMPLING
            assert certified == 0
        else:
            assert certified >= len(rows) / 2


def test_truncate_factors_validation():
    with pytest.raises(ValueError):
        truncate_factors(np.ones((4, 2)), np.ones((2, 4)), 3)
    with pytest.warns(UserWarning):
        pair = truncate_factors(np.ones((4, 2)), np.ones((2, 4)), 0)
    assert pair.r == 1


def test_continuation_shrinks_budget_monotonically():
    # rank 4 matches rc's starting budget, which then never moves and ends
    # binding, so the exit is certified; rank 8 at a smaller tau grows the
    # budget past the margin and then cuts it back
    for planted, tau_scale in ((4, 1.0), (8, 0.5)):
        spec = problems.SyntheticSpec(
            60, 60, planted, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.6, seed=5
        )
        gen = problems.generate_full(spec)
        p = gen.problem(tau_scale * gen.noise_norm)
        cfg = SolverConfig(
            r=30,
            inner=Tolerance(1e-6, 50),
            continuation=Continuation(enabled=True, cadence=5),
            stop=Stopping(1e-9, 0.0, 1000),
        )
        trace = prograamme_solve(p, cfg, seed=1)
        assert trace.converged
        assert_rc_budget(trace, cfg.r, planted)

        # a record's r is the budget after that iteration's move, if any;
        # each move follows cadence equal reads of the rank of X
        rs = trace.column("r")
        ranks = trace.column("rank_x")
        cadence = cfg.continuation.cadence
        for verb, r_from, r_to, k in budget_moves(trace, solver._RANK_MARGIN):
            i = k - 1
            assert i >= cadence - 1 and len(set(ranks[i - cadence + 1:i + 1])) == 1
            if verb == "cut":
                assert r_to == ranks[i] + solver._RANK_MARGIN
            else:
                assert ranks[i] == r_from and r_to <= 2 * r_from
        if planted == 4:
            assert set(rs) == {4}
            assert trace.exit_residual <= 1e-6
        else:
            assert [verb for verb, *_ in budget_moves(trace, solver._RANK_MARGIN)][-1] == "cut"
            assert trace.exit_residual is None


def test_binding_budget_fails_its_exit_certificate():
    # the optimum has rank 11; a budget of 8 binds
    spec = problems.SyntheticSpec(
        40, 40, 10, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.7, seed=3
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    stop = Stopping(1e-10, 0.0, 5000)
    ref = pgd_solve(p, SolverConfig(stop=stop))
    assert ref.converged and ref.final_rank > 8

    def run(r, cont):
        return prograamme_solve(p, SolverConfig(r=r, inner=FixedI(1), stop=stop,
                                                continuation=cont), seed=1)

    def dist(trace):
        return np.linalg.norm(trace.X - ref.X) / max(np.linalg.norm(ref.X), 1.0)

    # at the cap, both factored solvers say X is not the optimum
    for cont in (Continuation(), Continuation(enabled=True)):
        trace = run(8, cont)
        assert not trace.converged
        assert trace.exit_residual > 1e-6
        assert trace.final_rank == trace.records[-1].r == 8
        assert any("binds at exit" in note for note in trace.notes)
        assert dist(trace) > 1e-2
        assert trace.summary()["exit_residual"] == trace.exit_residual
    # below the cap, a failed certificate grows rc's budget and the run goes
    # on; a cadence longer than the run leaves growth to the certificate
    trace = run(40, Continuation(enabled=True, cadence=10**6))
    assert trace.converged
    assert sum("grown" in note for note in trace.notes) >= 2
    assert dist(trace) <= 1e-6
    # an exit below the budget needs no certificate
    trace = run(40, Continuation())
    assert trace.converged and trace.exit_residual is None
    assert trace.summary()["exit_residual"] is None


@st.composite
def weighted_planted(draw):
    """(Problem, k): a weighted identity problem whose optimum has rank k."""
    k = draw(st.integers(1, 12))
    m = draw(st.integers(k + 4, 60))
    n = draw(st.integers(k + 4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.linalg.qr(rng.standard_normal((m, k)))[0]
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    F = (P * rng.uniform(1.0, 3.0, size=k)) @ Q.T + 1e-3 * rng.standard_normal((m, n))
    W = rng.uniform(0.8, 1.0, size=(m, n))
    return Problem(Identity((m, n)), F, W, 0.2), k


@settings(max_examples=25, deadline=None)
@given(weighted_planted(), st.integers(4, 30))
def test_rc_grows_from_its_small_start_to_the_optimum(case, extra):
    p, k = case
    cap = k + extra
    stop = Stopping(1e-11, 0.0, 3000)
    ref = pgd_solve(p, SolverConfig(stop=stop))
    assert ref.converged and ref.final_rank == k
    trace = prograamme_solve(p, SolverConfig(r=cap, inner=FixedI(1), stop=stop,
                                             continuation=Continuation(enabled=True)),
                             seed=1)
    assert trace.converged
    assert max(trace.column("r")) <= cap
    dist = np.linalg.norm(trace.X - ref.X) / max(np.linalg.norm(ref.X), 1.0)
    assert dist <= 1e-6
    assert solver._prox_residual(p, trace.X, trace.gamma) <= 1e-6
    if k > solver._RANK_MARGIN:
        assert any("grown" in note for note in trace.notes)


def test_exact_prox_budget_is_inert():
    # pgd's budget is min(m, n): X filling it does not bind, and continuation
    # neither cuts nor grows it
    rng = np.random.default_rng(4)
    m, n = 12, 8
    F = rng.standard_normal((m, n))
    W = rng.uniform(0.8, 1.0, size=(m, n))
    # rank 8 = min(m, n) at the tiny tau; rank 3 at tau = 3 sits more than
    # the margin below the budget, where rc would cut
    for tau, full in ((1e-8, True), (3.0, False)):
        p = Problem(Identity((m, n)), F, W, tau)
        for rule in (Zero(), FistaLike()):
            cfg = SolverConfig(rule=rule, stop=Stopping(1e-10, 0.0, 3000),
                               continuation=Continuation(enabled=True, cadence=1))
            trace = pgd_solve(p, cfg)
            assert trace.converged
            assert (trace.final_rank == min(m, n)) is full
            assert set(trace.column("r")) == {min(m, n)}
            assert set(trace.column("inner_iters")) == {0}
            assert trace.exit_residual is None
            assert not any("rank budget" in note for note in trace.notes)


def test_divergent_step_raises():
    p, _ = small_completion_problem()
    L = 1.0  # unit weights, mask operator
    for solve, continuation in ((pgd_solve, False), (prograamme_solve, False),
                                (prograamme_solve, True)):
        cfg = SolverConfig(gamma=50.0 / L, stop=Stopping(0.0, 0.0, 5000),
                           continuation=Continuation(enabled=continuation))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError, match="became non-finite") as exc_info:
            solve(p, cfg)
        trace = exc_info.value.trace
        assert trace is not None and len(trace.records) == trace.iterations > 0


def test_overflowing_product_of_finite_factors_raises(monkeypatch):
    # the factors are finite but their product is not: the step norm is then
    # not finite either, and that alone must lead to the check of X
    p, _ = small_completion_problem()

    def overflowing(Z, mu, start, policy):
        return FactorPair(np.full(start.U.shape, 1e200), np.full(start.V.shape, 1e200)), 1

    monkeypatch.setattr(amfit, "inner_solve", overflowing)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="iterate became non-finite at iteration 1 ") as exc_info:
        prograamme_solve(p, SolverConfig(r=4))
    trace = exc_info.value.trace
    assert trace is not None and trace.records == [] and trace.iterations == 0


def textbook_gradient(p, X):
    return operators.adjoint(p.op, (operators.apply(p.op, X) - p.F) * p.W_tilde)


def test_gradient_step_leaves_solves_bit_identical(monkeypatch):
    spec = problems.SyntheticSpec(
        40, 30, 3, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5,
        weights=problems.LargeOnSupport(0.2, 1.5, 4.0), seed=5,
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    stop = Stopping(1e-8, 0.0, 150)
    runs = [
        lambda: prograamme_solve(p, SolverConfig(r=12, stop=stop), seed=1),
        lambda: prograamme_solve(p, SolverConfig(r=12, stop=stop, rule=Constant(0.5)), seed=1),
        lambda: prograamme_solve(p, SolverConfig(r=12, stop=stop,
                                                 continuation=Continuation(enabled=True)), seed=1),
        lambda: prograamme_solve(p, SolverConfig(r=12, stop=stop, rule=Constant(0.5),
                                                 continuation=Continuation(enabled=True)), seed=1),
        lambda: pgd_solve(p, SolverConfig(stop=stop)),
        lambda: pgd_solve(p, SolverConfig(stop=stop, rule=FistaLike(20))),
    ]

    def outcome(run):
        trace = run()
        rows = [(rec.k, rec.step_norm, rec.rank_x, rec.r, rec.inner_iters)
                for rec in trace.records]
        return rows, trace.notes, trace.converged, trace.X

    shipped = [outcome(run) for run in runs]
    monkeypatch.setattr(operators, "gradient", textbook_gradient)
    for (rows, notes, converged, X), run in zip(shipped, runs):
        ref_rows, ref_notes, ref_converged, ref_X = outcome(run)
        assert rows == ref_rows
        assert notes == ref_notes
        assert converged == ref_converged
        assert np.array_equal(X, ref_X)


def lu_spd_solve(G, B):
    """The Cholesky check plus LU solve that spd_solve used before it
    applied the inverse of its Cholesky factor."""
    np.linalg.cholesky(G)
    return np.linalg.solve(G, B)


def test_spd_kernel_leaves_solves_unchanged(monkeypatch):
    # r=100 is above the leaf of the recursive inverse, so plain runs every
    # SPD solve through GEMM blocks, and rc's budget grows from its small start
    assert 100 > linalg._INV_LEAF
    spec = problems.SyntheticSpec(
        150, 150, 6, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5, seed=9
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    stop = Stopping(1e-8, 0.0, 500)
    cfgs = [SolverConfig(r=100, stop=stop, continuation=Continuation(enabled=rc))
            for rc in (False, True)]

    def outcome(cfg):
        trace = prograamme_solve(p, cfg, seed=1)
        assert trace.converged
        return trace.iterations, trace.column("rank_x"), trace.column("r"), trace.notes, trace.X

    shipped = [outcome(cfg) for cfg in cfgs]
    monkeypatch.setattr(amfit, "spd_solve", lu_spd_solve)
    for (iters, rank_x, r, notes, X), cfg in zip(shipped, cfgs):
        ref_iters, ref_rank_x, ref_r, ref_notes, ref_X = outcome(cfg)
        assert (iters, rank_x, r, notes) == (ref_iters, ref_rank_x, ref_r, ref_notes)
        assert np.linalg.norm(X - ref_X) <= 1e-10 * np.linalg.norm(ref_X)


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
