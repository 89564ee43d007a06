import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lowrank import amfit, linalg, operators, problems, prox, solver
from lowrank.amfit import FactorPair, FixedI, IncreasingI, Tolerance
from lowrank.exceptions import DivergenceError
from lowrank.linalg import DEFAULT_RANK_TOL
from lowrank.operators import Identity, Problem
from lowrank.prox import svt
from lowrank.solver import (Constant, Continuation, FistaLike, Online,
                            SolverConfig, Stopping, Zero, inertial_value,
                            pgd_solve, prograamme_solve, truncate_factors)

from helpers import objective_path


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
    assert np.linalg.matrix_rank(
        trace.X, tol=DEFAULT_RANK_TOL * np.linalg.norm(trace.X, 2)) == planted
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
    # a step whose square underflows caps nothing, as a zero step does
    assert inertial_value(Online(), 5, 1e-170) == 0.5
    assert inertial_value(Online(0.3, c=float("inf")), 5, 1e-170) == 0.3
    # an overflowing denominator caps the inertia at 0, unless c = inf; both
    # used to raise OverflowError from a float power
    assert inertial_value(Online(0.5, 1.0, 400.0), 10, 1.0) == 0.0
    assert inertial_value(Online(), 10, 1e200) == 0.0
    assert inertial_value(Online(0.3, c=float("inf")), 10, 1e200) == 0.3


def _python_float_online(rule, k, step):
    """Online's a_k in Python float arithmetic, or None where it overflows or underflows."""
    tiny, huge = sys.float_info.min, sys.float_info.max
    try:
        # k >= 1, so the power is at least 1 and only the square can underflow
        denom = k ** (1.0 + rule.delta) * step**2
    except OverflowError:
        return None
    if (step and not tiny <= step**2) or denom > huge:
        return None
    if denom == 0.0 or rule.c == float("inf"):
        return rule.a
    cap = rule.c / denom
    return min(rule.a, cap) if tiny <= cap <= huge else None


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-300, 1e300) | st.just(float("inf")),
       st.floats(0.0, 400.0, exclude_min=True), st.integers(1, 10**6),
       st.just(0.0) | st.floats(1e-200, 1e200))
def test_inertial_online_matches_python_floats(a, c, delta, k, step):
    # float64 under errstate gives the bits of the Python float formula
    # wherever that formula neither overflows nor underflows
    rule = Online(a, c, delta)
    want = _python_float_online(rule, k, step)
    assume(want is not None)
    got = inertial_value(rule, k, step)
    assert type(got) is float and got.hex() == want.hex()


def test_inertial_validation():
    with pytest.raises(ValueError):
        Constant(1.0)
    with pytest.raises(ValueError):
        FistaLike(2.0)
    with pytest.raises(ValueError):
        inertial_value(Zero(), 0)
    with pytest.raises(ValueError, match=r"a must lie in \[0, 1\], got 1.5"):
        Online(a=1.5)
    with pytest.raises(TypeError, match="unknown inertial rule"):
        inertial_value(object(), 1)


def test_large_tau_drives_solution_to_zero():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((8, 8))
    tau = 10.0 * np.linalg.norm(F, 2)
    p = Problem(Identity((8, 8)), F, np.ones((8, 8)), tau)
    cfg = SolverConfig(r=8, inner=Tolerance(1e-12, 100), stop=Stopping(1e-12, 0.0, 200))
    trace = prograamme_solve(p, cfg, seed=1)
    assert trace.converged
    assert np.linalg.norm(trace.X) <= 1e-8


@pytest.mark.parametrize("solve", [prograamme_solve, pgd_solve], ids=["factored", "svt"])
def test_seed_is_keyword_only(solve):
    # every solve starts at X = 0: a third positional argument raises
    # rather than being read as a seed
    p = Problem(Identity((4, 4)), np.ones((4, 4)), np.ones((4, 4)), 0.5)
    with pytest.raises(TypeError):
        solve(p, SolverConfig(r=2), np.zeros((4, 4)))


def test_pgd_first_step_is_svt_of_gradient_step():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((6, 6))
    p = Problem(Identity((6, 6)), F, np.ones((6, 6)), 0.5)
    cfg = SolverConfig(stop=Stopping(0.0, 0.0, 1))
    trace = pgd_solve(p, cfg)
    # from X = 0 with gamma = 1/L = 1 the first iterate is svt(F, tau)
    np.testing.assert_allclose(trace.X, svt(F, 0.5), atol=1e-12)


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


def test_zero_factor_pair_is_redrawn_from_a_random_pair(monkeypatch):
    # no natural input reaches the re-draw: the step norm underflows to 0
    # before the factors do, so the run stops first; a zero pair returned
    # once at k = 2 must be replaced by a fresh random pair at k = 3
    p, _ = small_completion_problem()
    inner_solve, random_pair = amfit.inner_solve, amfit.random_pair
    draws = []

    def zero_at_2(Z, mu, start, policy, k=1):
        pair, passes = inner_solve(Z, mu, start, policy, k)
        if k == 2:
            pair = FactorPair(np.zeros_like(pair.U), np.zeros_like(pair.V))
        return pair, passes

    def counted(*args):
        draws.append(args)
        return random_pair(*args)

    monkeypatch.setattr(amfit, "inner_solve", zero_at_2)
    monkeypatch.setattr(amfit, "random_pair", counted)
    stop = Stopping(1e-10, 0.0, 2000)
    prog = prograamme_solve(
        p, SolverConfig(r=10, inner=Tolerance(1e-10, 500), stop=stop), seed=1
    )
    assert len(draws) == 2
    assert prog.records[1].rank_x == 0
    pgd = pgd_solve(p, SolverConfig(stop=stop))
    assert prog.converged and pgd.converged
    dist = np.linalg.norm(prog.X - pgd.X) / max(np.linalg.norm(pgd.X), 1.0)
    assert dist <= 1e-6


def test_pgd_terminates_at_fixed_point():
    p, _ = small_completion_problem()
    star = pgd_solve(p, SolverConfig(stop=Stopping(1e-10, 0.0, 2000)))
    assert star.converged
    # one more prox-gradient step from pgd's X leaves it where it is
    g = star.gamma
    R = star.X - svt(star.X - g * operators.gradient(p, star.X), g * p.tau)
    assert np.linalg.norm(R) / (g * max(np.linalg.norm(star.X), 1.0)) <= 1e-9


@pytest.mark.parametrize("rule", [Online(), Constant(0.5)], ids=repr)
def test_factored_inertial_rules_reach_pgd(rule):
    p, _ = small_completion_problem()
    stop = Stopping(1e-10, 0.0, 2000)
    prog = prograamme_solve(
        p, SolverConfig(r=10, rule=rule, inner=Tolerance(1e-10, 500), stop=stop), seed=1
    )
    pgd = pgd_solve(p, SolverConfig(stop=stop))
    assert prog.converged and pgd.converged
    dist = np.linalg.norm(prog.X - pgd.X) / max(np.linalg.norm(pgd.X), 1.0)
    assert dist <= 1e-6


@pytest.mark.parametrize("seed", [7, 10])
def test_factored_fista_converges_on_sensing_instances(seed):
    # 60x60 rank-3 dense sensing at tau = 2 noise_norm: without the momentum
    # restart, factored FistaLike(20) with one pass per iteration still moved
    # at the 1500-iteration cap on these two seeds, plain and rc alike
    spec = problems.SyntheticSpec(60, 60, 3, noise=problems.AdditiveGaussian(0.3),
                                  sensing_dim=1053, seed=seed)
    gen = problems.generate_full(spec)
    p = gen.problem(2.0 * gen.noise_norm)
    stop = Stopping(1e-8, 0.0, 1500)
    ref = pgd_solve(p, SolverConfig(stop=stop))
    assert ref.converged
    for rc in (False, True):
        cfg = SolverConfig(r=20, rule=FistaLike(20), inner=FixedI(1), stop=stop,
                           continuation=Continuation(enabled=rc))
        trace = prograamme_solve(p, cfg, seed=1)
        assert trace.converged, rc
        dist = np.linalg.norm(trace.X - ref.X) / max(np.linalg.norm(ref.X), 1.0)
        assert dist <= 1e-6, rc


def test_increasing_inner_passes_follow_their_schedule():
    p, _ = small_completion_problem()
    cfg = SolverConfig(r=10, inner=IncreasingI(1, 5), stop=Stopping(0.0, 0.0, 23))
    trace = prograamme_solve(p, cfg, seed=1)
    assert trace.iterations == 23
    assert trace.column("inner_iters") == [1 + (k - 1) // 5 for k in trace.column("k")]


def test_objective_descent_rule_zero():
    p, _ = small_completion_problem()
    cfg = SolverConfig(r=10, inner=Tolerance(1e-10, 200), stop=Stopping(1e-8, 0.0, 500))
    _, obj = objective_path(prograamme_solve, p, cfg, seed=2)
    for prev, cur in zip(obj, obj[1:]):
        assert cur <= prev * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["identity", "mask", "sensing"]), st.floats(0.0, 3.0),
       st.floats(-2.0, 1.0))
def test_pgd_objective_never_increases(m, n, seed, kind, spread, log_tau):
    # with gamma = 1/L and no inertia each prox-gradient step is a descent
    # step, for weights spread up to w_max / w_min = 1e3
    rng = np.random.default_rng(seed)
    # "mask" is completion: the identity with W zero off a 0/1 mask
    mask = 1.0
    if kind == "sensing":
        op = operators.DenseSensing(rng.standard_normal((int(rng.integers(1, 16)), m * n)),
                                    (m, n))
    else:
        op = operators.Identity((m, n))
    if kind == "mask":
        mask = (rng.random((m, n)) < 0.6).astype(float)
        mask.flat[0] = 1.0
    W = 10.0 ** rng.uniform(0.0, spread, size=op.codomain_shape) * mask
    p = Problem(op, rng.standard_normal(op.codomain_shape) * mask, W, 10.0 ** log_tau)
    _, path = objective_path(pgd_solve, p, SolverConfig(rule=Zero(),
                                                         stop=Stopping(1e-12, 0.0, 200)))
    obj = [operators.objective(p, np.zeros((m, n)))] + path
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


@pytest.mark.parametrize("rank, scale", [(0, 1.0), (1, 1.0), (4, 1.0), (5, 1e-6), (5, 1e6),
                                         (12, 1.0)],
                         ids=["zero_matrix", "outer_product", "factor_product",
                              "scaled_down", "scaled_up", "full_budget"])
def test_factored_rank_matches_dense_rank(rank, scale):
    # U @ V has the given rank inside a budget of 12 columns
    rng = np.random.default_rng(rank)
    U = scale * (rng.standard_normal((20, rank)) @ rng.standard_normal((rank, 12)))
    V = rng.standard_normal((12, rank)) @ rng.standard_normal((rank, 30))
    X = U @ V
    dense = np.linalg.matrix_rank(X, tol=DEFAULT_RANK_TOL * np.linalg.norm(X, 2))
    assert solver._factored_rank(U, V, DEFAULT_RANK_TOL) == dense == rank


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
    with pytest.raises(ValueError):
        truncate_factors(np.ones((4, 2)), np.ones((2, 4)), 0)


def test_continuation_shrinks_budget_monotonically(monkeypatch):
    # rank 4 matches rc's starting budget, which then never moves and ends
    # binding, so the exit is certified; rank 8 at a smaller tau grows the
    # budget past the margin and then cuts it back
    cadence = 5
    monkeypatch.setattr(solver, "_CADENCE", cadence)
    for planted, tau_scale in ((4, 1.0), (8, 0.5)):
        spec = problems.SyntheticSpec(
            60, 60, planted, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.6, seed=5
        )
        gen = problems.generate_full(spec)
        p = gen.problem(tau_scale * gen.noise_norm)
        cfg = SolverConfig(
            r=30,
            inner=Tolerance(1e-6, 50),
            continuation=Continuation(enabled=True),
            stop=Stopping(1e-9, 0.0, 1000),
        )
        trace = prograamme_solve(p, cfg, seed=1)
        assert trace.converged
        assert_rc_budget(trace, cfg.r, planted)

        # a record's r is the budget after that iteration's move, if any;
        # each move follows cadence equal reads of the rank of X
        rs = trace.column("r")
        ranks = trace.column("rank_x")
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


def test_binding_budget_fails_its_exit_certificate(monkeypatch):
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
    # below the cap, a failed certificate grows rc's budget and the run goes
    # on; a cadence longer than the run leaves growth to the certificate
    monkeypatch.setattr(solver, "_CADENCE", 10**6)
    trace = run(40, Continuation(enabled=True))
    assert trace.converged
    assert sum("grown" in note for note in trace.notes) >= 2
    assert dist(trace) <= 1e-6
    # an exit below the budget needs no certificate
    trace = run(40, Continuation())
    assert trace.converged and trace.exit_residual is None


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
@given(weighted_planted(), st.integers(4, 30), st.sampled_from([Zero(), FistaLike(20)]))
def test_rc_grows_from_its_small_start_to_the_optimum(case, extra, rule):
    # with FistaLike, the momentum restarts must not keep rc from pgd's optimum
    p, k = case
    cap = k + extra
    stop = Stopping(1e-11, 0.0, 3000)
    ref = pgd_solve(p, SolverConfig(rule=rule, stop=stop))
    assert ref.converged and ref.final_rank == k
    trace = prograamme_solve(p, SolverConfig(r=cap, rule=rule, inner=FixedI(1), stop=stop,
                                             continuation=Continuation(enabled=True)),
                             seed=1)
    assert trace.converged
    assert max(trace.column("r")) <= cap
    dist = np.linalg.norm(trace.X - ref.X) / max(np.linalg.norm(ref.X), 1.0)
    assert dist <= 1e-6
    assert solver._prox_residual(p, trace.X, trace.gamma) <= 1e-6
    if k > solver._RANK_MARGIN:
        assert any("grown" in note for note in trace.notes)


def test_exact_prox_budget_is_inert(monkeypatch):
    # pgd's budget is min(m, n): X filling it does not bind, and continuation
    # neither cuts nor grows it
    rng = np.random.default_rng(4)
    m, n = 12, 8
    F = rng.standard_normal((m, n))
    W = rng.uniform(0.8, 1.0, size=(m, n))
    # rank 8 = min(m, n) at the tiny tau; rank 3 at tau = 3 sits more than
    # the margin below the budget, where rc would cut at once
    monkeypatch.setattr(solver, "_CADENCE", 1)
    for tau, full in ((1e-8, True), (3.0, False)):
        p = Problem(Identity((m, n)), F, W, tau)
        for rule in (Zero(), FistaLike()):
            cfg = SolverConfig(rule=rule, stop=Stopping(1e-10, 0.0, 3000),
                               continuation=Continuation(enabled=True))
            trace = pgd_solve(p, cfg)
            assert trace.converged
            assert (trace.final_rank == min(m, n)) is full
            assert set(trace.column("r")) == {min(m, n)}
            assert set(trace.column("inner_iters")) == {0}
            assert trace.exit_residual is None
            assert not any("rank budget" in note for note in trace.notes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_step_raises():
    p, _ = small_completion_problem()
    L = 1.0  # unit weights, mask operator
    # the SVT step refuses the non-finite gradient step; the alternating
    # passes overflow first, on a finite gradient step
    for solve, continuation, phase in (
            (pgd_solve, False, "^gradient step became non-finite"),
            (prograamme_solve, False, "^inner solve became non-finite"),
            (prograamme_solve, True, "^inner solve became non-finite")):
        cfg = SolverConfig(gamma=50.0 / L, stop=Stopping(0.0, 0.0, 5000),
                           continuation=Continuation(enabled=continuation))
        with pytest.raises(DivergenceError, match=phase) as exc_info:
            solve(p, cfg)
        trace = exc_info.value.trace
        assert trace is not None and len(trace.records) == trace.iterations > 0
    # FISTA diverges as well, and its trace keeps the notes the run wrote:
    # the FISTA-bound note, and rc's budget moves before the divergence
    for solve, continuation in ((pgd_solve, False), (prograamme_solve, False),
                                (prograamme_solve, True)):
        cfg = SolverConfig(gamma=50.0 / L, rule=FistaLike(20), stop=Stopping(0.0, 0.0, 5000),
                           continuation=Continuation(enabled=continuation))
        with pytest.raises(DivergenceError, match="became non-finite") as exc_info:
            solve(p, cfg)
        trace = exc_info.value.trace
        assert trace is not None and trace.iterations > 0
        assert trace.notes[0].startswith("step size meets or exceeds the classical FISTA bound")
        grown = [note for note in trace.notes if note.startswith("rank budget grown")]
        assert bool(grown) == continuation
        assert trace.notes == (trace.notes[0], *grown)


def test_set_up_is_on_the_clock(monkeypatch):
    # each solve is timed from its first line: a Lipschitz bound made 50 ms
    # slow shows in the first elapsed_s and in seconds
    p, _ = small_completion_problem()
    bound = operators.lipschitz_bound

    def slow_bound(p):
        time.sleep(0.05)
        return bound(p)

    monkeypatch.setattr(operators, "lipschitz_bound", slow_bound)
    for solve in (pgd_solve, prograamme_solve):
        trace = solve(p, SolverConfig(r=6, stop=Stopping(1e-8, 0.0, 500)))
        assert trace.converged
        assert trace.records[0].elapsed_s >= 0.05 and trace.seconds >= 0.05


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_iterations_count_the_records():
    # converged, at the iteration cap and diverged alike, the clock never
    # runs backwards and seconds covers the last record
    p, _ = small_completion_problem()
    converged = prograamme_solve(p, SolverConfig(r=10, stop=Stopping(1e-8, 0.0, 2000)))
    capped = pgd_solve(p, SolverConfig(stop=Stopping(0.0, 0.0, 7)))
    with pytest.raises(DivergenceError) as exc_info:
        pgd_solve(p, SolverConfig(gamma=50.0, stop=Stopping(0.0, 0.0, 5000)))
    diverged = exc_info.value.trace
    assert converged.converged and not capped.converged and capped.iterations == 7
    for trace in (converged, capped, diverged):
        assert trace.iterations == len(trace.records) > 0
        elapsed = trace.column("elapsed_s")
        assert elapsed == sorted(elapsed) and trace.seconds >= elapsed[-1]


def small_sensing_problem():
    spec = problems.SyntheticSpec(
        10, 8, 2, noise=problems.AdditiveGaussian(0.1), sensing_dim=60, seed=3
    )
    gen = problems.generate_full(spec)
    return gen.problem(gen.noise_norm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["completion", "sensing"])
@pytest.mark.parametrize("solve", [pgd_solve, prograamme_solve])
def test_non_finite_extrapolation_is_a_divergence(monkeypatch, kind, solve):
    # an inertial value that overflows the extrapolation Y at iteration 2:
    # the fused step of completion and operators.gradient of sensing both
    # end in DivergenceError, not in a bare NonFiniteError
    p = small_completion_problem()[0] if kind == "completion" else small_sensing_problem()
    monkeypatch.setattr(solver, "inertial_value",
                        lambda rule, k, step_prev=0.0: 0.0 if k == 1 else np.inf)
    cfg = SolverConfig(r=6, stop=Stopping(0.0, 0.0, 10))
    with pytest.raises(DivergenceError,
                       match="^gradient step became non-finite at iteration 2 ") as exc_info:
        solve(p, cfg)
    trace = exc_info.value.trace
    assert trace is not None and trace.iterations == 1
    assert [rec.k for rec in trace.records] == [1]
    assert np.all(np.isfinite(trace.X))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_product_of_finite_factors_raises(monkeypatch):
    # the factors are finite but their product is not: the step norm is then
    # not finite either, and that alone must lead to the check of X
    p, _ = small_completion_problem()

    def overflowing(Z, mu, start, policy, k=1):
        return FactorPair(np.full(start.U.shape, 1e200), np.full(start.V.shape, 1e200)), 1

    monkeypatch.setattr(amfit, "inner_solve", overflowing)
    with pytest.raises(DivergenceError,
                       match="iterate became non-finite at iteration 1 ") as exc_info:
        prograamme_solve(p, SolverConfig(r=4))
    trace = exc_info.value.trace
    assert trace is not None and trace.records == [] and trace.iterations == 0


@pytest.mark.parametrize("kind", ["completion", "sensing"])
@pytest.mark.parametrize("algo", ["pgd", "plain", "rc"])
@pytest.mark.parametrize("rule", [Constant(0.5), FistaLike(20), Online()], ids=repr)
def test_extrapolation_is_the_last_step(monkeypatch, kind, algo, rule):
    # the point each iteration hands to the gradient step is
    # Y_k = X_k-1 + a_k (X_k-1 - X_k-2), with X_0 = X_-1 = 0
    p = small_completion_problem()[0] if kind == "completion" else small_sensing_problem()
    Ys, Xs, As = [], [], []
    op_type = type(p.op)
    make_step = op_type.gradient_step

    def spying_gradient_step(op, p, gamma):
        step = make_step(op, p, gamma)

        def spy(Y):
            Ys.append(Y.copy())
            return step(Y)
        return spy

    value = solver.inertial_value
    Ks = []

    def spying_value(rule, k, step_norm_prev=0.0):
        Ks.append(k)
        As.append(value(rule, k, step_norm_prev))
        return As[-1]

    exact = algo == "pgd"
    owner, name = (prox, "svt_with_rank") if exact else (FactorPair, "product")
    form = getattr(owner, name)

    def spying_form(*args):
        out = form(*args)
        Xs.append((out[0] if exact else out).copy())
        return out

    monkeypatch.setattr(op_type, "gradient_step", spying_gradient_step)
    monkeypatch.setattr(solver, "inertial_value", spying_value)
    monkeypatch.setattr(owner, name, spying_form)
    cfg = SolverConfig(r=8, rule=rule, stop=Stopping(1e-8, 0.0, 200),
                       continuation=Continuation(enabled=algo == "rc"))
    trace = (pgd_solve if exact else prograamme_solve)(p, cfg, seed=1)
    assert len(Ys) == len(Xs) == len(As) == trace.iterations > 5
    assert max(As) > 0.0 and np.array_equal(Xs[-1], trace.X)
    zero = np.zeros(p.domain_shape)
    X = [zero, zero] + Xs
    for k in range(1, trace.iterations + 1):
        assert np.array_equal(Ys[k - 1], X[k] + As[k - 1] * (X[k] - X[k - 1])), k
    # FISTA's counter starts again after each step that the momentum pointed
    # against, a <D_prev, D> > |D|^2; the other rules count every iteration
    if isinstance(rule, FistaLike):
        restart = [As[k - 1] * np.vdot(X[k] - X[k - 1], X[k + 1] - X[k])
                   > np.linalg.norm(X[k + 1] - X[k]) ** 2
                   for k in range(1, trace.iterations)]
        assert Ks == [1] + [1 if fired else k + 1 for k, fired in zip(Ks, restart)]
    else:
        assert Ks == list(range(1, trace.iterations + 1))


def textbook_gradient(p, X):
    return p.op.adjoint((operators.apply(p.op, X) - p.F) * p.W_tilde)


def test_gradient_step_leaves_solves_bit_identical(monkeypatch):
    # the loop of dense sensing calls operators.gradient; the fused step of
    # completion does not, but its exit certificate does
    completion = problems.SyntheticSpec(
        40, 30, 3, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5,
        weights=problems.LargeOnSupport(0.2, 1.5, 4.0), seed=5,
    )
    sensing = problems.SyntheticSpec(
        12, 10, 2, noise=problems.AdditiveGaussian(0.1), sensing_dim=90,
        weights=problems.LargeOnSupport(0.2, 1.5, 4.0), seed=5,
    )
    stop = Stopping(1e-8, 0.0, 150)
    runs = []
    for spec in (completion, sensing):
        gen = problems.generate_full(spec)
        p = gen.problem(gen.noise_norm)
        runs += [
            lambda p=p: prograamme_solve(p, SolverConfig(r=12, stop=stop), seed=1),
            lambda p=p: prograamme_solve(p, SolverConfig(r=12, stop=stop, rule=Constant(0.5)),
                                         seed=1),
            lambda p=p: prograamme_solve(p, SolverConfig(r=12, stop=stop,
                                                         continuation=Continuation(enabled=True)),
                                         seed=1),
            lambda p=p: prograamme_solve(p, SolverConfig(r=12, stop=stop, rule=Constant(0.5),
                                                         continuation=Continuation(enabled=True)),
                                         seed=1),
            lambda p=p: pgd_solve(p, SolverConfig(stop=stop)),
            lambda p=p: pgd_solve(p, SolverConfig(stop=stop, rule=FistaLike(20))),
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


weight_kinds = st.sampled_from([problems.AllOnes(), problems.UniformInt(1, 10),
                                problems.LargeOnSupport(0.3, 1.5, 4.0)])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**32 - 1), weight_kinds,
       st.sampled_from([None, 0.3, 0.7]), st.sampled_from([1.0, 0.5, 0.01]),
       st.sampled_from([0.0, 0.4]))
def test_fused_gradient_step_matches_the_gradient(m, n, seed, weights, mask_fraction,
                                                  gamma_L, a):
    # Z = A . Y + C against Y - gamma grad f(Y), for every step gamma <= 1/L
    spec = problems.SyntheticSpec(m, n, 1, noise=problems.AdditiveGaussian(0.5),
                                  weights=weights, mask_fraction=mask_fraction, seed=seed)
    gen = problems.generate_full(spec)
    if not np.any(gen.W):
        return
    p = gen.problem(1.0)
    gamma = gamma_L / operators.lipschitz_bound(p)
    rng = np.random.default_rng(seed)
    X, X_prev = 10.0 * rng.standard_normal((2, m, n))
    Y = X + a * (X - X_prev)
    step = p.op.gradient_step(p, gamma)
    # the cache shares F when gamma W_tilde . F is F; this reads the private
    # layout of the step, a partial over (A, C, Z)
    assert (step.args[1] is p.F) == np.array_equal(gamma * p.W_tilde * p.F, p.F)
    Z = step(Y)
    ref = Y - gamma * operators.gradient(p, Y)
    eps = np.finfo(float).eps
    assert np.all(np.abs(Z - ref) <= 8 * eps * (np.abs(Y) + np.abs(p.F)))
    one = gamma * p.W_tilde == 1.0
    assert np.array_equal(Z[one], p.F[one])
    off = p.W_tilde == 0.0
    assert np.array_equal(Z[off], Y[off])
    if gamma_L == 1.0 and isinstance(weights, problems.AllOnes):
        # unit weights at gamma = 1: F on the observed set, Y off it
        assert np.array_equal(Z, np.where(off, Y, p.F))


def test_sensing_gradient_step_is_the_textbook_step():
    # dense sensing steps through operators.gradient, bit for bit
    spec = problems.SyntheticSpec(6, 5, 1, noise=problems.AdditiveGaussian(0.5),
                                  weights=problems.UniformInt(1, 10), sensing_dim=20, seed=3)
    p = problems.generate_full(spec).problem(1.0)
    rng = np.random.default_rng(3)
    for gamma_L in (1.0, 0.5, 0.01):
        gamma = gamma_L / operators.lipschitz_bound(p)
        step = p.op.gradient_step(p, gamma)
        for _ in range(3):
            Y = 10.0 * rng.standard_normal(p.domain_shape)
            assert np.array_equal(step(Y), Y - gamma * operators.gradient(p, Y))


def textbook_step(op, p, gamma):
    return lambda Y: Y - gamma * operators.gradient(p, Y)


def test_fused_gradient_step_tracks_the_textbook_step(monkeypatch):
    # the fused step rounds differently from Y - gamma (Y - F) . W_tilde, so
    # the solves agree to rounding, with the same path, not bit for bit
    spec = problems.SyntheticSpec(
        40, 30, 3, noise=problems.AdditiveGaussian(0.1), mask_fraction=0.5,
        weights=problems.LargeOnSupport(0.2, 1.5, 4.0), seed=5,
    )
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    stop = Stopping(1e-8, 0.0, 3000)
    cfgs = [SolverConfig(r=12, stop=stop, rule=rule, continuation=Continuation(enabled=rc))
            for rule in (Zero(), Constant(0.5)) for rc in (False, True)]
    runs = [lambda cfg=cfg: prograamme_solve(p, cfg, seed=1) for cfg in cfgs] + [
        lambda: pgd_solve(p, SolverConfig(stop=stop)),
        lambda: pgd_solve(p, SolverConfig(stop=stop, rule=FistaLike(20)))]

    def outcome(run):
        trace = run()
        assert trace.converged
        return (trace.iterations, trace.column("rank_x"), trace.column("r"), trace.notes,
                trace.X)

    fused = [outcome(run) for run in runs]
    monkeypatch.setattr(operators.Identity, "gradient_step", textbook_step)
    monkeypatch.setattr(operators, "gradient", textbook_gradient)
    for (*path, X), run in zip(fused, runs):
        *ref_path, ref_X = outcome(run)
        assert path == ref_path
        assert np.linalg.norm(X - ref_X) <= 1e-9 * np.linalg.norm(ref_X)


def test_weighted_completion_reaches_pgd():
    # integer weights in [1, 10] on half the entries: L = 100, so gamma = 1/100
    # and the fused step runs with gamma W_tilde between 0.01 and 1; at
    # tau = 10 noise_norm the optimum has rank 7, inside r = 10, and rc grows
    # to it from its start at 4
    spec = problems.SyntheticSpec(40, 40, 3, noise=problems.AdditiveGaussian(0.1),
                                  mask_fraction=0.5, weights=problems.UniformInt(1, 10),
                                  seed=3)
    gen = problems.generate_full(spec)
    p = gen.problem(10.0 * gen.noise_norm)
    assert operators.lipschitz_bound(p) == 100.0
    stop = Stopping(1e-11, 0.0, 5000)
    ref = pgd_solve(p, SolverConfig(stop=stop))
    assert ref.converged and ref.gamma == 0.01
    assert ref.final_rank == 7
    for rc in (True, False):
        trace = prograamme_solve(p, SolverConfig(r=10, stop=stop,
                                                 continuation=Continuation(enabled=rc)),
                                 seed=1)
        assert trace.converged and trace.final_rank == 7
        assert solver._prox_residual(p, trace.X, trace.gamma) <= 1e-6
        assert np.linalg.norm(trace.X - ref.X) <= 1e-8 * np.linalg.norm(ref.X)
        assert any("grown" in note for note in trace.notes) is rc


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


def test_fista_stepsize_note():
    p, _ = small_completion_problem()
    cfg = SolverConfig(rule=FistaLike(20.0), stop=Stopping(1e-8, 0.0, 1000))
    trace = pgd_solve(p, cfg)
    assert any("FISTA" in note for note in trace.notes)
    # at weight 7, L = 49 and gamma * L rounds to 1 - 2^-53, yet gamma is 1/L
    p7 = Problem(p.op, p.F, 7.0 * p.W, p.tau)
    trace = pgd_solve(p7, SolverConfig(rule=FistaLike(20.0), stop=Stopping(1e-8, 0.0, 5)))
    assert trace.gamma * trace.lipschitz < 1.0
    assert any("FISTA" in note for note in trace.notes)


@pytest.mark.parametrize("field, value", [("max_iter", 0), ("max_iter", -3),
                                          ("step_tol", -1e-12), ("step_tol", float("nan")),
                                          ("rel_step_tol", -1e-4),
                                          ("rel_step_tol", float("nan"))])
def test_stopping_validation(field, value):
    # max_iter 0 would run no iteration and report no convergence; a negative
    # or NaN tolerance would silently turn its stop off
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        Stopping(**{field: value})
    # a zero tolerance turns its rule off on purpose
    Stopping(step_tol=0.0, rel_step_tol=0.0, max_iter=1)


@pytest.mark.parametrize("make, field", [
    (lambda: SolverConfig(gamma=float("nan")), "gamma"),
    (lambda: SolverConfig(gamma=float("inf")), "gamma"),
    (lambda: Online(c=float("nan")), "c and delta"),
    (lambda: Online(delta=float("nan")), "c and delta"),
    (lambda: Tolerance(eps=float("nan")), "eps"),
    (lambda: Tolerance(eps=-1.0), "eps"),
    (lambda: Problem(Identity((2, 2)), np.ones((2, 2)), np.ones((2, 2)), float("inf")), "tau"),
    (lambda: FixedI(float("nan")), "passes"),
    (lambda: Stopping(max_iter=float("nan")), "max_iter"),
    (lambda: Stopping(max_iter=float("inf")), "max_iter must be >= 1"),
    (lambda: SolverConfig(r=float("inf")), "r must be >= 1"),
    (lambda: SolverConfig(r=2.5), "r must be >= 1"),
    (lambda: SolverConfig(r=True), "r must be >= 1"),
], ids=["gamma-nan", "gamma-inf", "online-c-nan", "online-delta-nan", "eps-nan",
        "eps-negative", "tau-inf", "passes-nan", "max-iter-nan", "max-iter-inf", "r-inf",
        "r-fraction", "r-bool"])
def test_config_refuses_nan_and_inf(make, field):
    # a NaN gamma or an infinite tau used to fail later, as a non-finite
    # iterate, blaming the iteration for a bad input
    with pytest.raises(ValueError, match=field):
        make()
    # c = inf caps nothing: the rule is the constant a
    assert inertial_value(Online(a=0.3, c=float("inf")), 5, 1e-3) == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(r=0)
    # the rank read uses DEFAULT_RANK_TOL; a loose tolerance made rc read
    # rank 0 and report convergence far from the optimum; rc moves its
    # budget after _CADENCE equal reads
    with pytest.raises(TypeError):
        Continuation(enabled=True, rank_tol=1.0)
    with pytest.raises(TypeError):
        Continuation(cadence=0)
