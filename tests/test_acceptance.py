"""Acceptance gate: end-to-end behavioral checks of the solver package.

Each test prints one PASS line with the measured quantity so the suite
doubles as a short report. The heavier solver runs are shared through
module-scoped fixtures.
"""

import re
import time

import numpy as np
import pytest

from lowrank import problems
from lowrank.amfit import FixedI, Tolerance, inner_solve, random_pair
from lowrank.cli import run_bench
from lowrank.linalg import DEFAULT_RANK_TOL
from lowrank.operators import (DenseSensing, Identity, Problem,
                               gradient, lipschitz_bound, loss)
from lowrank.problems import AdditiveGaussian, SyntheticSpec, UniformInt
from lowrank.prox import svt_with_rank
from lowrank.solver import (_RANK_MARGIN, Continuation, SolverConfig, Stopping,
                            pgd_solve, prograamme_solve)

from helpers import condition_number_sweep, objective_path


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _rank(X):
    """Singular values of X above DEFAULT_RANK_TOL times the largest, as the solvers count."""
    return int(np.linalg.matrix_rank(X, tol=DEFAULT_RANK_TOL * np.linalg.norm(X, 2)))


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def completion50():
    """50x50 completion instance plus converged runs of both solvers."""
    spec = SyntheticSpec(50, 50, 3, noise=AdditiveGaussian(0.1),
                         mask_fraction=0.5, seed=1)
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    stop = Stopping(step_tol=1e-10, max_iter=5000)
    t0 = time.perf_counter()
    prog, prog_obj = objective_path(
        prograamme_solve, p, SolverConfig(r=10, inner=Tolerance(1e-10, 500), stop=stop),
        seed=1,
    )
    pgd, pgd_obj = objective_path(pgd_solve, p, SolverConfig(stop=stop))
    wall = time.perf_counter() - t0
    return {"problem": p, "gen": gen, "prog": prog, "pgd": pgd, "wall": wall,
            "prog_obj": prog_obj, "pgd_obj": pgd_obj}


@pytest.fixture(scope="module")
def sensing100():
    """100x100 rank-4 dense-sensing instance plus runs of both solvers."""
    spec = SyntheticSpec(100, 100, 4, noise=AdditiveGaussian(0.3),
                         sensing_dim=2352, seed=7)
    gen = problems.generate_full(spec)
    p = gen.problem(2.0 * gen.noise_norm)
    stop = Stopping(step_tol=1e-8, max_iter=1500)
    t0 = time.perf_counter()
    prog = prograamme_solve(
        p, SolverConfig(r=20, inner=FixedI(1), stop=stop), seed=1
    )
    pgd, pgd_obj = objective_path(pgd_solve, p, SolverConfig(stop=stop))
    wall = time.perf_counter() - t0
    return {"problem": p, "prog": prog, "pgd": pgd, "wall": wall, "pgd_obj": pgd_obj}


@pytest.fixture(scope="module")
def timing400():
    """400x400 rank-10 completion timing comparison, 5 repeats."""
    repeats = 5
    runs = {"rc": [], "plain": [], "svt": []}
    stop = Stopping(step_tol=1e-8, max_iter=3000)
    t0 = time.perf_counter()
    for rep in range(repeats):
        spec = SyntheticSpec(400, 400, 10, noise=AdditiveGaussian(0.1),
                             mask_fraction=0.5, seed=11 + rep)
        gen = problems.generate_full(spec)
        p = gen.problem(gen.noise_norm)
        runs["rc"].append(prograamme_solve(
            p,
            SolverConfig(r=200, inner=FixedI(1), stop=stop,
                         continuation=Continuation(enabled=True)),
            seed=1,
        ))
        runs["plain"].append(prograamme_solve(
            p, SolverConfig(r=200, inner=FixedI(1), stop=stop), seed=1
        ))
        runs["svt"].append(pgd_solve(p, SolverConfig(stop=stop)))
    runs["wall"] = time.perf_counter() - t0
    return runs


# ---------------------------------------------------------------------------
# criteria

def test_inner_loop_matches_svt():
    # factored inner solve reproduces singular value thresholding whenever
    # the factor budget covers the thresholded rank. The alternating passes
    # contract each singular mode at rate ((2*mu - s)/s)^2, which approaches
    # 1 when a singular value s sits just above the threshold mu, so the
    # pass cap must be generous to cover near-threshold draws
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        Z = rng.standard_normal((20, 20))
        for mu in (0.1, 1.0, 5.0):
            target, rank = svt_with_rank(Z, mu)
            pair = random_pair(20, 20, max(rank, 1), rng)
            pair, _ = inner_solve(Z, mu, pair, Tolerance(1e-10, 5000))
            err = np.linalg.norm(pair.product() - target)
            bound = 1e-6 * max(np.linalg.norm(Z), 1.0)
            assert err <= bound, f"instance {i}, mu={mu}: {err:.3e} > {bound:.3e}"
            worst = max(worst, err)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    _report("inner loop matches SVT", f"worst error {worst:.2e}, {wall:.1f}s")


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    mask = (rng.random((5, 4)) < 0.6).astype(float)
    mask[0, 0] = 1.0
    # completion is the identity with W zero off the mask
    ops = [
        (Identity((5, 4)), 1.0),
        (Identity((5, 4)), mask),
        (DenseSensing(rng.standard_normal((9, 20)), (5, 4)), 1.0),
    ]
    for op, m in ops:
        for _ in range(20):
            X = rng.standard_normal(op.domain_shape)
            F = rng.standard_normal(op.codomain_shape) * m
            W = rng.uniform(0.5, 3.0, size=op.codomain_shape) * m
            p = Problem(op, F, W, 1.0)
            G = gradient(p, X)
            FD = np.zeros_like(X)
            for i in range(X.shape[0]):
                for j in range(X.shape[1]):
                    E = np.zeros_like(X)
                    E[i, j] = h
                    FD[i, j] = (loss(p, X + E) - loss(p, X - E)) / (2 * h)
            rel = np.linalg.norm(G - FD) / max(np.linalg.norm(FD), 1.0)
            assert rel <= 1e-5
            worst = max(worst, rel)
    wall = time.perf_counter() - t0
    assert wall < 5.0
    _report("gradient vs finite differences", f"worst rel error {worst:.2e}")


def test_gradient_lipschitz_bound_holds():
    rng = np.random.default_rng(2)
    mask = (rng.random((8, 7)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    # completion is the identity with W zero off the mask
    ops = [
        (Identity((8, 7)), 1.0),
        (Identity((8, 7)), mask),
        (DenseSensing(rng.standard_normal((15, 56)), (8, 7)), 1.0),
    ]
    violations = 0
    for op, m in ops:
        F = rng.standard_normal(op.codomain_shape) * m
        W = rng.uniform(0.0, 4.0, size=op.codomain_shape) * m
        W.flat[0] = 1.0
        p = Problem(op, F, W, 1.0)
        L = lipschitz_bound(p)
        for _ in range(100):
            X = rng.standard_normal(op.domain_shape)
            Y = rng.standard_normal(op.domain_shape)
            lhs = np.linalg.norm(gradient(p, X) - gradient(p, Y))
            # tiny multiplicative guard for floating-point rounding only
            if lhs > L * np.linalg.norm(X - Y) * (1 + 1e-10):
                violations += 1
    assert violations == 0
    _report("Lipschitz bound", "0 violations in 300 sampled pairs")


def test_solvers_agree_on_completion_instance(completion50):
    prog, pgd = completion50["prog"], completion50["pgd"]
    assert prog.converged and pgd.converged
    dist = np.linalg.norm(prog.X - pgd.X) / max(np.linalg.norm(pgd.X), 1.0)
    assert dist <= 1e-6
    assert completion50["wall"] < 30.0
    _report("solver agreement",
            f"relative distance {dist:.2e} after {prog.iterations}/{pgd.iterations} iters")


def test_rank_identification_on_sensing_instance(sensing100):
    prog, pgd = sensing100["prog"], sensing100["pgd"]
    assert prog.converged and pgd.converged
    target = _rank(pgd.X)
    hit_at = {}
    for name, trace in (("factored", prog), ("svt", pgd)):
        ranks = trace.column("rank_x")
        # rank trace must settle on a constant before termination
        first = next(i for i in range(len(ranks))
                     if all(r == ranks[i] for r in ranks[i:]))
        assert first < len(ranks) - 1, f"{name} never settled"
        assert ranks[-1] == target, f"{name} settled at {ranks[-1]} != {target}"
        hit_at[name] = first + 1
    assert sensing100["wall"] < 60.0
    _report("rank identification",
            f"both solvers hold rank {target}; identified at iterations "
            f"{hit_at['factored']} and {hit_at['svt']}")


def test_timing_ordering(timing400):
    means = {name: float(np.mean([t.seconds for t in timing400[name]]))
             for name in ("rc", "plain", "svt")}
    for name in ("rc", "plain", "svt"):
        assert all(t.converged for t in timing400[name])
    assert means["rc"] <= means["plain"]
    assert means["plain"] <= 0.5 * means["svt"]
    assert timing400["wall"] < 300.0
    _report("timing ordering",
            f"mean seconds rc={means['rc']:.2f} <= plain={means['plain']:.2f}"
            f" <= 0.5*svt={0.5 * means['svt']:.2f}")


def test_rank_continuation_monotone(timing400):
    # rc's budget starts small, grows while the rank of X fills it, then
    # only shrinks, and ends within a margin of the planted rank 10
    move = re.compile(r"rank budget (cut|grown) from (\d+) to (\d+) at iteration (\d+)")
    for trace in timing400["rc"]:
        rs = trace.column("r")
        before = [min(200, _RANK_MARGIN)] + rs[:-1]
        moves = [("cut" if b < a else "grown", a, b, k)
                 for k, a, b in zip(trace.column("k"), before, rs) if a != b]
        noted = [(m[1], int(m[2]), int(m[3]), int(m[4]))
                 for m in map(move.fullmatch, trace.notes) if m]
        assert noted == moves
        assert max(rs) <= 200
        grows = [k for verb, _, _, k in moves if verb == "grown"]
        tail = rs[grows[-1] - 1:] if grows else rs
        assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert trace.final_rank == 10
        assert _rank(trace.X) == 10
        assert 10 <= rs[-1] <= 10 + _RANK_MARGIN
    _report("rank continuation",
            "r <= 200 and nonincreasing after its last growth in all 5 runs, "
            "final rank 10 (planted)")


def test_objective_descent(timing400, completion50, sensing100):
    worst = 0.0
    checked = 0
    # the objective paths of the shared instances all come from rule Zero
    # and gamma = 1/L; the timing runs skip the objective's SVD for honest
    # clocks, so one extra run covers the 400x400 instance
    spec = SyntheticSpec(400, 400, 10, noise=AdditiveGaussian(0.1),
                         mask_fraction=0.5, seed=11)
    gen = problems.generate_full(spec)
    _, big = objective_path(
        prograamme_solve, gen.problem(gen.noise_norm),
        SolverConfig(r=200, inner=Tolerance(1e-8, 50), stop=Stopping(1e-8, max_iter=3000)),
        seed=1,
    )
    for obj in (completion50["prog_obj"], completion50["pgd_obj"],
                sensing100["pgd_obj"], big):
        for prev, cur in zip(obj, obj[1:]):
            rel_increase = (cur - prev) / max(abs(prev), 1.0)
            assert rel_increase <= 1e-12
            worst = max(worst, rel_increase)
            checked += 1
    _report("objective descent",
            f"{checked} consecutive pairs, worst relative increase {worst:.1e}")


def test_inertial_sweep_bench(tmp_path):
    spec = {
        "m": 50, "n": 50, "rank": 3,
        "noise": {"type": "AdditiveGaussian", "sigma": 0.1},
        "weights": {"type": "AllOnes"},
        "mask_fraction": 0.5, "seed": 1,
    }
    config = {
        "tau": "noise_norm", "r": 10,
        "inner": {"type": "Tolerance", "eps": 1e-8, "max_inner": 50},
        "stop": {"step_tol": 1e-8, "max_iter": 3000},
    }
    rules = [
        ("a0", {"type": "Zero"}),
        ("a14", {"type": "Constant", "a": 0.25}),
        ("a12", {"type": "Constant", "a": 0.5}),
        ("a34", {"type": "Constant", "a": 0.75}),
        ("fista20", {"type": "FistaLike", "d": 20}),
    ]
    suite = {"seed": 0, "runs": [
        {"name": name, "algorithm": "prograamme", "spec": spec,
         "config": dict(config, rule=rule)} for name, rule in rules
    ]}
    rows = run_bench(suite, tmp_path, repeats=1)
    assert len(rows) == 5
    assert all(row["all_converged"] for row in rows)
    assert (tmp_path / "aggregate.csv").exists()
    by_iters = sorted(rows, key=lambda r: r["mean_iterations"])
    ordering = ", ".join(f"{r['name']}={r['mean_iterations']:.0f}" for r in by_iters)
    _report("inertial sweep", f"5 rows, all converged; iterations: {ordering}")


def test_weight_conditioning_sweep():
    # iterations-to-tolerance for the factored solver must stay within a
    # 10x band as the weight conditioning degrades across the sweep
    max_weights = [10, 50, 100, 500, 1000, 5000, 10**4, 5 * 10**4, 10**5,
                   5 * 10**6, 10**7]
    base = SyntheticSpec(100, 100, 5, noise=AdditiveGaussian(1.0),
                         weights=UniformInt(1, 10), seed=21)
    # at tau = 10 w_max^2 the optimum has rank 5 at every w_max, inside the
    # budget r=10, so each factored run must stop below its budget
    sweep = condition_number_sweep(
        base, max_weights, tau=lambda w: 10.0 * w**2
    )
    prog_iters, pgd_iters, kappas = [], [], []
    for (p, kappa), w_max in zip(sweep, max_weights):
        prog = prograamme_solve(
            p,
            SolverConfig(r=10, inner=Tolerance(1e-4, 20),
                         stop=Stopping(0.0, rel_step_tol=1e-4, max_iter=5000)),
            seed=1,
        )
        pgd = pgd_solve(
            p, SolverConfig(stop=Stopping(0.0, rel_step_tol=1e-4, max_iter=2000))
        )
        assert prog.converged, f"factored solver stalled at w_max={w_max}"
        assert prog.exit_residual is None, f"budget binds at w_max={w_max}"
        prog_iters.append(prog.iterations)
        pgd_iters.append(pgd.iterations)
        kappas.append(kappa)
    ratio = max(prog_iters) / min(prog_iters)
    assert ratio < 10.0
    print("  w_max     kappa_W      factored  svt")
    for w_max, kappa, a, b in zip(max_weights, kappas, prog_iters, pgd_iters):
        print(f"  {w_max:<10d}{kappa:<13.1f}{a:<10d}{b}")
    _report("weight conditioning",
            f"iteration spread {ratio:.2f}x over kappa_W in "
            f"[{min(kappas):.0f}, {max(kappas):.0f}]")


def test_traces_are_reproducible(completion50, sensing100):
    def strip_elapsed(trace):
        return [(rec.k, rec.step_norm, rec.rank_x, rec.r, rec.inner_iters)
                for rec in trace.records]

    spec = SyntheticSpec(50, 50, 3, noise=AdditiveGaussian(0.1),
                         mask_fraction=0.5, seed=1)
    gen = problems.generate_full(spec)
    p = gen.problem(gen.noise_norm)
    again, again_obj = objective_path(
        prograamme_solve, p,
        SolverConfig(r=10, inner=Tolerance(1e-10, 500), stop=Stopping(1e-10, max_iter=5000)),
        seed=1,
    )
    assert strip_elapsed(again) == strip_elapsed(completion50["prog"])
    assert again_obj == completion50["prog_obj"]
    np.testing.assert_array_equal(again.X, completion50["prog"].X)

    spec2 = SyntheticSpec(100, 100, 4, noise=AdditiveGaussian(0.3),
                          sensing_dim=2352, seed=7)
    gen2 = problems.generate_full(spec2)
    again2 = prograamme_solve(
        gen2.problem(2.0 * gen2.noise_norm),
        SolverConfig(r=20, inner=FixedI(1), stop=Stopping(1e-8, max_iter=1500)),
        seed=1,
    )
    assert strip_elapsed(again2) == strip_elapsed(sensing100["prog"])
    np.testing.assert_array_equal(again2.X, sensing100["prog"].X)
    _report("determinism", "both shared instances reproduce bit-identically")
