import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from lowrank import cli, problems, solver
from lowrank.amfit import FixedI, Tolerance
from lowrank.exceptions import DimensionError, LowRankError
from lowrank.problems import (AdditiveGaussian, AllOnes, GaussianScaled,
                              LargeOnSupport, SparseLarge, SyntheticSpec,
                              UniformInt)
from lowrank.solver import Constant, FistaLike, SolverConfig, Stopping, Zero

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = {
    "m": 30,
    "n": 30,
    "rank": 3,
    "noise": {"type": "AdditiveGaussian", "sigma": 0.1},
    "weights": {"type": "AllOnes"},
    "mask_fraction": 0.5,
    "seed": 1,
}

CONFIG = {
    "tau": "noise_norm",
    "r": 10,
    "inner": {"type": "tolerance", "eps": 1e-8, "max_inner": 50},
    "stop": {"step_tol": 1e-8, "max_iter": 2000},
    "seed": 1,
}

# a bench run takes its seed from the suite, so its config holds none
BENCH_CONFIG = {key: value for key, value in CONFIG.items() if key != "seed"}


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def make_problem_dir(tmp_path, runner, spec=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec_file = tmp_path / "spec.json"
    write_json(spec_file, spec or SPEC)
    prob_dir = tmp_path / "prob"
    result = runner.invoke(
        cli.main, ["generate", "--spec", str(spec_file), "--out", str(prob_dir)]
    )
    assert result.exit_code == 0, result.output
    return prob_dir


def test_generate_writes_artifacts(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    names = sorted(p.name for p in prob_dir.iterdir())
    # the mask is folded into F.csv and W.csv; no mask.csv is written
    assert names == ["F.csv", "W.csv", "ground_truth.csv", "manifest.json", "noise.csv"]
    with open(prob_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 1
    assert manifest["shapes"]["F"] == [30, 30]
    assert manifest["noise_norm"] > 0.0


def test_generate_is_byte_identical_for_same_seed(tmp_path, runner):
    d1 = make_problem_dir(tmp_path / "a", runner)
    d2 = make_problem_dir(tmp_path / "b", runner)
    for name in ("F.csv", "W.csv", "ground_truth.csv", "noise.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("kind", [{}, {"mask_fraction": 0.5}, {"sensing_dim": 40}],
                         ids=["identity", "mask", "sensing"])
def test_problem_dir_round_trips(tmp_path, kind):
    spec = problems.SyntheticSpec(8, 6, 2, noise=problems.AdditiveGaussian(0.1),
                                  weights=problems.UniformInt(1, 5), seed=3, **kind)
    gen = problems.generate_full(spec)
    cli.write_problem_dir(gen, tmp_path)
    op, F, W, noise_norm, manifest = cli.load_problem_dir(tmp_path)
    # a solve reads only the shape of the ground truth, but the file holds all of it
    gt = cli.read_matrix_csv(tmp_path / "ground_truth.csv", manifest["shapes"]["ground_truth"])
    assert type(op) is type(gen.op)
    assert op.domain_shape == gen.op.domain_shape
    if hasattr(gen.op, "S"):
        assert op.S.tobytes() == gen.op.S.tobytes()
    for got, want in ((F, gen.F), (W, gen.W), (gt, gen.ground_truth)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert noise_norm == gen.noise_norm
    assert cli.parse_spec(manifest["spec"]) == spec


def test_matrix_csv_roundtrip(tmp_path):
    A = np.random.default_rng(13).standard_normal((5, 3))
    path = tmp_path / "a.csv"
    cli.write_matrix_csv(path, A)
    assert cli.read_matrix_csv(path, (5, 3)).tobytes() == A.tobytes()


def test_matrix_csv_shape_check(tmp_path):
    path = tmp_path / "a.csv"
    cli.write_matrix_csv(path, np.ones((2, 2)))
    with pytest.raises(DimensionError):
        cli.read_matrix_csv(path, (3, 2))


def test_trace_csv_roundtrip(tmp_path):
    spec = problems.SyntheticSpec(30, 30, 3, noise=problems.AdditiveGaussian(0.1),
                                  mask_fraction=0.5, seed=1)
    gen = problems.generate_full(spec)
    trace = solver.pgd_solve(gen.problem(gen.noise_norm),
                             SolverConfig(stop=Stopping(1e-6, 0.0, 50)))
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.TRACE_HEADER == ["k", "elapsed_s", "step_norm", "rank_x", "r",
                                           "inner_iters"]
    assert len(rows) == len(trace.records) + 1
    assert [float(row[2]) for row in rows[1:]] == trace.column("step_norm")


def test_generate_seed_flag_beats_file(tmp_path, runner):
    spec_file = tmp_path / "spec.json"
    write_json(spec_file, SPEC)
    out = tmp_path / "p"
    result = runner.invoke(cli.main, ["generate", "--spec", str(spec_file),
                                      "--out", str(out), "--seed", "99"])
    assert result.exit_code == 0
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["seed"] == 99


def test_problem_dir_with_a_mask_exits_2(tmp_path, runner):
    # the F.csv of a directory that lists a mask holds unobserved entries,
    # which a solve without the mask would fit
    prob_dir = make_problem_dir(tmp_path, runner)
    manifest = json.loads((prob_dir / "manifest.json").read_text())
    manifest["shapes"]["mask"] = [30, 30]
    write_json(prob_dir / "manifest.json", manifest)
    config_file = tmp_path / "config.json"
    write_json(config_file, CONFIG)
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "pgd", "--out", str(tmp_path / "run"),
    ])
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "regenerate" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_invalid_spec_exits_2(tmp_path, runner):
    # int() used to truncate a seed of 2.5 and generate the seed-2 instance; a
    # NaN w_min ended in numpy's OverflowError; a NaN sigma, and a sigma of
    # 1e308 (F overflows), left an empty output directory; a w_max of 2**70
    # ended in numpy's int64 bound error
    nan = float("nan")
    for bad in (dict(SPEC, rank=30), dict(SPEC, seed=2.5),
                dict(SPEC, weights={"type": "LargeOnSupport", "w_min": nan}),
                dict(SPEC, noise={"type": "AdditiveGaussian", "sigma": nan}),
                dict(SPEC, noise={"type": "AdditiveGaussian", "sigma": 1e308}),
                dict(SPEC, weights={"type": "UniformInt", "w_min": 2.5, "w_max": 10}),
                dict(SPEC, weights={"type": "UniformInt", "w_min": 1, "w_max": 2**70})):
        spec_file = tmp_path / "spec.json"
        write_json(spec_file, bad)
        result = runner.invoke(cli.main, ["generate", "--spec", str(spec_file),
                                          "--out", str(tmp_path / "p")])
        assert result.exit_code == cli.EXIT_VALIDATION
        assert "error" in result.output
        assert not (tmp_path / "p").exists()


def test_solve_writes_trace_and_summary(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, CONFIG)
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "prograamme", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "converged" in result.output
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "elapsed_s", "step_norm", "rank_x", "r", "inner_iters"]
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["algorithm"] == "prograamme"
    assert summary["converged"] is True
    assert summary["iterations"] == len(rows) - 1
    assert summary["final_rank"] == int(rows[-1][3])
    with open(out / "run_manifest.json") as fh:
        rm = json.load(fh)
    assert rm["seed"] == 1


def test_solve_rc_identifies_planted_rank(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, dict(CONFIG, r=25))
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "prograamme-rc", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["final_rank"] == 3
    assert summary["config"]["continuation"]["enabled"] is True
    # one note per budget move, matching the drops and rises in the trace
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    budgets = [min(25, solver._RANK_MARGIN)] + [int(row["r"]) for row in rows]
    moves = [("cut" if budgets[i + 1] < budgets[i] else "grown",
              budgets[i], budgets[i + 1], int(row["k"]))
             for i, row in enumerate(rows) if budgets[i + 1] != budgets[i]]
    noted = [(m[1], int(m[2]), int(m[3]), int(m[4])) for m in (
        re.fullmatch(r"rank budget (cut|grown) from (\d+) to (\d+) at iteration (\d+)", note)
        for note in summary["notes"]) if m]
    assert noted == moves
    rs = budgets[1:]
    assert max(rs) <= 25
    grows = [k for verb, _, _, k in moves if verb == "grown"]
    tail = rs[grows[-1] - 1:] if grows else rs
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert int(rows[-1]["rank_x"]) == 3
    assert 3 <= rs[-1] <= 3 + solver._RANK_MARGIN
    assert summary["exit_residual"] is None


def test_solve_binding_budget_exits_3(tmp_path, runner):
    # the optimum has rank 3; a budget of 2 binds and fails the certificate
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, dict(CONFIG, r=2))
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "prograamme", "--out", str(out),
    ])
    assert result.exit_code == cli.EXIT_NO_CONVERGENCE, result.output
    assert "binding rank budget" in result.output
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["final_rank"] == 2
    assert summary["exit_residual"] > 1e-6
    assert any("binds at exit" in note for note in summary["notes"])


def test_solve_fista_echoes_rule(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, CONFIG)
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "fista", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    # the config echo holds the rule's type and d, and so its formula
    assert summary["config"]["rule"] == {"type": "FistaLike", "d": 20.0}
    assert "inertial_rule" not in summary


def test_solve_weighted_completion_converges(tmp_path, runner):
    # integer weights in [1, 10]: L = max W**2 = 100, so gamma = 1/100 in the
    # fused gradient step
    spec = dict(SPEC, weights={"type": "UniformInt", "w_min": 1, "w_max": 10})
    prob_dir = make_problem_dir(tmp_path, runner, spec)
    config_file = tmp_path / "config.json"
    write_json(config_file, {"tau": 100, "r": 10, "stop": {"step_tol": 1e-8, "max_iter": 5000}})
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "prograamme-rc", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is True
    assert summary["gamma"] == 0.01


def _run_module(cwd, *args):
    # a fresh interpreter per command, on the source tree, as an installed
    # console script would run it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "lowrank.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_cli_module_runs_in_fresh_interpreters(tmp_path):
    write_json(tmp_path / "spec.json", SPEC)
    write_json(tmp_path / "config.json", CONFIG)
    for out in ("prob", "prob2"):
        run = _run_module(tmp_path, "generate", "--spec", "spec.json", "--out", out)
        assert run.returncode == 0, run.stdout + run.stderr
    # two processes write the same bytes, and the mask lives only in W
    names = sorted(p.name for p in (tmp_path / "prob").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "prob2").iterdir())
    assert "mask.csv" not in names and "F.csv" in names
    for name in names:
        assert (tmp_path / "prob" / name).read_bytes() == (tmp_path / "prob2" / name).read_bytes()
    run = _run_module(tmp_path, "solve", "--problem", "prob", "--config", "config.json",
                      "--algo", "prograamme-rc", "--out", "run")
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["converged"] is True
    header = (tmp_path / "run" / "trace.csv").read_text().splitlines()[0]
    assert header == "k,elapsed_s,step_norm,rank_x,r,inner_iters"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, message", [
    (("solve", "--algo", "prograamme", "--config", "factored.json"),
     "inner solve became non-finite at iteration 260 "),
    (("solve", "--algo", "prograamme-rc", "--config", "factored.json"),
     "inner solve became non-finite at iteration 260 "),
    (("solve", "--algo", "pgd", "--config", "svt.json"),
     "iterate became non-finite at iteration 1022 "),
    (("solve", "--algo", "fista", "--config", "svt.json"),
     "iterate became non-finite at iteration 500 "),
    (("generate", "--spec", "overflow.json"), "F contains non-finite entries"),
], ids=["prograamme", "prograamme-rc", "pgd", "fista", "generate"])
def test_failing_cli_run_writes_one_stderr_line(tmp_path, runner, args, message):
    # a fresh interpreter keeps numpy's default warning filters: a solve that
    # diverges at gamma = 3 and a generate whose noise draw overflows each
    # used to print numpy's RuntimeWarnings, with their source lines, first
    make_problem_dir(tmp_path, runner)
    wild = dict(CONFIG, gamma=3.0)
    write_json(tmp_path / "svt.json", wild)
    write_json(tmp_path / "factored.json", dict(wild, rule={"type": "fista", "d": 20}))
    write_json(tmp_path / "overflow.json",
               dict(SPEC, noise={"type": "AdditiveGaussian", "sigma": 1e308}))
    out = ("--problem", "prob", "--out", "run") if args[0] == "solve" else ("--out", "huge")
    run = _run_module(tmp_path, *args, *out)
    assert run.returncode == cli.EXIT_VALIDATION, run.stdout + run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr
    assert message in lines[0]


def test_solve_non_convergence_exits_3(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, dict(CONFIG, stop={"step_tol": 0.0, "max_iter": 5}))
    out = tmp_path / "run"
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "pgd", "--out", str(out),
    ])
    assert result.exit_code == cli.EXIT_NO_CONVERGENCE
    with open(out / "trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 6


def test_solve_missing_tau_exits_2(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    config_file = tmp_path / "config.json"
    write_json(config_file, {"r": 5})
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "pgd", "--out", str(tmp_path / "run"),
    ])
    assert result.exit_code == cli.EXIT_VALIDATION


def test_solve_corrupt_problem_exits_2(tmp_path, runner):
    prob_dir = make_problem_dir(tmp_path, runner)
    (prob_dir / "F.csv").write_text("1.0,2.0\n3.0,4.0\n")
    config_file = tmp_path / "config.json"
    write_json(config_file, CONFIG)
    result = runner.invoke(cli.main, [
        "solve", "--problem", str(prob_dir), "--config", str(config_file),
        "--algo", "pgd", "--out", str(tmp_path / "run"),
    ])
    assert result.exit_code == cli.EXIT_VALIDATION


def test_build_solver_config_variants():
    cfg = cli.build_solver_config({"rule": {"type": "constant", "a": 0.25}}, "prograamme")
    assert cfg.rule == Constant(0.25)
    assert cfg.inner == FixedI(1)
    cfg = cli.build_solver_config({}, "fista")
    assert cfg.rule == FistaLike(20.0)
    cfg = cli.build_solver_config({"rule": {"type": "fista", "d": 5}}, "fista")
    assert cfg.rule == FistaLike(5.0)
    cfg = cli.build_solver_config({}, "prograamme-rc")
    assert cfg.continuation.enabled
    cfg = cli.build_solver_config(
        {"inner": {"type": "tolerance", "eps": 1e-4, "max_inner": 20}}, "prograamme"
    )
    assert cfg.inner == Tolerance(1e-4, 20)
    assert isinstance(cli.build_solver_config({}, "pgd").rule, Zero)


def test_resolve_tau_presets():
    assert cli.resolve_tau({"tau": 2.5}, 3.0) == 2.5
    assert cli.resolve_tau({"tau": "noise_norm"}, 3.0) == 3.0
    assert cli.resolve_tau({"tau": "2*noise_norm"}, 3.0) == 6.0
    # a bool is no number, though Python reads True as 1
    with pytest.raises(LowRankError, match="tau must be"):
        cli.resolve_tau({"tau": True}, 3.0)
    with pytest.raises(Exception):
        cli.resolve_tau({"tau": "bogus"}, 3.0)
    with pytest.raises(Exception):
        cli.resolve_tau({}, 3.0)


def test_bench_aggregate(tmp_path, runner):
    suite = {
        "seed": 0,
        "runs": [
            {
                "name": "plain",
                "algorithm": "prograamme",
                "spec": SPEC,
                "config": BENCH_CONFIG,
            },
            {
                "name": "inertia",
                "algorithm": "prograamme",
                "spec": SPEC,
                "config": dict(BENCH_CONFIG, rule={"type": "constant", "a": 0.25}),
            },
        ],
    }
    suite_file = tmp_path / "suite.json"
    write_json(suite_file, suite)
    out = tmp_path / "bench"
    result = runner.invoke(cli.main, [
        "bench", "--suite", str(suite_file), "--out", str(out), "--repeats", "2",
    ])
    assert result.exit_code == 0, result.output
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {row["name"] for row in rows} == {"plain", "inertia"}
    for row in rows:
        assert row["all_converged"] == "True"
        assert row["repeats"] == "2"
        assert float(row["min_wall_s"]) <= float(row["mean_wall_s"]) <= float(row["max_wall_s"])
        assert float(row["mean_rmse"]) < 1.0
    assert (out / "plain" / "rep0" / "trace.csv").exists()
    assert (out / "plain" / "rep1" / "summary.json").exists()
    with open(out / "bench_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["repeats"] == 2


def test_bench_single_repeat_stats_collapse(tmp_path, runner):
    suite = {"seed": 0, "runs": [{"name": "one", "algorithm": "pgd",
                                  "spec": SPEC, "config": BENCH_CONFIG}]}
    suite_file = tmp_path / "suite.json"
    write_json(suite_file, suite)
    out = tmp_path / "bench"
    result = runner.invoke(cli.main, [
        "bench", "--suite", str(suite_file), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "aggregate.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["min_wall_s"] == row["max_wall_s"] == row["mean_wall_s"]


def test_bench_repeats_below_1_exits_2(tmp_path, runner):
    # --repeats 0 used to exit 0 with an all-NaN row that read all_converged
    suite = {"seed": 0, "runs": [{"name": "one", "algorithm": "pgd",
                                  "spec": SPEC, "config": BENCH_CONFIG}]}
    suite_file = tmp_path / "suite.json"
    write_json(suite_file, suite)
    out = tmp_path / "bench"
    result = runner.invoke(cli.main, [
        "bench", "--suite", str(suite_file), "--out", str(out), "--repeats", "0",
    ])
    assert result.exit_code == cli.EXIT_VALIDATION
    assert "repeats must be >= 1 and an integer, got 0" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bench_records_divergence_and_partial_trace(tmp_path, runner):
    # a step far above 1/L makes pgd diverge; the sweep goes on and keeps the trace
    config = dict(BENCH_CONFIG, gamma=50.0, stop={"step_tol": 0.0, "max_iter": 5000})
    suite = {"seed": 0, "runs": [{"name": "wild", "algorithm": "pgd",
                                  "spec": SPEC, "config": config}]}
    suite_file = tmp_path / "suite.json"
    write_json(suite_file, suite)
    out = tmp_path / "bench"
    result = runner.invoke(cli.main, [
        "bench", "--suite", str(suite_file), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out / "aggregate.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["diverged"] == "1" and row["all_converged"] == "False"
    with open(out / "wild" / "rep0" / "trace.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) > 0
    assert not (out / "wild" / "rep0" / "summary.json").exists()
    with open(out / "bench_manifest.json") as fh:
        assert "gradient step became non-finite" in json.load(fh)["warnings"][0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, message", [
    ({"config": dict(BENCH_CONFIG, R=10)}, "not read by the solver: R"),
    ({"config": {key: value for key, value in BENCH_CONFIG.items() if key != "tau"}},
     "missing the required 'tau'"),
    ({"config": dict(BENCH_CONFIG, tau="3*noise_norm")}, "unknown tau preset"),
    ({"config": dict(BENCH_CONFIG, tau=-1)}, "tau must be positive and finite"),
    ({"config": dict(BENCH_CONFIG, tau=1e999)}, "tau must be positive and finite"),
    ({"config": dict(BENCH_CONFIG, tau=True)}, "tau must be a number, got true"),
    ({"spec": dict(SPEC, seed=2.5)}, "seed must be >= 0 and an integer"),
    ({"spec": dict(SPEC, weights={"type": "UniformInt", "w_min": -5, "w_max": 10})},
     "w_min must be >= 0 and an integer"),
    # both passed the spec checks and failed in generation, after good/ was written
    ({"spec": dict(SPEC, weights={"type": "UniformInt", "w_min": 1, "w_max": 2**70})},
     "w_max must be below 2**63 - 1"),
    ({"spec": dict(SPEC, noise={"type": "AdditiveGaussian", "sigma": 1e308})},
     "F contains non-finite entries"),
], ids=["unread-key", "no-tau", "unknown-preset", "tau-negative", "tau-inf", "tau-bool",
        "spec-seed-fraction", "spec-weights-negative", "spec-weights-int64",
        "spec-noise-overflow"])
def test_bench_validates_every_run_before_the_first_solve(tmp_path, runner, bad, message):
    run = {"name": "good", "algorithm": "pgd", "spec": SPEC, "config": BENCH_CONFIG}
    suite = {"seed": 0, "runs": [run, dict(run, name="bad", **bad)]}
    suite_file = tmp_path / "suite.json"
    write_json(suite_file, suite)
    out = tmp_path / "bench"
    result = runner.invoke(cli.main, ["bench", "--suite", str(suite_file),
                                      "--out", str(out)])
    assert result.exit_code == cli.EXIT_VALIDATION
    assert message in result.output
    assert not (out / "good").exists()


def test_bench_malformed_suite_exits_2(tmp_path, runner):
    suite_file = tmp_path / "suite.json"
    suite_file.write_text("{not json")
    result = runner.invoke(cli.main, [
        "bench", "--suite", str(suite_file), "--out", str(tmp_path / "b"),
    ])
    assert result.exit_code == cli.EXIT_VALIDATION


def test_parse_spec_json_roundtrip():
    spec = SyntheticSpec(
        20, 15, 3, noise=SparseLarge(-50, 50, 0.1),
        weights=LargeOnSupport(0.2, 5.0, 10.0), mask_fraction=0.7, seed=9,
    )
    assert cli.parse_spec(cli._tagged(spec, "noise", "weights")) == spec


_fractions = st.floats(0.01, 0.99)
_reals = st.floats(-1e6, 1e6, allow_nan=False)
_scales = st.floats(0.0, 1e6)


@st.composite
def specs(draw):
    # valid specs only: each variant refuses its own bad fields
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    low, high = sorted(draw(st.tuples(_reals, _reals)))
    noise = draw(st.one_of(
        st.builds(GaussianScaled, _scales, st.none() | _fractions),
        st.builds(SparseLarge, st.just(low), st.just(high), _fractions),
        st.builds(AdditiveGaussian, _scales),
    ))
    w_min = draw(st.integers(0, 20))
    weights = draw(st.one_of(
        st.just(AllOnes()),
        st.builds(UniformInt, st.just(w_min), st.integers(max(w_min, 1), 40)),
        st.builds(LargeOnSupport, _fractions, st.just(float(w_min)),
                  st.floats(w_min, 40.0)),
    ))
    kind = draw(st.sampled_from(["identity", "mask", "sensing"]))
    return SyntheticSpec(
        m, n, draw(st.integers(1, min(m, n) - 1)), noise=noise, weights=weights,
        mask_fraction=draw(st.floats(0.01, 1.0)) if kind == "mask" else None,
        sensing_dim=draw(st.integers(1, 200)) if kind == "sensing" else None,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(specs())
def test_parse_spec_survives_json(spec):
    assert cli.parse_spec(json.loads(json.dumps(cli._tagged(spec, "noise", "weights")))) == spec


def test_parse_spec_rejects_unknown_type():
    # an absent noise field takes the default; a present one must name a type
    for noise in ({"type": "Cauchy"}, {}, None, "AdditiveGaussian"):
        with pytest.raises(LowRankError, match="noise must be an object whose type is one of"):
            cli.parse_spec({"m": 5, "n": 5, "rank": 1, "noise": noise})
    assert cli.parse_spec({"m": 5, "n": 5, "rank": 1}).noise == AdditiveGaussian()
