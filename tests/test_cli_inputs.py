"""Malformed CLI input exits 2 with a message, not a traceback."""

import json

import pytest
from click.testing import CliRunner

from lowrank import cli, problems

# every algorithm reads these keys; pgd and fista read no r and no inner
CONFIG = {"tau": "noise_norm", "stop": {"step_tol": 1e-8, "max_iter": 200}}


@pytest.fixture
def problem_dir(tmp_path):
    spec = problems.SyntheticSpec(12, 10, 2, noise=problems.AdditiveGaussian(0.1),
                                  mask_fraction=0.5, seed=1)
    cli.write_problem_dir(problems.generate_full(spec), tmp_path / "prob")
    return tmp_path / "prob"


def invoke(tmp_path, command, obj, *args):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    flag = {"generate": "--spec", "solve": "--config", "bench": "--suite"}[command]
    return CliRunner().invoke(cli.main, [command, flag, str(path),
                                         "--out", str(tmp_path / "out"), *args])


@pytest.mark.parametrize("command", ["generate", "solve", "bench"])
@pytest.mark.parametrize("obj", [[], [1, 2], "spec", 3], ids=repr)
def test_input_that_is_not_an_object_exits_2(tmp_path, problem_dir, command, obj):
    args = ["--problem", str(problem_dir), "--algo", "pgd"] if command == "solve" else []
    result = invoke(tmp_path, command, obj, *args)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert "does not hold a JSON object" in result.output


@pytest.mark.parametrize("spec", [None, [], "spec", 3], ids=repr)
def test_bench_run_whose_spec_is_not_an_object_exits_2(tmp_path, spec):
    suite = {"runs": [{"name": "a", "algorithm": "pgd", "config": CONFIG, "spec": spec}]}
    result = invoke(tmp_path, "bench", suite)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert "spec must be an object" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inner", [{"type": "IncreasingI", "every": 0},
                                   {"type": "IncreasingI", "start": 0},
                                   {"type": "FixedI", "passes": 0},
                                   {"type": "Tolerance", "max_inner": 0}],
                         ids=["every", "start", "passes", "max_inner"])
def test_solve_with_empty_inner_budget_exits_2(tmp_path, problem_dir, inner):
    result = invoke(tmp_path, "solve", dict(CONFIG, inner=inner),
                    "--problem", str(problem_dir), "--algo", "prograamme")
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert "must be >= 1" in result.output


def test_solve_with_no_iteration_budget_exits_2(tmp_path, problem_dir):
    # max_iter 0 ran no iteration and then exited 3 for not converging
    result = invoke(tmp_path, "solve", dict(CONFIG, stop={"max_iter": 0}),
                    "--problem", str(problem_dir), "--algo", "prograamme-rc")
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert "max_iter must be >= 1" in result.output
    assert not (tmp_path / "out").exists()


# each run parameter has one setter: --algo picks rc and rule.d sets FISTA's
# d, so continuation and fista_d are refused; R and a top-level max_iter,
# misspellings of r and stop.max_iter, would otherwise run on the defaults;
# trace_level is a retired option; a bench run's seed comes from the suite,
# so its config may hold none; the SVT baselines read no rank budget and no
# inner policy
UNREAD = {"continuation": {"rank_tol": 1.0}, "fista_d": 5.0, "R": 50, "max_iter": 5,
          "trace_level": "full"}
SVT_UNREAD = {"r": 5, "inner": {"type": "FixedI", "passes": 2}}


@pytest.mark.parametrize("command, algorithm, key, value", [
    pytest.param(command, algorithm, key, value,
                 id=f"{command}-{key}" if algorithm == "prograamme-rc"
                 else f"{command}-{algorithm}-{key}")
    for command, algorithm, keys in (
        ("solve", "prograamme-rc", UNREAD), ("bench", "prograamme-rc", dict(UNREAD, seed=3)),
        ("solve", "pgd", SVT_UNREAD), ("solve", "fista", SVT_UNREAD),
        ("bench", "fista", SVT_UNREAD))
    for key, value in keys.items()])
def test_unread_config_key_exits_2(tmp_path, problem_dir, command, algorithm, key, value):
    config = dict(CONFIG, **{key: value})
    if command == "solve":
        result = invoke(tmp_path, "solve", config, "--problem", str(problem_dir),
                        "--algo", algorithm)
    else:
        suite = {"runs": [{"name": "a", "algorithm": algorithm, "config": config,
                           "spec": {"m": 12, "n": 10, "rank": 2, "mask_fraction": 0.5}}]}
        result = invoke(tmp_path, "bench", suite)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert f"not read by the solver: {key}" in result.output
    assert not (tmp_path / "out" / "a").exists()


# the SVT baselines run the method their name gives: pgd no inertia, fista
# the FISTA rule, whose d alone the config may set
@pytest.mark.parametrize("algorithm, rule", [("pgd", {"type": "FistaLike", "d": 5}),
                                             ("fista", {"type": "Zero"}),
                                             ("fista", {"type": "Constant", "a": 0.3})],
                         ids=["pgd-fista", "fista-zero", "fista-constant"])
def test_svt_baseline_refuses_another_rule(tmp_path, problem_dir, algorithm, rule):
    result = invoke(tmp_path, "solve", dict(CONFIG, rule=rule),
                    "--problem", str(problem_dir), "--algo", algorithm)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert f"algorithm {algorithm!r}" in result.output
    assert f"rule of type {rule['type']!r}" in result.output
    assert not (tmp_path / "out").exists()


def test_generate_with_exact_mask_count_exits_2(tmp_path):
    spec = {"m": 12, "n": 10, "rank": 2, "mask_fraction": 0.5, "exact_mask_count": True}
    result = invoke(tmp_path, "generate", spec)
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert "exact_mask_count" in result.output


# a present rule or inner policy must name its type, a number must be
# finite (json reads 1e999 as inf) and a count an integer >= 1; each exits 2
# and names its field
@pytest.mark.parametrize("field, text", [
    ("gamma", '"gamma": 1e999'),
    ("rule", '"rule": {}'),
    ("rule", '"rule": null'),
    ("inner", '"inner": null'),
    ("r", '"r": 1e999'),
    ("r", '"r": 2.5'),
    ("r", '"r": true'),
    ("max_iter", '"stop": {"max_iter": 2.5}'),
    ("max_iter", '"stop": {"max_iter": 1e999}'),
    ("passes", '"inner": {"type": "FixedI", "passes": 2.5}'),
    ("tau", '"tau": true'),
    ("gamma", '"gamma": true'),
    ("step_tol", '"stop": {"step_tol": true}'),
], ids=["gamma-inf", "rule-empty", "rule-null", "inner-null", "r-inf", "r-fraction",
        "r-bool", "max-iter-fraction", "max-iter-inf", "passes-fraction", "tau-bool",
        "gamma-bool", "step-tol-bool"])
def test_config_field_with_a_bad_value_exits_2(tmp_path, problem_dir, field, text):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG)[:-1] + ", " + text + "}")
    result = CliRunner().invoke(cli.main, ["solve", "--config", str(path),
                                           "--problem", str(problem_dir), "--algo", "prograamme",
                                           "--out", str(tmp_path / "out")])
    assert result.exit_code == cli.EXIT_VALIDATION, result.output
    assert f"{field} must be" in result.output
    assert not (tmp_path / "out").exists()
