"""Self-test of the benchmark itself.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics, units and directions that
   run.py defines.
2. A small-size run of each workload, untraced and traced, prints every
   one of those metrics with its unit, and passes its checks.
3. The checks reject a perturbed, a non-finite and an unconverged result.
4. In a directory that holds only BENCHMARK.json and the benchmark's files,
   run.py fails without printing a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def spec_matches():
    e2e = [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    check(e2e == list(run.END_TO_END), "end_to_end metrics of BENCHMARK.json match run.py")
    check(layers == run.per_layer_names(), "per_layer metrics of BENCHMARK.json match run.py")
    check([w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS),
          "workloads of BENCHMARK.json match run.py")


def small_runs():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--small",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=120)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                  f"small {workload} --trace {trace} passes its checks")
            check(got == want, f"small {workload} --trace {trace} prints every {key} metric "
                               "with its unit")


def checks_trip():
    lr = run.import_lowrank()
    wl = run.make_workloads(lr, small=True)["completion-400"]
    _, _, p = run.set_up(lr, wl, wl.base_seed)
    good = run.solver_call(lr, run.REFERENCE, wl)(p)
    check(run.check_solve(lr, p, good)[1] == [], "a converged solve passes the checks")
    rng = np.random.default_rng(0)
    bumped = good.X + 1e-3 * rng.standard_normal(good.X.shape)
    check(run.check_solve(lr, p, dataclasses.replace(good, X=bumped))[1] != [],
          "a perturbed X fails the residual check")
    check(run.disagreement(bumped, good.X) > run.AGREE_TOL,
          "a perturbed X fails the agreement check")
    nan_X = good.X.copy()
    nan_X[0, 0] = np.nan
    check(run.check_solve(lr, p, dataclasses.replace(good, X=nan_X))[1] != [],
          "a non-finite X fails the checks")
    check(run.check_solve(lr, p, dataclasses.replace(good, converged=False))[1] != [],
          "an unconverged solve fails the checks")


def bare_dir_fails():
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([*BENCH["command"], "--workload", run.WORKLOADS[0], "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the package sources the benchmark fails and prints no result")


if __name__ == "__main__":
    spec_matches()
    checks_trip()
    small_runs()
    bare_dir_fails()
    print("selftest passed")
