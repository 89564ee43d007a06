"""Time-to-solution benchmark of the lowrank solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload completion-400 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

The benchmark imports the package from ``src/`` of the checkout and calls
its public API in this one process. Every solve is timed from outside as
the wall time of the whole call, then checked. ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` is a separate run that
installs wrappers at the layer boundaries and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every solve passed its checks.

The BLAS thread count is read and recorded, never set: threading is part of
how the program behaves.
"""

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SOLVERS = ("prograamme-rc", "prograamme", "pgd", "fista")
FACTORED = ("prograamme-rc", "prograamme")
SVT = ("pgd", "fista")
#: Exact-prox baseline every other solver must agree with.
REFERENCE = "pgd"
#: Relative prox-gradient residual |X - SVT(X - g grad f, g tau)| / (g max(|X|, 1)).
RESIDUAL_TOL = 1e-6
#: Relative distance |X - X_pgd| / max(|X_pgd|, 1).
AGREE_TOL = 1e-6
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 100
WORKLOADS = ("completion-400", "sensing-60")


@dataclass(frozen=True)
class Workload:
    base_seed: int
    instances: int  # instances per run; metrics average over them
    spec: object  # instance seed -> SyntheticSpec
    tau: object  # GeneratedProblem -> tau
    r: int
    step_tol: float
    max_iter: int

    def seeds(self, seed):
        """Generator seeds of the instances of run `seed`; run 0 starts at base_seed."""
        return [self.base_seed + self.instances * seed + j for j in range(self.instances)]


def make_workloads(lr, small=False):
    """The benchmark's workloads; `small` shrinks them for the self-test."""
    Spec, AG = lr.SyntheticSpec, lr.problems.AdditiveGaussian
    c = (40, 3, 20) if small else (400, 10, 200)
    s = (12, 2, 120, 6) if small else (60, 3, 1053, 20)
    return {
        # The paper's headline instance. The mask costs almost nothing, so time
        # goes to the prox layer (amfit/spd_solve against SVT) and to rank
        # bookkeeping; r=200 against rank 10 exercises continuation. Its
        # iteration counts barely vary between seeds, so one instance a run.
        "completion-400": Workload(
            11, 1,
            lambda seed: Spec(c[0], c[0], c[1], noise=AG(0.1), mask_fraction=0.5, seed=seed),
            lambda gen: gen.noise_norm,
            c[2], 1e-8, 3000),
        # Dense sensing: two passes over a 30 MB S are the largest part of each
        # iteration and its spectral norm dominates set-up, while amfit is
        # small. Iteration counts vary by about 20% between seeds at this size,
        # so a run averages four instances.
        "sensing-60": Workload(
            7, 4,
            lambda seed: Spec(s[0], s[0], s[1], noise=AG(0.3), sensing_dim=s[2], seed=seed),
            lambda gen: 2.0 * gen.noise_norm,
            s[3], 1e-8, 1500),
    }


def import_lowrank():
    src = ROOT / "src"
    if not (src / "lowrank" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lowrank package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import lowrank
    return lowrank


# ---------------------------------------------------------------------------
# environment

def blas_threads():
    """Thread count of each bundled OpenBLAS, read through ctypes; never set."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                dll = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    found[f"{pkg.__name__}.libs/{lib.name}"] = fn()
                    break
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    return {
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


# ---------------------------------------------------------------------------
# solves and checks

def solver_call(lr, name, wl):
    stop = lr.Stopping(step_tol=wl.step_tol, max_iter=wl.max_iter)
    if name in FACTORED:
        cfg = lr.SolverConfig(r=wl.r, inner=lr.FixedI(1), stop=stop,
                              continuation=lr.Continuation(enabled=name == "prograamme-rc"))
        return lambda p: lr.prograamme_solve(p, cfg, seed=1)
    rule = lr.FistaLike(20) if name == "fista" else lr.Zero()
    cfg = lr.SolverConfig(rule=rule, stop=stop)
    return lambda p: lr.pgd_solve(p, cfg)


def prox_residual(lr, p, X, gamma):
    """Relative prox-gradient residual; zero exactly at an optimum."""
    Z = X - gamma * lr.operators.gradient(p, X)
    R = X - lr.prox.svt(Z, gamma * p.tau)
    return float(np.linalg.norm(R)) / (gamma * max(float(np.linalg.norm(X)), 1.0))


def check_solve(lr, p, trace):
    """(residual, messages for every check the finished solve fails)."""
    if not trace.converged:
        return None, [f"not converged after {trace.iterations} iterations"]
    if not np.all(np.isfinite(trace.X)):
        return None, ["non-finite X"]
    res = prox_residual(lr, p, trace.X, trace.gamma)
    if not res <= RESIDUAL_TOL:
        return res, [f"prox-gradient residual {res:.2e} > {RESIDUAL_TOL:.0e}"]
    return res, []


def disagreement(X, X_ref):
    return float(np.linalg.norm(X - X_ref)) / max(float(np.linalg.norm(X_ref)), 1.0)


def solve_once(lr, name, p, wl, tracer=None):
    """One solve, timed from outside as the wall time of the whole call, then checked.

    With a tracer, the solve runs in a span named solver.<name> with the
    layer wrappers installed; the checks always run untraced.

    Returns {"wall", "trace", "span", "errors", "residual", "disagreement"}.
    """
    solve = solver_call(lr, name, wl)
    span, trace, errors, residual = None, None, [], None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched())
            span = stack.enter_context(tracer.span(f"solver.{name}"))
        t0 = time.perf_counter()
        try:
            trace = solve(p)
        except lr.exceptions.LowRankError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    if trace is not None:
        residual, found = check_solve(lr, p, trace)
        errors += found
    return {"wall": wall, "trace": trace, "span": span, "errors": errors,
            "residual": residual, "disagreement": None}


def settle(res, ref_X):
    """Check a solve against the reference X, then drop its X to keep memory flat."""
    if res["trace"] is None:
        return
    if ref_X is not None and not res["errors"] and res["trace"].X is not ref_X:
        d = res["disagreement"] = disagreement(res["trace"].X, ref_X)
        if not d <= AGREE_TOL:
            res["errors"].append(f"differs from {REFERENCE} by {d:.2e} > {AGREE_TOL:.0e}")
    res["trace"] = dataclasses.replace(res["trace"], X=None)


def set_up(lr, wl, seed):
    """generate_full + Problem + first lipschitz_bound, timed as one."""
    t0 = time.perf_counter()
    gen = lr.problems.generate_full(wl.spec(seed))
    p = gen.problem(wl.tau(gen))
    lr.operators.lipschitz_bound(p)
    return time.perf_counter() - t0, gen, p


# ---------------------------------------------------------------------------
# metrics

#: (metric, span name, field, unit, better, solvers it applies to)
LAYER_METRICS = (
    ("operators.gradient.calls", "operators.gradient", "calls", "count", "lower", SOLVERS),
    ("operators.gradient.s", "operators.gradient", "s", "s", "lower", SOLVERS),
    ("operators.gradient.bytes", "operators.gradient", "bytes", "bytes.computed", "lower", SOLVERS),
    ("amfit.inner_solve.calls", "amfit.inner_solve", "calls", "count", "lower", FACTORED),
    ("amfit.inner_solve.s", "amfit.inner_solve", "s", "s", "lower", FACTORED),
    ("amfit.update_U.s", "amfit.update_U", "s", "s", "lower", FACTORED),
    ("amfit.update_V.s", "amfit.update_V", "s", "s", "lower", FACTORED),
    ("amfit.passes", "amfit.inner_solve", "passes", "count", "lower", FACTORED),
    ("amfit.flops", "amfit.inner_solve", "flops", "flop.computed", "lower", FACTORED),
    ("linalg.spd_solve.calls", "linalg.spd_solve", "calls", "count", "lower", FACTORED),
    ("linalg.spd_solve.s", "linalg.spd_solve", "s", "s", "lower", FACTORED),
    ("prox.svt_with_rank.calls", "prox.svt_with_rank", "calls", "count", "lower", SVT),
    ("prox.svt_with_rank.s", "prox.svt_with_rank", "s", "s", "lower", SVT),
    ("linalg.thin_svd.calls", "linalg.thin_svd", "calls", "count", "lower", SVT),
    ("linalg.thin_svd.s", "linalg.thin_svd", "s", "s", "lower", SVT),
    ("solver.truncate_factors.calls", "solver.truncate_factors", "calls", "count", "lower",
         ("prograamme-rc",)),
    ("solver.truncate_factors.s", "solver.truncate_factors", "s", "s", "lower",
         ("prograamme-rc",)),
    ("linalg.numerical_rank.calls", "linalg.numerical_rank", "calls", "count", "lower",
         ("prograamme-rc",)),
    ("linalg.numerical_rank.s", "linalg.numerical_rank", "s", "s", "lower",
         ("prograamme-rc",)),
)
#: Whole-solve metrics, for every solver: (metric, unit, better).
SOLVE_METRICS = (
    ("solver.iterations", "count", "lower"),
    ("solver.loop_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.unclocked_s", "s", "lower"),
    ("solver.r_final", "count", "lower"),
    ("solver.useful_rank_frac", "fraction", "higher"),
)
#: Per-workload set-up metrics of the traced run, in seconds: (metric, span name).
SETUP_LAYERS = (
    ("problems.generate_full.s", "problems.generate_full"),
    ("operators.lipschitz_bound.s", "operators.lipschitz_bound"),
    ("linalg.spectral_norm.s", "linalg.spectral_norm"),
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    *((f"solve_s.{name}", "s", "lower") for name in SOLVERS),
    ("peak_rss_mb", "MB", "lower"),
    ("recovery_err", "fraction", "lower"),
    ("solved_frac", "fraction", "higher"),
)


def per_layer_names():
    """[(metric, unit, better)] in the order the traced run prints them."""
    out = []
    for name in SOLVERS:
        out += [(f"{name}.{m}", u, b) for m, u, b in SOLVE_METRICS]
        out += [(f"{name}.{m}", u, b) for m, _, _, u, b, solvers in LAYER_METRICS if name in solvers]
    out += [(m, "s", "lower") for m, _ in SETUP_LAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def solve_layers(tracer, name, res):
    """Per-layer values of one traced solve."""
    span, trace = res["span"], res["trace"]
    loop = span["end"] - span["start"]
    totals = tracer.layer_totals(span)
    ranks, budgets = trace.column("rank_x"), trace.column("r")
    vals = {
        "solver.iterations": trace.iterations,
        "solver.loop_s": loop,
        "solver.self_s": tracer.self_time(span),
        "solver.unclocked_s": loop - trace.seconds,
        "solver.r_final": budgets[-1],
        "solver.useful_rank_frac": sum(ranks) / sum(budgets),
    }
    for metric, layer, field, _, _, solvers in LAYER_METRICS:
        if name in solvers:
            vals[metric] = totals.get(layer, {}).get(field, 0)
    return {f"{name}.{k}": v for k, v in vals.items()}


def median_of(samples):
    """{metric: median} over a list of {metric: value} dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# one run

def run_instance(lr, wl, seed, deadline, tracer):
    """Set up one instance and solve it with every solver until the deadline."""
    # Set up SETUP_REPS times, or more until SETUP_SECONDS are spent (at most
    # SETUP_MAX_REPS), keeping the last instance; the traced run sets up once.
    setups, setup_span = [], None
    while not setups or (tracer is None and len(setups) < SETUP_MAX_REPS
                         and (len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS)):
        gen = p = None
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.patched())
                setup_span = stack.enter_context(tracer.span("setup"))
            t, gen, p = set_up(lr, wl, seed)
        setups.append(t)

    # Give every solver about the same measured time: run every solver once,
    # in SOLVERS order, then keep solving with the one that has had the least
    # time so far while its last solve still fits before the deadline. Each
    # solve is compared with the first passing REFERENCE solve once that exists.
    plain = {name: [] for name in SOLVERS}
    traced = {name: [] for name in SOLVERS}
    spent = {name: 0.0 for name in SOLVERS}
    last, pending, ref_X, recovery_err = {}, [], None, float("nan")
    while True:
        name = min(SOLVERS, key=lambda n: (bool(plain[n]), spent[n]))
        if plain[name] and time.perf_counter() + last[name] > deadline:
            break
        t0 = time.perf_counter()
        plain[name].append(solve_once(lr, name, p, wl))
        if tracer is not None:
            traced[name].append(solve_once(lr, name, p, wl, tracer))
        last[name] = time.perf_counter() - t0
        spent[name] += last[name]
        first = plain[name][0]
        if len(plain[name]) == 1 and first["trace"] is not None:
            if name == REFERENCE and not first["errors"]:
                ref_X = first["trace"].X
            if name == "prograamme-rc":
                X_true = gen.ground_truth
                recovery_err = float(np.linalg.norm(first["trace"].X - X_true)
                                     / np.linalg.norm(X_true))
        pending += plain[name][-1:] + traced[name][-1:]
        if ref_X is not None or all(plain.values()):
            for res in pending:
                settle(res, ref_X)
            pending = []
    for res in pending:
        settle(res, ref_X)
    return {"setups": setups, "setup_span": setup_span, "plain": plain, "traced": traced,
            "recovery_err": recovery_err}


def instance_metrics(inst, tracer):
    """The metrics of one instance: end-to-end untraced, per-layer traced."""
    plain, traced = inst["plain"], inst["traced"]
    if tracer is None:
        return {
            "setup_s": statistics.median(inst["setups"]),
            **{f"solve_s.{n}": statistics.median(r["wall"] for r in plain[n]) for n in SOLVERS},
            "recovery_err": inst["recovery_err"],
        }
    totals = tracer.layer_totals(inst["setup_span"])
    metrics = {m: totals.get(layer, {}).get("s", 0.0) for m, layer in SETUP_LAYERS}
    for n in SOLVERS:
        passing = [res for res in traced[n] if not res["errors"]]
        if passing:
            metrics.update(median_of([solve_layers(tracer, n, res) for res in passing]))
    metrics["trace.overhead_s"] = sum(
        statistics.median(r["wall"] for r in traced[n])
        - statistics.median(r["wall"] for r in plain[n]) for n in SOLVERS)
    return metrics


def measure(args):
    lr = import_lowrank()
    t_start = time.perf_counter()
    wl = make_workloads(lr, small=args.small)[args.workload]
    seeds = wl.seeds(args.seed)
    print(f"perfbench {args.workload} --seed {args.seed} (instance seeds {seeds}) "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # Each instance gets an equal share of the budget; metrics are the mean
    # over the instances of each instance's value.
    instances = [run_instance(lr, wl, seed, t_start + args.seconds * (j + 1) / len(seeds), tracer)
                 for j, seed in enumerate(seeds)]
    runs = {n: [res for inst in instances for res in inst["plain"][n] + inst["traced"][n]]
            for n in SOLVERS}
    attempted = sum(len(r) for r in runs.values())
    failed = sum(bool(res["errors"]) for r in runs.values() for res in r)
    failures = [f"{n}: {e}" for n, r in runs.items() for res in r for e in res["errors"]]

    per_instance = [instance_metrics(inst, tracer) for inst in instances]
    metrics = {m: statistics.fmean(v[m] for v in per_instance if m in v)
               for m in per_instance[0]}
    if tracer is None:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["solved_frac"] = (attempted - failed) / attempted
        names = END_TO_END
    else:
        names = per_layer_names()
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    units = {m: u for m, u, _ in names}
    metrics = {m: metrics[m] for m, _, _ in names if m in metrics}

    setups = sum(len(inst["setups"]) for inst in instances)
    print(f"wall {time.perf_counter() - t_start:.1f} s; {len(instances)} instance(s), "
          f"{setups} set-ups; {attempted} solves attempted, {failed} failed")
    for m, v in metrics.items():
        print(f"  {m:44s} {v:>14.6g} {units[m]}")
    for name, r in runs.items():
        worst = {key: max((res[key] for res in r if res[key] is not None), default=None)
                 for key in ("residual", "disagreement")}
        iters = sorted({res["trace"].iterations for res in r if res["trace"] is not None})
        print(f"  {name}: iterations {iters}, walls {[round(res['wall'], 3) for res in r]}, "
              f"worst residual {worst['residual']}, worst disagreement {worst['disagreement']}")
    for f in sorted(set(failures)):
        print(f"FAILED {f} (x{failures.count(f)})", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="completion-400, sensing-60, or all (one process per workload)")
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the run's instances; 0 starts at the reference instance")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="time budget in seconds; solves repeat while another fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="shrunken instances for the self-test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *(["--small"] if args.small else [])]
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
