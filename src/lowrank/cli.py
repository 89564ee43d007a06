"""Command-line entry point: generate problems, run solvers, sweep benchmarks.

Every file format lives here: the JSON codec of specs and configs, the
matrix and trace CSV files and the run directories; the rest only computes.

Exit codes: 0 success, 2 validation failure (including a solve that
diverges and an input file that is not a JSON object), 3 solver hit the
iteration cap without converging, 4 I/O failure.
"""

import csv
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__, problems
from .amfit import FixedI, IncreasingI, Tolerance, check_count
from .exceptions import DimensionError, DivergenceError, LowRankError
from .linalg import as_matrix
from .operators import DenseSensing, Identity, Problem
from .solver import (Constant, Continuation, FistaLike, Online, SolverConfig,
                     Stopping, TraceRecord, Zero, pgd_solve, prograamme_solve)

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

_SOLVERS = {"prograamme": prograamme_solve, "prograamme-rc": prograamme_solve,
            "pgd": pgd_solve, "fista": pgd_solve}
ALGORITHMS = tuple(_SOLVERS)

_RULES = {c.__name__: c for c in (Zero, Constant, FistaLike, Online)}
#: The inertial rule each SVT baseline runs; the factored solvers take any rule.
_SVT_RULES = {"pgd": Zero, "fista": FistaLike}
_INNER = {c.__name__: c for c in (FixedI, Tolerance, IncreasingI)}
_NOISE = {c.__name__: c for c in (problems.GaussianScaled, problems.SparseLarge,
                                   problems.AdditiveGaussian)}
_WEIGHTS = {c.__name__: c for c in (problems.AllOnes, problems.UniformInt,
                                    problems.LargeOnSupport)}
_TAU_PRESETS = {"noise_norm": 1.0, "2*noise_norm": 2.0}
#: The SolverConfig fields each solver reads, which with tau are the keys its
#: config may hold: --algo sets continuation, and pgd and fista read no r or inner.
_FIELDS_READ = {algorithm: {"gamma", "rule", "stop"} if algorithm in _SVT_RULES
                else {"gamma", "r", "rule", "inner", "stop"} for algorithm in ALGORITHMS}


# ---------------------------------------------------------------------------
# exit codes, JSON files and CSV files (one matrix or one trace per file)

@contextmanager
def _exit_codes():
    """Exit 2 on a validation error and 4 on an I/O error, with the message."""
    try:
        yield
    # JSONDecodeError is a ValueError
    except (LowRankError, ValueError, KeyError, TypeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)


def _read_json(path):
    """Load a JSON file that must hold an object with no boolean in it.

    No field of a spec, config, suite or manifest is a boolean, and Python
    reads true as the number 1, so a boolean anywhere is refused here.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise LowRankError(f"{path} does not hold a JSON object")
    _refuse_booleans(obj, None)
    return obj


def _refuse_booleans(value, key):
    if isinstance(value, bool):
        raise LowRankError(f"{key} must be a number, got {json.dumps(value)}")
    if isinstance(value, dict):
        for k, v in value.items():
            _refuse_booleans(v, k)
    elif isinstance(value, list):
        for v in value:
            _refuse_booleans(v, key)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


TRACE_HEADER = [f.name for f in dataclasses.fields(TraceRecord)]


def _write_csv(path, header, rows):
    # csv writes floats by repr, NaN as nan
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_trace_csv(path, trace):
    """Write TRACE_HEADER, then one row per TraceRecord of the SolveTrace."""
    _write_csv(path, TRACE_HEADER, map(dataclasses.astuple, trace.records))


def write_matrix_csv(path, A):
    """Write a matrix as plain CSV: one row per line, '.' decimal, no header."""
    np.savetxt(path, as_matrix(A), delimiter=",", fmt="%.17g")


def read_matrix_csv(path, shape):
    """Read a matrix written by write_matrix_csv; any other shape raises DimensionError."""
    A = as_matrix(np.loadtxt(path, delimiter=",", ndmin=2), str(path))
    if A.shape != tuple(shape):
        raise DimensionError(f"{path}: expected shape {tuple(shape)}, got {A.shape}")
    return A


# ---------------------------------------------------------------------------
# the JSON codec of specs and configs

def _tagged(obj, *variants):
    """asdict(obj) with each named variant field as {"type": class name, **fields}."""
    d = dataclasses.asdict(obj)
    for name in variants:
        value = getattr(obj, name)
        d[name] = {"type": type(value).__name__, **dataclasses.asdict(value)}
    return d


def _variants(d, **tables):
    """d with each field of tables that it holds built as the type its object names."""
    d = dict(d)
    for key in sorted(tables.keys() & d.keys()):
        table, value = tables[key], d[key]
        if not isinstance(value, dict) or value.get("type") not in table:
            raise LowRankError(f"{key} must be an object whose type is one of "
                               f"{', '.join(table)}, got {value!r}")
        fields = dict(value)
        d[key] = table[fields.pop("type")](**fields)
    return d


def parse_spec(d):
    """The SyntheticSpec of a spec object, as the manifest's "spec" records it."""
    if not isinstance(d, dict):
        raise LowRankError(f"spec must be an object, got {d!r}")
    return problems.SyntheticSpec(**_variants(d, noise=_NOISE, weights=_WEIGHTS))


def build_solver_config(cfg, algorithm):
    """Turn a config dict into the SolverConfig the named algorithm runs.

    Besides tau, the config may hold only the fields the algorithm's solver
    reads; an absent one takes the SolverConfig default. The algorithm alone
    decides rank continuation, and for pgd and fista the inertial rule: pgd
    runs Zero and fista FistaLike, whose d a rule of type FistaLike may set;
    any other rule for them is refused.
    """
    if algorithm not in _SOLVERS:
        raise LowRankError(f"unknown algorithm {algorithm!r}")
    fields = {key: value for key, value in cfg.items() if key != "tau"}
    unread = sorted(fields.keys() - _FIELDS_READ[algorithm])
    if unread:
        raise LowRankError(f"config key(s) not read by the solver: {', '.join(unread)}")
    fields = _variants(fields, rule=_RULES, inner=_INNER)
    if "stop" in fields:
        fields["stop"] = Stopping(**fields["stop"])
    fixed = _SVT_RULES.get(algorithm)
    if fixed is not None:
        rule = fields.setdefault("rule", fixed())
        if not isinstance(rule, fixed):
            raise LowRankError(f"algorithm {algorithm!r} runs the {fixed.__name__} rule, "
                               f"not a rule of type {type(rule).__name__!r}")
    return SolverConfig(**fields, continuation=Continuation(enabled=algorithm == "prograamme-rc"))


def resolve_tau(cfg, noise_norm):
    """Resolve the required tau field, honoring the noise-norm presets.

    noise_norm is the norm of the instance's generated noise, which every
    problem directory and bench run has.
    """
    if "tau" not in cfg:
        raise LowRankError("config is missing the required 'tau' field")
    tau = cfg["tau"]
    if not isinstance(tau, str):
        if isinstance(tau, bool) or not 0.0 < tau < np.inf:
            raise LowRankError(f"tau must be positive and finite, got {tau!r}")
        return float(tau)
    if tau not in _TAU_PRESETS:
        raise LowRankError(f"unknown tau preset {tau!r}")
    return _TAU_PRESETS[tau] * noise_norm


def resolve_seed(file_seed, cli_seed):
    """Seed precedence: the command-line flag, then the file; an integer >= 0."""
    seed = file_seed if cli_seed is None else cli_seed
    check_count("seed", seed, 0, LowRankError)
    return int(seed)


# ---------------------------------------------------------------------------
# problem directory format: one <name>.csv per array, shapes in manifest.json

def write_problem_dir(gen, out_dir):
    """Write the CSV artifacts plus a manifest for one generated problem.

    Every array is checked before the directory is created.
    """
    arrays = {"F": gen.F, "W": gen.W, "ground_truth": gen.ground_truth,
              "noise": gen.noise}
    if isinstance(gen.op, DenseSensing):
        arrays["sensing"] = gen.op.S
    arrays = {name: as_matrix(A, name) for name, A in arrays.items()}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, A in arrays.items():
        write_matrix_csv(out / f"{name}.csv", A)
    manifest = {
        "version": __version__,
        "spec": _tagged(gen.spec, "noise", "weights"),
        "seed": gen.spec.seed,
        "shapes": {name: list(A.shape) for name, A in arrays.items()},
        "noise_norm": gen.noise_norm,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def load_problem_dir(problem_dir):
    """Rebuild (op, F, W, noise_norm, manifest) from a problem directory."""
    pdir = Path(problem_dir)
    manifest = _read_json(pdir / "manifest.json")
    shapes = manifest["shapes"]
    if "mask" in shapes:
        # generate folds a mask into F and W; the F of a directory with a
        # mask holds unobserved entries, which a solve without it would fit
        raise LowRankError(f"{pdir} lists a mask, which is read only as part of W; "
                           "regenerate it with `lowrank generate` from the spec "
                           "in its manifest.json")
    # a solve reads neither the noise (only its norm) nor the ground truth
    # (only its shape); both come from the manifest
    arrays = {name: read_matrix_csv(pdir / f"{name}.csv", shape)
              for name, shape in shapes.items() if name not in ("noise", "ground_truth")}
    shape = tuple(shapes["ground_truth"])
    op = DenseSensing(arrays["sensing"], shape) if "sensing" in arrays else Identity(shape)
    return op, arrays["F"], arrays["W"], float(manifest["noise_norm"]), manifest


# ---------------------------------------------------------------------------
# run helpers (importable; the click commands are thin wrappers)

def _run(p, cfg, algorithm, seed, out):
    """Solve p under a SolverConfig; write trace.csv and summary.json.

    `out` is created once the solve has finished. Returns the SolveTrace.
    """
    trace = _SOLVERS[algorithm](p, cfg, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", trace)
    _write_json(out / "summary.json", {
        "algorithm": algorithm,
        "seed": trace.seed,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_rank": trace.final_rank,
        "total_seconds": trace.seconds,
        "gamma": trace.gamma,
        "lipschitz": trace.lipschitz,
        "exit_residual": trace.exit_residual,
        "notes": list(trace.notes),
        "config": {key: value for key, value in _tagged(cfg, "rule", "inner").items()
                   if key in _FIELDS_READ[algorithm]},
        "tau": p.tau,
        "version": __version__,
    })
    return trace


def solve_once(problem_dir, config, algorithm, out_dir, seed=None):
    """Load a problem directory, run one solver, write trace, summary and run manifest.

    Returns the SolveTrace. Raises on validation and I/O problems.
    """
    op, F, W, noise_norm, manifest = load_problem_dir(problem_dir)
    run_seed = resolve_seed(config.get("seed", 0), seed)
    out = Path(out_dir)
    solver_config = {key: value for key, value in config.items() if key != "seed"}
    cfg = build_solver_config(solver_config, algorithm)
    p = Problem(op, F, W, resolve_tau(solver_config, noise_norm))
    trace = _run(p, cfg, algorithm, run_seed, out)
    _write_json(out / "run_manifest.json", {
        "version": __version__,
        "algorithm": algorithm,
        "problem_manifest": manifest,
        "config": config,
        "seed": run_seed,
    })
    return trace


AGGREGATE_HEADER = [
    "name", "algorithm", "repeats", "mean_wall_s", "min_wall_s", "max_wall_s",
    "mean_iterations", "final_rank", "mean_rmse", "all_converged", "diverged",
]


def run_bench(suite, out_dir, repeats, seed=None):
    """Run every (spec, config, algorithm) triple `repeats` times.

    Each repeat uses a derived seed (suite seed + spec seed + repeat index),
    so a run's config may hold no seed. repeats, and every run's spec,
    SolverConfig and tau field, are checked, and every run's repeat 0 is
    generated and posed, before anything is written.
    Diverging runs are recorded in the aggregate rather than aborting the
    sweep.

    Returns the list of aggregate row dicts.
    """
    check_count("repeats", repeats, 1, LowRankError)
    base_seed = resolve_seed(suite.get("seed", 0), seed)
    runs = []
    for entry in suite["runs"]:
        config = entry["config"]
        spec = parse_spec(entry["spec"])
        cfg = build_solver_config(config, entry["algorithm"])
        # repeat 0 is generated and posed here, so a run that cannot be
        # generated, or whose tau or F the Problem refuses, writes nothing
        gen = problems.generate_full(dataclasses.replace(spec, seed=base_seed + spec.seed))
        gen.problem(resolve_tau(config, gen.noise_norm))
        runs.append((entry["name"], entry["algorithm"], spec, config, cfg))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    warnings_seen = []
    for name, algorithm, spec, config, cfg in runs:
        times, iters, rmses, ranks = [], [], [], []
        converged_all = True
        diverged = 0
        for rep in range(repeats):
            run_seed = base_seed + spec.seed + rep
            gen = problems.generate_full(dataclasses.replace(spec, seed=run_seed))
            rep_dir = out / name / f"rep{rep}"
            p = gen.problem(resolve_tau(config, gen.noise_norm))
            try:
                trace = _run(p, cfg, algorithm, run_seed, rep_dir)
            except DivergenceError as exc:
                diverged += 1
                converged_all = False
                warnings_seen.append(f"{name} rep {rep}: {exc}")
                if exc.trace is not None:
                    rep_dir.mkdir(parents=True, exist_ok=True)
                    write_trace_csv(rep_dir / "trace.csv", exc.trace)
                continue
            times.append(trace.seconds)
            iters.append(trace.iterations)
            ranks.append(trace.final_rank)
            rmses.append(problems.rmse(gen.ground_truth, trace.X))
            converged_all = converged_all and trace.converged
        rows.append({
            "name": name,
            "algorithm": algorithm,
            "repeats": repeats,
            "mean_wall_s": float(np.mean(times)) if times else float("nan"),
            "min_wall_s": float(np.min(times)) if times else float("nan"),
            "max_wall_s": float(np.max(times)) if times else float("nan"),
            "mean_iterations": float(np.mean(iters)) if iters else float("nan"),
            "final_rank": ranks[-1] if ranks else -1,
            "mean_rmse": float(np.mean(rmses)) if rmses else float("nan"),
            "all_converged": converged_all,
            "diverged": diverged,
        })
    _write_csv(out / "aggregate.csv", AGGREGATE_HEADER,
               ([row[k] for k in AGGREGATE_HEADER] for row in rows))
    _write_json(out / "bench_manifest.json", {
        "version": __version__,
        "suite": suite,
        "repeats": repeats,
        "base_seed": base_seed,
        "warnings": warnings_seen,
    })
    return rows


# ---------------------------------------------------------------------------
# click commands; each runs under _exit_codes

@click.group()
@click.version_option(__version__)
def main():
    """SVD-free weighted low-rank recovery toolkit."""


@main.command("generate")
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
@_exit_codes()
def cmd_generate(spec_file, out_dir, seed):
    """Generate a synthetic problem directory from a JSON spec."""
    spec_dict = _read_json(spec_file)
    spec_dict["seed"] = resolve_seed(spec_dict.get("seed", 0), seed)
    write_problem_dir(problems.generate_full(parse_spec(spec_dict)), out_dir)
    click.echo(f"wrote problem artifacts to {out_dir}")


@main.command("solve")
@click.option("--problem", "problem_dir", required=True, type=click.Path(exists=True))
@click.option("--config", "config_file", required=True, type=click.Path(exists=True))
@click.option("--algo", "algorithm", required=True, type=click.Choice(ALGORITHMS))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@_exit_codes()
def cmd_solve(problem_dir, config_file, algorithm, out_dir, seed):
    """Run a solver on a problem directory; write trace.csv and summary.json."""
    trace = solve_once(problem_dir, _read_json(config_file), algorithm, out_dir, seed=seed)
    if not trace.converged:
        if trace.exit_residual is not None:
            click.echo(f"stopped after {trace.iterations} iterations on a binding rank "
                       f"budget; prox-gradient residual {trace.exit_residual:.2e}")
        else:
            click.echo(f"did not converge within {trace.iterations} iterations")
        sys.exit(EXIT_NO_CONVERGENCE)
    click.echo(f"converged in {trace.iterations} iterations "
               f"(final rank {trace.final_rank})")


@main.command("bench")
@click.option("--suite", "suite_file", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--repeats", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=None)
@_exit_codes()
def cmd_bench(suite_file, out_dir, repeats, seed):
    """Run a benchmark suite and write per-run traces plus aggregate.csv."""
    rows = run_bench(_read_json(suite_file), out_dir, repeats, seed=seed)
    diverged = sum(row["diverged"] for row in rows)
    if diverged:
        click.echo(f"warning: {diverged} run(s) diverged; see bench_manifest.json",
                   err=True)
    click.echo(f"wrote {len(rows)} aggregate rows to {Path(out_dir) / 'aggregate.csv'}")


if __name__ == "__main__":
    main()
