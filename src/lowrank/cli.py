"""Command-line entry point: generate problems, run solvers, sweep benchmarks.

Exit codes: 0 success, 2 validation failure, 3 solver hit the iteration cap
without converging, 4 I/O failure.
"""

import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, problems, solver
from .amfit import FixedI, IncreasingI, Tolerance
from .exceptions import DivergenceError, LowRankError
from .linalg import read_matrix_csv, write_matrix_csv
from .operators import DenseSensing, EntryMask, Identity, Problem
from .solver import (Constant, Continuation, FistaLike, Online, SolverConfig,
                     Stopping, Zero, pgd_solve, prograamme_solve)

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

ALGORITHMS = ("prograamme", "prograamme-rc", "pgd", "fista")

_RULES = {"zero": Zero, "constant": Constant, "fista": FistaLike, "online": Online}
_INNER = {"fixed": FixedI, "tolerance": Tolerance, "increasing": IncreasingI}


# ---------------------------------------------------------------------------
# config plumbing

def parse_rule(d):
    d = dict(d or {"type": "zero"})
    cls = _RULES[d.pop("type")]
    return cls(**d)


def parse_inner(d):
    d = dict(d or {"type": "fixed", "passes": 1})
    cls = _INNER[d.pop("type")]
    return cls(**d)


def build_solver_config(cfg, algorithm, trace_level=None):
    """Turn a config dict into a SolverConfig for the named algorithm."""
    rule = parse_rule(cfg.get("rule"))
    if algorithm == "fista" and isinstance(rule, Zero):
        rule = FistaLike(float(cfg.get("fista_d", 20)))
    cont_kwargs = dict(cfg.get("continuation", {}))
    if algorithm == "prograamme-rc":
        cont_kwargs["enabled"] = True
    cont = Continuation(**cont_kwargs)
    return SolverConfig(
        gamma=cfg.get("gamma"),
        rule=rule,
        inner=parse_inner(cfg.get("inner")),
        r=int(cfg.get("r", 10)),
        continuation=cont,
        stop=Stopping(**cfg.get("stop", {})),
        trace_level=trace_level or cfg.get("trace_level", "light"),
    )


def resolve_tau(cfg, noise_norm=None):
    """Resolve the required tau field, honoring the noise-norm presets."""
    if "tau" not in cfg:
        raise LowRankError("config is missing the required 'tau' field")
    tau = cfg["tau"]
    if isinstance(tau, str):
        if noise_norm is None:
            raise LowRankError(
                f"tau preset {tau!r} needs generated noise, which is unavailable"
            )
        if tau == "noise_norm":
            return noise_norm
        if tau == "2*noise_norm":
            return 2.0 * noise_norm
        raise LowRankError(f"unknown tau preset {tau!r}")
    return float(tau)


def resolve_seed(file_seed, cli_seed):
    """Seed precedence: command-line flag, then LOWRANK_SEED, then the file."""
    if cli_seed is not None:
        return int(cli_seed)
    env = os.environ.get("LOWRANK_SEED")
    if env is not None:
        return int(env)
    return int(file_seed)


# ---------------------------------------------------------------------------
# problem directory format

def write_problem_dir(gen, out_dir):
    """Write the CSV artifacts plus a manifest for one generated problem."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "F.csv", gen.F)
    write_matrix_csv(out / "W.csv", gen.W)
    write_matrix_csv(out / "ground_truth.csv", gen.ground_truth)
    write_matrix_csv(out / "noise.csv", gen.noise)
    shapes = {
        "F": list(gen.F.shape),
        "W": list(gen.W.shape),
        "ground_truth": list(gen.ground_truth.shape),
        "noise": list(gen.noise.shape),
    }
    if gen.mask is not None:
        write_matrix_csv(out / "mask.csv", gen.mask)
        shapes["mask"] = list(gen.mask.shape)
    if gen.sensing is not None:
        write_matrix_csv(out / "sensing.csv", gen.sensing)
        shapes["sensing"] = list(gen.sensing.shape)
    manifest = {
        "version": __version__,
        "spec": problems.spec_to_dict(gen.spec),
        "seed": gen.spec.seed,
        "shapes": shapes,
        "noise_norm": gen.noise_norm,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def load_problem_dir(problem_dir):
    """Rebuild (op, F, W, noise_norm, ground_truth) from a problem directory."""
    pdir = Path(problem_dir)
    with open(pdir / "manifest.json") as fh:
        manifest = json.load(fh)
    shapes = manifest["shapes"]
    F = read_matrix_csv(pdir / "F.csv", shapes["F"])
    W = read_matrix_csv(pdir / "W.csv", shapes["W"])
    gt = read_matrix_csv(pdir / "ground_truth.csv", shapes["ground_truth"])
    if "mask" in shapes:
        op = EntryMask(read_matrix_csv(pdir / "mask.csv", shapes["mask"]))
    elif "sensing" in shapes:
        op = DenseSensing(read_matrix_csv(pdir / "sensing.csv", shapes["sensing"]),
                          gt.shape)
    else:
        op = Identity(gt.shape)
    return op, F, W, float(manifest["noise_norm"]), gt, manifest


# ---------------------------------------------------------------------------
# run helpers (importable; the click commands are thin wrappers)

def run_solver(algorithm, problem, cfg, X0=None, seed=0):
    if algorithm in ("prograamme", "prograamme-rc"):
        return prograamme_solve(problem, cfg, X0, seed=seed)
    if algorithm in ("pgd", "fista"):
        return pgd_solve(problem, cfg, X0, seed=seed)
    raise LowRankError(f"unknown algorithm {algorithm!r}")


def _write_run(out, trace, cfg, algorithm, tau):
    """Write trace.csv and summary.json of one finished solve into `out`."""
    trace.write_csv(out / "trace.csv")
    summary = trace.summary(cfg, algorithm)
    summary.update({"tau": tau, "version": __version__})
    if isinstance(cfg.rule, FistaLike):
        summary["inertial_rule"] = f"a_k = (k-1)/(k+{cfg.rule.d:g})"
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)


def solve_once(problem_dir, config, algorithm, out_dir, seed=None, trace_level=None):
    """Load a problem directory, run one solver, write trace and summary.

    Returns the SolveTrace. Raises on validation and I/O problems.
    """
    op, F, W, noise_norm, _, manifest = load_problem_dir(problem_dir)
    tau = resolve_tau(config, noise_norm)
    problem = Problem(op, F, W, tau)
    cfg = build_solver_config(config, algorithm, trace_level)
    run_seed = resolve_seed(config.get("seed", 0), seed)
    trace = run_solver(algorithm, problem, cfg, seed=run_seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_run(out, trace, cfg, algorithm, tau)
    run_manifest = {
        "version": __version__,
        "algorithm": algorithm,
        "problem_manifest": manifest,
        "config": config,
        "seed": run_seed,
    }
    with open(out / "run_manifest.json", "w") as fh:
        json.dump(run_manifest, fh, indent=2)
    return trace


AGGREGATE_HEADER = [
    "name", "algorithm", "repeats", "mean_wall_s", "min_wall_s", "max_wall_s",
    "mean_iterations", "final_rank", "mean_rmse", "all_converged", "diverged",
]


def run_bench(suite, out_dir, repeats, seed=None):
    """Run every (spec, config, algorithm) triple `repeats` times.

    Each repeat uses a derived seed (spec seed + repeat index). Diverging
    runs are recorded in the aggregate rather than aborting the sweep.

    Returns the list of aggregate row dicts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base_seed = resolve_seed(suite.get("seed", 0), seed)
    rows = []
    warnings_seen = []
    for entry in suite["runs"]:
        name = entry["name"]
        algorithm = entry["algorithm"]
        spec = problems.spec_from_dict(entry["spec"])
        config = dict(entry["config"])
        times, iters, rmses, ranks = [], [], [], []
        converged_all = True
        diverged = 0
        for rep in range(repeats):
            run_seed = base_seed + spec.seed + rep
            gen = problems.generate_full(dataclasses.replace(spec, seed=run_seed))
            tau = resolve_tau(config, gen.noise_norm)
            problem = gen.problem(tau)
            cfg = build_solver_config(config, algorithm)
            rep_dir = out / name / f"rep{rep}"
            rep_dir.mkdir(parents=True, exist_ok=True)
            try:
                trace = run_solver(algorithm, problem, cfg, seed=run_seed)
            except DivergenceError as exc:
                diverged += 1
                converged_all = False
                warnings_seen.append(f"{name} rep {rep}: {exc}")
                if exc.trace is not None:
                    exc.trace.write_csv(rep_dir / "trace.csv")
                continue
            _write_run(rep_dir, trace, cfg, algorithm, tau)
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
    with open(out / "aggregate.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=AGGREGATE_HEADER)
        w.writeheader()
        w.writerows(rows)
    manifest = {
        "version": __version__,
        "suite": suite,
        "repeats": repeats,
        "base_seed": base_seed,
        "warnings": warnings_seen,
    }
    with open(out / "bench_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return rows


# ---------------------------------------------------------------------------
# click commands

@click.group()
@click.version_option(__version__)
def main():
    """SVD-free weighted low-rank recovery toolkit."""


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@main.command("generate")
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
def cmd_generate(spec_file, out_dir, seed):
    """Generate a synthetic problem directory from a JSON spec."""
    try:
        with open(spec_file) as fh:
            spec_dict = json.load(fh)
        spec_dict["seed"] = resolve_seed(spec_dict.get("seed", 0), seed)
        spec = problems.spec_from_dict(spec_dict)
        gen = problems.generate_full(spec)
    except (LowRankError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    try:
        write_problem_dir(gen, out_dir)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"wrote problem artifacts to {out_dir}")


@main.command("solve")
@click.option("--problem", "problem_dir", required=True, type=click.Path(exists=True))
@click.option("--config", "config_file", required=True, type=click.Path(exists=True))
@click.option("--algo", "algorithm", required=True, type=click.Choice(ALGORITHMS))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--trace-level", type=click.Choice(["light", "full"]), default=None)
def cmd_solve(problem_dir, config_file, algorithm, out_dir, seed, trace_level):
    """Run a solver on a problem directory; write trace.csv and summary.json."""
    try:
        with open(config_file) as fh:
            config = json.load(fh)
        trace = solve_once(problem_dir, config, algorithm, out_dir,
                           seed=seed, trace_level=trace_level)
    except (LowRankError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
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
def cmd_bench(suite_file, out_dir, repeats, seed):
    """Run a benchmark suite and write per-run traces plus aggregate.csv."""
    try:
        with open(suite_file) as fh:
            suite = json.load(fh)
        rows = run_bench(suite, out_dir, repeats, seed=seed)
    except (LowRankError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    diverged = sum(row["diverged"] for row in rows)
    if diverged:
        click.echo(f"warning: {diverged} run(s) diverged; see bench_manifest.json",
                   err=True)
    click.echo(f"wrote {len(rows)} aggregate rows to {Path(out_dir) / 'aggregate.csv'}")


if __name__ == "__main__":
    main()
