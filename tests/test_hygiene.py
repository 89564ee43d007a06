"""Checks on the source: no unused import or unread private name, file formats
only in the CLI, and no scipy.

The first three read the syntax tree with the standard library's ast module,
so they need no linter; perfbench/ is not scanned. The fourth runs two
solves in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lowrank").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree):
    """(line, name) of every imported name the module never reads.

    A name listed in the module's __all__ is read: the package re-exports it.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in bound if name not in used)


def test_no_unused_import():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in PACKAGE + TESTS for line, name in _unused_imports(_tree(path))]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _private_definitions(tree):
    """(line, name) of every module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in bound
                    if name.startswith("_") and not name.startswith("__"))


def _names_read(tree):
    """Every name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unread_private_name():
    # a private helper, class or constant that nothing in the package reads is dead code
    trees = {path: _tree(path) for path in PACKAGE}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path, tree in trees.items()
              for line, name in _private_definitions(tree) if name not in read]
    assert not unread, "private names never read in the package:\n" + "\n".join(unread)


def _file_io(tree):
    """(line, what) of every import of csv or json and every call of open, savetxt or loadtxt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("open", "savetxt", "loadtxt"):
                yield node.lineno, f"{name}()"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module] if isinstance(node, ast.ImportFrom)
                       else [a.name for a in node.names])
            yield from ((node.lineno, f"import {m}") for m in modules if m in ("csv", "json"))


def test_only_the_cli_reads_and_writes_files():
    # the solvers, operators and generators compute; cli.py owns every format
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in PACKAGE if path.name != "cli.py"
             for line, what in _file_io(_tree(path))]
    assert not found, "file I/O outside cli.py:\n" + "\n".join(found)
    assert list(_file_io(_tree(ROOT / "src" / "lowrank" / "cli.py")))


# the tests import scipy themselves, so the solves run in a fresh interpreter;
# a completion and a dense-sensing solve take both operators' gradient steps
_SCIPY_FREE_SOLVES = """
import sys
import lowrank
import lowrank.cli
from lowrank import (Continuation, SolverConfig, SyntheticSpec,
                     generate_full, prograamme_solve)
from lowrank.problems import AdditiveGaussian
gen = generate_full(SyntheticSpec(30, 30, 3, noise=AdditiveGaussian(0.1),
                                  mask_fraction=0.5, seed=1))
trace = prograamme_solve(gen.problem(gen.noise_norm),
                         SolverConfig(r=10, continuation=Continuation(enabled=True)))
assert trace.converged, trace.notes
sgen = generate_full(SyntheticSpec(10, 10, 2, noise=AdditiveGaussian(0.1),
                                   sensing_dim=80, seed=1))
strace = prograamme_solve(sgen.problem(2.0 * sgen.noise_norm),
                          SolverConfig(r=10, continuation=Continuation(enabled=True)))
assert strace.converged, strace.notes
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"lowrank loaded scipy: {loaded[:5]}")
print(f"rc solves converged in {trace.iterations} (completion) and "
      f"{strace.iterations} (dense sensing) iterations; no scipy module loaded")
"""


def test_solvers_stay_off_scipy():
    # scipy's second OpenBLAS starves numpy's threads (see src/lowrank/linalg.py)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SOLVES], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "no scipy module loaded" in run.stdout
