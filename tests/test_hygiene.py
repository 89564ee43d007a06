"""Static checks on the source: no unused import, and file formats only in the CLI.

Both read the syntax tree with the standard library's ast module, so they
need no linter. perfbench/ is not scanned.
"""

import ast
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
