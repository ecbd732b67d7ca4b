"""Every imported name and every private module-level name is used.

The repository has no linter, so this scans the source with ``ast``: a
name bound by an import must be read somewhere else in the same file
(a plain name, the base of an attribute, or inside a string annotation).
``zerocap/__init__.py`` is skipped because its imports are the public
re-exports listed in ``__all__``.  In the package modules, a function,
class or assignment at module level whose name starts with one
underscore is private to its module, so it must be read there too; this
catches helpers that a refactor leaves behind.  For the same reason no
package module imports such a name from another zerocap module: a helper
that two modules share is public and named so.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zerocap").glob("*.py"))
FILES = sorted(
    path
    for path in [*SOURCES, *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        # string annotations such as -> "ExactMatrix"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unread = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for name, line in sorted(_private_definitions(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]
    assert not unread, "private name defined but never read:\n" + "\n".join(unread)


def _private_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "zerocap"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.lineno, f"{node.module}.{alias.name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for line, name in _private_imports(tree)
    ]
    assert not found, "private name imported across modules:\n" + "\n".join(found)


def test_cli_import_loads_no_process_pool():
    # The pool is for `selftest paper --jobs N` only; every other command
    # would pay for importing it at start-up.
    probe = (
        "import sys, zerocap.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
