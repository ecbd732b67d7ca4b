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
import json
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


def _fresh_interpreter(probe: str) -> str:
    """Standard output of probe, run in a new interpreter that imports zerocap from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_cli_import_loads_no_process_pool():
    # The pool is for `selftest paper --jobs N` only; every other command
    # would pay for importing it at start-up.
    probe = (
        "import sys, zerocap.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_cli_import_loads_no_numpy():
    # numpy serves the float search, theta and the selftest checks only; the
    # exact commands should not pay for importing it at start-up.
    probe = (
        "import sys, zerocap.cli; "
        "print([m for m in ('numpy', 'zerocap.search', 'zerocap.selftest') "
        "if m in sys.modules])"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_verify_cert_runs_without_numpy(tmp_path):
    from zerocap.certificates import lift_graph_certificate, tensor_certificate
    from zerocap.classical import gram_fitting_matrix, pentagon_representation
    from zerocap.graphs import cycle_graph
    from zerocap.ncgraph import NcGraph, tensor

    c5 = NcGraph.from_graph(cycle_graph(5))
    lifted = lift_graph_certificate(gram_fitting_matrix(cycle_graph(5), pentagon_representation()))
    span, cert = tmp_path / "c5xc5.json", tmp_path / "c5xc5-cert.json"
    span.write_text(json.dumps(tensor(c5, c5).to_json_dict()))
    cert.write_text(json.dumps(tensor_certificate(c5, lifted, c5, lifted).to_json_dict()))
    probe = (
        "import sys, zerocap.cli; "
        f"code = zerocap.cli.main(['nc', 'verify-cert', {str(span)!r}, {str(cert)!r}]); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_interpreter(probe).splitlines() == ["rank 9, OK", "0 False"]


def test_nc_haemers_below_the_block_count_floor_runs_without_numpy(tmp_path):
    # the pentagon span searches only k = 2, where m * 2 >= 5 rules out
    # m = 1 and m = 2, so no float search starts
    from zerocap.graphs import cycle_graph
    from zerocap.ncgraph import NcGraph

    span, cert = tmp_path / "sc5.json", tmp_path / "sc5-cert.json"
    span.write_text(json.dumps(NcGraph.from_graph(cycle_graph(5)).to_json_dict()))
    probe = (
        "import sys, zerocap.cli; "
        f"code = zerocap.cli.main(['nc', 'haemers', {str(span)!r}, '--m-schedule', '1,2']); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_interpreter(probe).splitlines() == [
        "H >= 2 (proper subspace of the full matrix algebra)",
        f"H <= 3 (fitting-lift, certificate rank 3, m=5) -> {cert}",
        "0 False",
    ]


def test_build_and_transform_run_without_numpy(file_command):
    argv, _, text = file_command
    probe = (
        "import sys, zerocap.cli; "
        f"code = zerocap.cli.main({argv!r}); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_interpreter(probe).splitlines() == [text, "0 False"]


def test_every_public_name_resolves():
    import zerocap

    missing = [name for name in zerocap.__all__ if not hasattr(zerocap, name)]
    assert missing == []
    with pytest.raises(AttributeError):
        zerocap.no_such_name


def test_cli_leaves_the_bound_chain_to_certificates():
    # nc haemers calls certificates.haemers_bound, the one home of the chain
    import zerocap.cli as cli

    chain = ("haemers_lower", "haemers_upper_search", "constructed_certificate",
             "haemers_exact_decide")
    assert [name for name in chain if hasattr(cli, name)] == []
