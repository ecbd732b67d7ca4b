"""Seeded fuzz over the CLI loaders: a malformed input file never escapes.

Each mutation replaces one node of a valid JSON input (the whole document,
a field, a list item, a matrix entry) by one of a few wrong values, writes
it to disk and runs the command that loads it.  Whatever the mutation,
``cli.main`` returns 0, 1 (the file still loads but fails verification) or
2, and exit 2 comes with exactly one ``error:`` line.
"""

import copy
import json
import random

import pytest

from zerocap.certificates import identity_certificate, to_tp_map
from zerocap.classical import best_fitting_matrix, unit_diagonal_form
from zerocap.cli import main
from zerocap.exactlinalg import ExactMatrix
from zerocap.graphs import cycle_graph
from zerocap.ncgraph import QuantumChannel, scalar_identity_system

SEED = 20201
MUTATIONS_PER_TARGET = 45
REPLACEMENTS = (5, None, "x", [], {}, "1/0")


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _node_paths(child, prefix + (idx,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _targets():
    """name -> (valid document, argv for a file holding it, given the tmp dir)."""
    s = scalar_identity_system(2)
    cert = identity_certificate(2)
    fitting = unit_diagonal_form(best_fitting_matrix(cycle_graph(3)))
    kraus = QuantumChannel(2, 2, (ExactMatrix.identity(2),))
    return {
        "span": (s.to_json_dict(),
                 lambda f, d: ["nc", "verify-cert", f, str(d / "cert.json")]),
        "haemers": (cert.to_json_dict(),
                    lambda f, d: ["nc", "verify-cert", str(d / "span.json"), f]),
        "tpmap": (to_tp_map(s, cert).to_json_dict(),
                  lambda f, d: ["nc", "verify-cert", str(d / "span.json"), f]),
        "graph": (cycle_graph(3).to_json_dict(), lambda f, d: ["graph", "alpha", f]),
        "fitting": (fitting.to_json_dict(),
                    lambda f, d: ["nc", "transform", "lift", f, "-o", str(d / "out.json")]),
        "classical": ({"inputs": 2, "outputs": 2, "probs": [["1", "0"], ["0", "1"]]},
                      lambda f, d: ["nc", "build", "--from-classical", f,
                                    "-o", str(d / "out.json")]),
        "quantum": (kraus.to_json_dict(),
                    lambda f, d: ["nc", "build", "--from-kraus", f,
                                  "-o", str(d / "out.json")]),
    }


@pytest.mark.filterwarnings("ignore:span is not an operator system")
@pytest.mark.parametrize("target", sorted(_targets()))
def test_malformed_input_never_escapes_main(target, tmp_path, capsys):
    doc, argv = _targets()[target]
    (tmp_path / "span.json").write_text(
        json.dumps(scalar_identity_system(2).to_json_dict())
    )
    (tmp_path / "cert.json").write_text(json.dumps(identity_certificate(2).to_json_dict()))
    mutations = [(p, v) for p in _node_paths(doc) for v in REPLACEMENTS]
    rng = random.Random(f"{SEED}-{target}")
    mutations = rng.sample(mutations, min(MUTATIONS_PER_TARGET, len(mutations)))
    problems = []
    for path, value in mutations:
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(_replaced(doc, path, value)))
        try:
            code = main(argv(str(mutated), tmp_path))
        except Exception as exc:  # noqa: BLE001 - the property under test
            problems.append(f"{path} -> {value!r}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2):
            problems.append(f"{path} -> {value!r}: exit {code}")
        elif code == 2 and not (err.count("error:") == 1 and err.startswith("error:")):
            problems.append(f"{path} -> {value!r}: exit 2 with stderr {err!r}")
    assert not problems, "\n".join(problems)
