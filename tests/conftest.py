"""Fixtures shared by the test modules."""

import json

import pytest

from zerocap import exactlinalg, groebner
from zerocap.certificates import (
    identity_certificate,
    independent_witness_kraus,
    lift_graph_certificate,
    to_tp_map,
)
from zerocap.classical import gram_fitting_matrix, pentagon_representation, unit_diagonal_form
from zerocap.graphs import cycle_graph
from zerocap.independence import IndependentSystem
from zerocap.ncgraph import NcGraph, QuantumChannel, diagonal_system


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gains one entry, the column count, per run of the exact elimination kernel."""
    calls = []
    kernel = exactlinalg._fraction_free_rref

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(exactlinalg, "_fraction_free_rref", counting)
    return calls


@pytest.fixture
def leading_terms(monkeypatch):
    """A list that gains one entry, the polynomial, per call of Polynomial.leading."""
    calls = []
    leading = groebner.Polynomial.leading

    def counting(p):
        calls.append(p)
        return leading(p)

    monkeypatch.setattr(groebner.Polynomial, "leading", counting)
    return calls


@pytest.fixture(
    params=["build", "tensor", "dsum", "conjugate", "cohom", "lift", "project", "tpmap",
            "tpmap-reverse"]
)
def file_command(request, tmp_path):
    """(argv, JSON payload, text line) of `nc build -o` or an `nc transform`.

    Each of these commands writes one file and reports it in one line; the
    inputs are small files written to tmp_path.
    """

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    c5 = cycle_graph(5)
    graph = tmp_path / "c5.dimacs"
    graph.write_text(c5.to_text())
    fm = unit_diagonal_form(gram_fitting_matrix(c5, pentagon_representation()))
    kraus = independent_witness_kraus(IndependentSystem.standard_basis(5, [0, 2]))
    sc5 = write("sc5.json", NcGraph.from_graph(c5).to_json_dict())
    d2 = write("d2.json", diagonal_system(2).to_json_dict())
    d3 = write("d3.json", diagonal_system(3).to_json_dict())
    c2 = write("c2.json", identity_certificate(2).to_json_dict())
    c3 = write("c3.json", identity_certificate(3).to_json_dict())
    c5_identity = write("c5-identity.json", identity_certificate(5).to_json_dict())
    fitting = write("fitting.json", fm.to_json_dict())
    lifted = write("lifted.json", lift_graph_certificate(fm).to_json_dict())
    swap = write("swap.json", [["0", "1"], ["1", "0"]])
    channel = write("channel.json", QuantumChannel(2, 5, tuple(kraus)).to_json_dict())
    tp = write("tp.json", to_tp_map(diagonal_system(3), identity_certificate(3)).to_json_dict())
    out = str(tmp_path / "out.json")

    def cert(n, m, k):
        return {"output": out, "n": n, "m": m, "k": k}, f"n={n}, m={m}, rank bound k={k} -> {out}"

    transform = ["nc", "transform"]
    cases = {
        "build": (["nc", "build", "--from-graph", str(graph), "-o", out],
                  {"output": out, "n": 5, "dim": 15}, f"span of dimension 15 in M_5 -> {out}"),
        "tensor": ([*transform, "tensor", d2, c2, d3, c3, "-o", out], *cert(6, 1, 6)),
        "dsum": ([*transform, "dsum", d2, c2, d3, c3, "-o", out], *cert(5, 1, 5)),
        "conjugate": ([*transform, "conjugate", d2, c2, swap, "-o", out], *cert(2, 1, 2)),
        "cohom": ([*transform, "cohom", c5_identity, "--source", d2, "--target", sc5,
                   "--kraus", channel, "-o", out], *cert(2, 2, 5)),
        "lift": ([*transform, "lift", fitting, "-o", out], *cert(5, 5, 3)),
        "project": ([*transform, "project", sc5, lifted, "-o", out],
                    {"output": out, "vertices": 5, "rank": 3},
                    f"fitting matrix on 5 vertices, rank 3 -> {out}"),
        # identity_certificate(3) has one block, so its map form has one pair
        "tpmap": ([*transform, "tpmap", d3, c3, "-o", out],
                  {"output": out, "pairs": 1, "k": 3, "rank": 3},
                  f"trace-preserving map form, 1 operator pairs, rank 3 -> {out}"),
        "tpmap-reverse": ([*transform, "tpmap", d3, tp, "--reverse", "-o", out], *cert(3, 1, 3)),
    }
    return cases[request.param]
