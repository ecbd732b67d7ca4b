"""CLI behavior: exit codes, output shapes, and disk-backed re-verification."""

import argparse
import hashlib
import inspect
import json
from fractions import Fraction

import pytest

from zerocap.certificates import (
    DEFAULT_SEARCH_BUDGET,
    HaemersCertificate,
    conjugate_certificate,
    direct_sum_certificate,
    full_matrix_certificate,
    haemers_bound,
    haemers_exact_decide,
    haemers_upper_search,
    identity_certificate,
    independent_witness_kraus,
    lift_graph_certificate,
    to_tp_map,
    verify_certificate,
)
from zerocap.classical import (
    FittingMatrix,
    gram_fitting_matrix,
    pentagon_representation,
    unit_diagonal_form,
    verify_fitting,
)
from zerocap.cli import main
from zerocap.graphs import Graph, cycle_graph
from zerocap.groebner import DEFAULT_TIME_BUDGET, buchberger
import zerocap.cli as cli_module
from zerocap.exactlinalg import ExactMatrix
from zerocap.independence import IndependentSystem
from zerocap.ncgraph import (
    NcGraph,
    QuantumChannel,
    conjugate_by_unitary,
    corner_family,
    diagonal_system,
    direct_sum_nc,
    full_matrix_system,
    matrix_unit,
    scalar_identity_system,
)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.dimacs"
    path.write_text(cycle_graph(5).to_text())
    return str(path)


@pytest.fixture
def ci2_file(tmp_path):
    path = tmp_path / "ci2.json"
    path.write_text(json.dumps(scalar_identity_system(2).to_json_dict()))
    return str(path)


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _write_span(tmp_path, name, span):
    return _write_json(tmp_path, name, span.to_json_dict())


def _write_cert(tmp_path, name, cert):
    return _write_json(tmp_path, name, cert.to_json_dict())


def test_graph_alpha(c5_file, capsys):
    assert main(["graph", "alpha", c5_file]) == 0
    assert "alpha = 2" in capsys.readouterr().out


def test_graph_alpha_json(c5_file, capsys):
    assert main(["graph", "alpha", c5_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == 2
    assert len(data["witness"]) == 2


def test_graph_theta(c5_file, capsys):
    assert main(["graph", "theta", c5_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["theta"] - 5**0.5) < 1e-4


def test_graph_theta_below_float_precision_exits_0(c5_file, capsys):
    assert main(["graph", "theta", c5_file, "--tol", "1e-13", "--json"]) == 0
    lower, upper = json.loads(capsys.readouterr().out)["bracket"]
    assert lower <= 5**0.5 <= upper


def test_graph_power_round_trips(c5_file, capsys):
    assert main(["graph", "power", c5_file, "-k", "2"]) == 0
    out = capsys.readouterr().out
    h = Graph.from_text(out)
    assert h.n == 25 and len(h.edges) == 100


def test_graph_report_re_verifies_from_disk(c5_file, tmp_path, capsys):
    cert_dir = tmp_path / "certs"
    assert main(["graph", "report", c5_file, "--cert-dir", str(cert_dir), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["consistency"] == "pass"
    rows = {name: (value, prov) for name, value, prov in data["rows"]}
    assert rows["alpha"] == (2, "exact")
    assert rows["haemers-lower"][0] == 3
    assert rows["haemers-upper"][0] == 3
    assert rows["xi-upper"][0] == 3
    # the certificate file stands on its own
    path = rows["haemers-upper"][1].split("certificate:", 1)[1]
    fm = FittingMatrix.from_json_dict(json.loads(open(path).read()))
    assert verify_fitting(fm) == 3


def test_graph_report_c7_closes_at_the_clique_cover(tmp_path, capsys):
    path = tmp_path / "c7.dimacs"
    path.write_text(cycle_graph(7).to_text())
    assert main(["graph", "report", str(path), "--cert-dir", str(tmp_path / "certs")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if "upper" in line] == [
        ["haemers-upper", "4"],
        ["xi-upper", "4"],
    ]


def test_nc_build_from_graph(c5_file, tmp_path, capsys):
    out = tmp_path / "span.json"
    assert main(["nc", "build", "--from-graph", c5_file, "-o", str(out)]) == 0
    span = NcGraph.from_json_dict(json.loads(out.read_text()))
    assert span.n == 5 and span.dim == 15


def test_nc_build_from_basis_to_stdout(ci2_file, capsys):
    assert main(["nc", "build", "--from-basis", ci2_file]) == 0
    span = NcGraph.from_json_dict(json.loads(capsys.readouterr().out))
    assert span == scalar_identity_system(2)


def test_nc_haemers_scalar_span(ci2_file, tmp_path, capsys):
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", ci2_file, "--cert-out", str(cert_out)]) == 0
    out = capsys.readouterr().out
    assert "H >= 2" in out and "H <= 2" in out
    cert = HaemersCertificate.from_json_dict(json.loads(cert_out.read_text()))
    assert verify_certificate(scalar_identity_system(2), cert) == 2


def test_nc_haemers_json_and_seed_stability(ci2_file, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["nc", "haemers", ci2_file, "--cert-out", str(a), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"]["value"] == 2
    assert payload["upper"]["rank"] == 2
    assert payload["upper"]["method"] == "identity"
    assert payload["upper"]["provenance"] == f"certificate:{a}"
    assert main(["nc", "haemers", ci2_file, "--cert-out", str(b), "--json"]) == 0
    assert a.read_text() == b.read_text()


def _nc_haemers_json(span_path, tmp_path, capsys, *extra):
    cert_out = tmp_path / "span-cert.json"
    argv = ["nc", "haemers", span_path, "--json", "--cert-out", str(cert_out)]
    assert main([*argv, *extra]) == 0
    payload = json.loads(capsys.readouterr().out)
    return payload["lower"]["value"], payload["upper"], cert_out


def _record_search(monkeypatch):
    calls = []

    def recording(s, k, **kwargs):
        calls.append(k)
        return haemers_upper_search(s, k, **kwargs)

    monkeypatch.setattr("zerocap.certificates.haemers_upper_search", recording)
    return calls


def test_nc_haemers_pentagon_lifts_the_fitting_matrix(c5_file, tmp_path, capsys):
    span = tmp_path / "c5.json"
    assert main(["nc", "build", "--from-graph", c5_file, "-o", str(span)]) == 0
    capsys.readouterr()
    lower, upper, cert_out = _nc_haemers_json(
        str(span), tmp_path, capsys, "--m-schedule", "1,2"
    )
    assert [lower, upper["rank"]] == [2, 3]
    assert upper["method"] == "fitting-lift"
    assert (upper["k"], upper["m"]) == (3, 5)
    assert upper["provenance"] == f"certificate:{cert_out}"
    assert main(["nc", "verify-cert", str(span), str(cert_out)]) == 0
    assert "rank 3, OK" in capsys.readouterr().out
    assert main(["nc", "haemers", str(span), "--m-schedule", "1,2",
                 "--cert-out", str(cert_out)]) == 0
    assert "H <= 3 (fitting-lift, certificate rank 3, m=5)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "span, rank",
    [
        pytest.param(NcGraph.from_graph(cycle_graph(7)), 4, id="c7"),
        pytest.param(
            direct_sum_nc(NcGraph.from_graph(cycle_graph(5)), NcGraph.from_graph(cycle_graph(5))),
            6,
            id="c5+c5",
        ),
    ],
)
def test_nc_haemers_lifts_the_clique_cover(span, rank, tmp_path, capsys):
    path = _write_span(tmp_path, "span.json", span)
    # --k-max 1 leaves no rank to search below the constructed one
    _, upper, cert_out = _nc_haemers_json(path, tmp_path, capsys, "--k-max", "1")
    assert (upper["method"], upper["rank"]) == ("fitting-lift", rank)
    assert main(["nc", "verify-cert", path, str(cert_out)]) == 0
    assert f"rank {rank}, OK" in capsys.readouterr().out


def test_nc_haemers_searches_only_below_the_constructed_rank(
    tmp_path, capsys, monkeypatch
):
    calls = _record_search(monkeypatch)
    span = _write_span(tmp_path, "corner.json", corner_family(Fraction(1, 2)))
    lower, upper, _ = _nc_haemers_json(span, tmp_path, capsys, "--m-schedule", "1,2")
    assert [lower, upper["rank"]] == [2, 3]
    assert upper["method"] == "identity"
    assert calls == [2]


def test_nc_haemers_default_schedule_certificate_is_pinned(tmp_path, capsys):
    # the default schedule 1,2,n,n^2 searches k = 2 up to m = 9 and finds nothing
    span = _write_span(tmp_path, "corner.json", corner_family(Fraction(1, 2)))
    lower, upper, cert_out = _nc_haemers_json(span, tmp_path, capsys)
    assert [lower, upper["rank"], upper["method"]] == [2, 3, "identity"]
    text = json.dumps(json.loads(cert_out.read_text()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af6a37e69b653e5ae17747376a5269b3dc976857be1b8df1988ab43c4e1e1109"
    )


def test_nc_haemers_full_algebra_needs_no_search(tmp_path, capsys, monkeypatch):
    calls = _record_search(monkeypatch)
    span = _write_span(tmp_path, "full.json", full_matrix_system(2))
    lower, upper, _ = _nc_haemers_json(span, tmp_path, capsys)
    assert [lower, upper["rank"]] == [1, 1]
    assert upper["method"] == "full-algebra"
    assert calls == []


def test_nc_haemers_exact_tiny_refutes_rank_one(ci2_file, tmp_path, capsys):
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", ci2_file, "--exact-tiny", "--json",
                 "--cert-out", str(cert_out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_tiny"] == ["rank 1: m=1: infeasible, m=2: infeasible"]
    assert payload["upper"]["rank"] == 2
    assert payload["upper"]["method"] == "identity"


def test_nc_haemers_exact_tiny_skips_a_system_with_too_many_variables(
    c5_file, tmp_path, capsys
):
    span = tmp_path / "sc5.json"
    assert main(["nc", "build", "--from-graph", c5_file, "-o", str(span)]) == 0
    capsys.readouterr()
    assert main(["nc", "haemers", str(span), "--m-schedule", "1,2", "--exact-tiny",
                 "--k-max", "1", "--cert-out", str(tmp_path / "cert.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "exact: rank 1: m=1: infeasible, m=2: skipped (too many variables)" in lines


def test_nc_haemers_takes_the_search_certificate_below_the_constructed_rank(
    tmp_path, capsys, monkeypatch
):
    # rot(M_2 + C): the direct sum turned by a rational rotation, whose
    # constructed certificate is the identity (rank 3)
    u = ExactMatrix.from_rows(
        [[1, 0, 0], [0, Fraction(3, 5), Fraction(4, 5)], [0, Fraction(-4, 5), Fraction(3, 5)]]
    )
    full, one = full_matrix_system(2), scalar_identity_system(1)
    base = direct_sum_nc(full, one)
    found = conjugate_certificate(
        base,
        direct_sum_certificate(full, full_matrix_certificate(2), one, identity_certificate(1)),
        u,
    )
    calls = []

    def stub(s, k, **kwargs):
        calls.append(k)
        return found

    monkeypatch.setattr("zerocap.certificates.haemers_upper_search", stub)
    span = _write_span(tmp_path, "rot.json", conjugate_by_unitary(base, u))
    lower, upper, cert_out = _nc_haemers_json(span, tmp_path, capsys, "--m-schedule", "1,2")
    assert calls == [2]
    assert [lower, upper["rank"]] == [2, 2]
    assert (upper["method"], upper["m"]) == ("search", 2)
    assert main(["nc", "verify-cert", span, str(cert_out)]) == 0
    assert "rank 2, OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "span, kwargs, flags",
    [
        pytest.param(
            NcGraph.from_graph(cycle_graph(5)),
            {"m_schedule": [1, 2], "budget": 2, "k_max": 3},
            ["--m-schedule", "1,2", "--budget", "2", "--k-max", "3"],
            id="pentagon",
        ),
        *(
            pytest.param(corner_family(Fraction(p, 4)), {"m_schedule": [1, 2]},
                         ["--m-schedule", "1,2"], id=f"corner-{p}/4")
            for p in (1, 2, 3)
        ),
        pytest.param(
            scalar_identity_system(2),
            {"exact_budget": cli_module.CliConfig().groebner_budget},
            ["--exact-tiny"],
            id="ci2-exact",
        ),
    ],
)
def test_haemers_bound_is_what_nc_haemers_prints(span, kwargs, flags, tmp_path, capsys):
    lower, cert, method, notes = haemers_bound(span, **kwargs)
    path = _write_span(tmp_path, "span.json", span)
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", path, "--json", "--cert-out", str(cert_out), *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == json.loads(json.dumps(lower.to_json_dict()))
    assert payload["upper"] == {
        "rank": verify_certificate(span, cert),
        "k": cert.k,
        "m": cert.m,
        "method": method,
        "provenance": f"certificate:{cert_out}",
    }
    assert payload["exact_tiny"] == notes
    assert cert_out.read_text() == json.dumps(cert.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "span",
    [
        pytest.param(
            NcGraph.span_from_generators(
                3, [matrix_unit(3, 0, 0), matrix_unit(3, 0, 1) + matrix_unit(3, 1, 2)]
            ),
            id="e11-and-e12+e23",
        ),
        pytest.param(NcGraph(2, []), id="empty"),
    ],
)
def test_nc_haemers_rejects_a_span_without_the_identity(span, tmp_path, capsys, monkeypatch):
    # the diagonal blocks of a certificate sum to I inside the span, so none
    # exists and nothing is worth computing
    def fail(*args, **kwargs):
        raise AssertionError("bound computed for a span without the identity")

    monkeypatch.setattr("zerocap.certificates.haemers_lower", fail)
    monkeypatch.setattr("zerocap.certificates.haemers_upper_search", fail)
    with pytest.raises(ValueError, match="identity"):
        haemers_bound(span)
    path = _write_span(tmp_path, "span.json", span)
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", path, "--cert-out", str(cert_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not cert_out.exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nc_haemers_rejects_a_budget_below_one(budget, tmp_path, capsys, monkeypatch):
    calls = _record_search(monkeypatch)
    # the full algebra runs no search, so only an up-front check catches it
    span = _write_span(tmp_path, "full.json", full_matrix_system(2))
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", span, "--budget", budget,
                 "--cert-out", str(cert_out)]) == 2
    assert capsys.readouterr().err == f"error: --budget must be positive, got {budget}\n"
    assert calls == [] and not cert_out.exists()


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_nc_haemers_rejects_a_k_max_below_one(k_max, tmp_path, capsys, monkeypatch):
    calls = _record_search(monkeypatch)
    span = _write_span(tmp_path, "corner.json", corner_family(Fraction(1, 2)))
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", span, "--k-max", k_max,
                 "--cert-out", str(cert_out)]) == 2
    assert capsys.readouterr().err == f"error: --k-max must be positive, got {k_max}\n"
    assert calls == [] and not cert_out.exists()


def test_nc_haemers_prints_a_library_warning_once_per_run(tmp_path, capsys):
    # span{I, E_12} holds I but is not self-adjoint, so each of the two
    # verify_certificate calls of a run warns; both runs share one process
    span = _write_span(tmp_path, "span.json", NcGraph(2, [{0: (1, 0), 3: (1, 0)}, {1: (1, 0)}]))
    cert_out = tmp_path / "cert.json"
    for _ in range(2):
        assert main(["nc", "haemers", span, "--cert-out", str(cert_out)]) == 0
        out, err = capsys.readouterr()
        assert out == (
            "H >= 2 (proper subspace of the full matrix algebra)\n"
            f"H <= 2 (identity, certificate rank 2, m=1) -> {cert_out}\n"
        )
        assert err == (
            "warning: span is not an operator system (self-adjoint with identity); "
            "the rank bound is still checked but loses its capacity meaning\n"
        )


@pytest.mark.parametrize(
    "span, expected",
    [(NcGraph(2, [{0: (1, 0), 3: (1, 0)}, {1: (1, 0)}]), False), (diagonal_system(2), True)],
    ids=["I-and-E12", "diagonal"],
)
def test_nc_haemers_json_says_whether_the_span_is_an_operator_system(
    span, expected, tmp_path, capsys
):
    path = _write_span(tmp_path, "span.json", span)
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", path, "--json", "--cert-out", str(cert_out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["operator_system"] is expected
    assert payload["upper"]["rank"] == 2


def test_defaults_have_one_source():
    args = cli_module.build_parser().parse_args(["nc", "haemers", "span.json"])
    assert args.budget == DEFAULT_SEARCH_BUDGET
    for fn in (haemers_upper_search, haemers_bound):
        assert inspect.signature(fn).parameters["budget"].default == DEFAULT_SEARCH_BUDGET
    assert cli_module.CliConfig().groebner_budget == DEFAULT_TIME_BUDGET
    for fn in (haemers_exact_decide, buchberger):
        assert inspect.signature(fn).parameters["time_budget"].default == DEFAULT_TIME_BUDGET


def _command_paths(parser, prefix=()):
    """The word sequences naming every leaf command of an argparse parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [path for name, sub in subs[0].choices.items()
            for path in _command_paths(sub, (*prefix, name))]


@pytest.mark.parametrize(
    "command", _command_paths(cli_module.build_parser()), ids=" ".join
)
def test_every_command_rejects_a_negative_seed(command, capsys):
    # a file that does not exist: loading anything would fail with another message
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "-1", "no-such-file.json"])
    assert exc.value.code == 2
    err_lines = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(err_lines) == 1 and "--seed" in err_lines[0]


@pytest.mark.parametrize("schedule", ["0", "100", ""])
@pytest.mark.parametrize("span_name", ["full", "corner"])
def test_nc_haemers_rejects_a_schedule_with_no_usable_block_count(
    schedule, span_name, tmp_path, capsys, monkeypatch
):
    calls = _record_search(monkeypatch)
    # the full algebra runs no search, so only an up-front check catches it
    span = {"full": full_matrix_system(2), "corner": corner_family(Fraction(1, 2))}[span_name]
    path = _write_span(tmp_path, f"{span_name}.json", span)
    cert_out = tmp_path / "cert.json"
    assert main(["nc", "haemers", path, "--m-schedule", schedule,
                 "--cert-out", str(cert_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == [] and not cert_out.exists()


def test_nc_verify_cert_ok(ci2_file, tmp_path, capsys):
    cert_path = _write_cert(tmp_path, "id2.json", identity_certificate(2))
    assert main(["nc", "verify-cert", ci2_file, cert_path]) == 0
    assert "rank 2, OK" in capsys.readouterr().out


def test_nc_verify_cert_failure_exits_1(tmp_path, capsys):
    span_path = _write_span(tmp_path, "d3.json", diagonal_system(3))
    cert_path = _write_cert(tmp_path, "id2.json", identity_certificate(2))
    assert main(["nc", "verify-cert", span_path, cert_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "verification"
    assert err["kind"] == "shape"


def _null_n(span, cert):
    span["n"] = None
    return span, cert


def _array_span(span, cert):
    return [span], cert


def _zero_denominator(span, cert):
    cert["C"][0][0] = "1/0"
    return span, cert


def _number_entry(span, cert):
    cert["C"][0][0] = 5
    return span, cert


def _factor_not_a_matrix(span, cert):
    cert["C"] = 5
    return span, cert


@pytest.mark.parametrize(
    "corrupt",
    [_null_n, _array_span, _zero_denominator, _number_entry, _factor_not_a_matrix],
)
def test_nc_verify_cert_malformed_input_exits_2(corrupt, tmp_path, capsys):
    span, cert = corrupt(
        scalar_identity_system(2).to_json_dict(), identity_certificate(2).to_json_dict()
    )
    span_path, cert_path = tmp_path / "span.json", tmp_path / "cert.json"
    span_path.write_text(json.dumps(span))
    cert_path.write_text(json.dumps(cert))
    assert main(["nc", "verify-cert", str(span_path), str(cert_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def _span_basis_not_a_list(tmp_path):
    span = scalar_identity_system(2).to_json_dict()
    span["basis"] = 5
    cert = _write_cert(tmp_path, "cert.json", identity_certificate(2))
    return ["nc", "verify-cert", _write_json(tmp_path, "span.json", span), cert]


def _tpmap_factors_not_a_list(tmp_path):
    s = scalar_identity_system(2)
    tp = to_tp_map(s, identity_certificate(2)).to_json_dict()
    tp["E"] = 5
    span = _write_span(tmp_path, "span.json", s)
    return ["nc", "verify-cert", span, _write_json(tmp_path, "tp.json", tp)]


def _kraus_not_a_list(tmp_path):
    chan = QuantumChannel(2, 2, (ExactMatrix.identity(2),)).to_json_dict()
    chan["kraus"] = 5
    path = _write_json(tmp_path, "chan.json", chan)
    return ["nc", "build", "--from-kraus", path, "-o", str(tmp_path / "out.json")]


def _graph_edge_not_a_pair(tmp_path):
    graph = cycle_graph(3).to_json_dict()
    graph["edges"][0] = 5
    return ["graph", "alpha", _write_json(tmp_path, "g.json", graph)]


@pytest.mark.parametrize(
    "argv",
    [_span_basis_not_a_list, _tpmap_factors_not_a_list, _kraus_not_a_list,
     _graph_edge_not_a_pair],
)
def test_loader_rejects_a_malformed_list_field(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "name, text",
    [("g.dimacs", "p -3 1\n"), ("g.json", json.dumps({"n": -3, "edges": []}))],
    ids=["text", "json"],
)
def test_graph_negative_vertex_count_exits_2(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["graph", "alpha", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: vertex count n = -3 is negative\n"


def test_nc_build_classical_zero_denominator_exits_2(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"inputs": 1, "outputs": 2, "probs": [["1/0"], ["0"]]}))
    out = tmp_path / "span.json"
    assert main(["nc", "build", "--from-classical", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_transform_dsum_and_tensor(tmp_path, capsys):
    d2 = _write_span(tmp_path, "d2.json", diagonal_system(2))
    d3 = _write_span(tmp_path, "d3.json", diagonal_system(3))
    c2 = _write_cert(tmp_path, "c2.json", identity_certificate(2))
    c3 = _write_cert(tmp_path, "c3.json", identity_certificate(3))
    out = tmp_path / "sum.json"
    sys_out = tmp_path / "d5.json"
    code = main(["nc", "transform", "dsum", d2, c2, d3, c3,
                 "-o", str(out), "--system-out", str(sys_out)])
    assert code == 0
    assert main(["nc", "verify-cert", str(sys_out), str(out)]) == 0
    assert "rank 5, OK" in capsys.readouterr().out

    out2 = tmp_path / "prod.json"
    sys_out2 = tmp_path / "d6.json"
    code = main(["nc", "transform", "tensor", d2, c2, d3, c3,
                 "-o", str(out2), "--system-out", str(sys_out2)])
    assert code == 0
    assert main(["nc", "verify-cert", str(sys_out2), str(out2)]) == 0
    assert "rank 6, OK" in capsys.readouterr().out


def test_transform_conjugate_writes_a_verifiable_span(tmp_path, capsys):
    s = NcGraph.from_graph(cycle_graph(5))
    span = _write_span(tmp_path, "sc5.json", s)
    fm = unit_diagonal_form(gram_fitting_matrix(cycle_graph(5), pentagon_representation()))
    cert = _write_cert(tmp_path, "c5.json", lift_graph_certificate(fm))
    perm = [1, 3, 0, 2, 4]
    u = _write_json(tmp_path, "u.json", [["1" if perm[i] == j else "0" for j in range(5)]
                                         for i in range(5)])
    out, sys_out = tmp_path / "conj.json", tmp_path / "conj-span.json"
    assert main(["nc", "transform", "conjugate", span, cert, u,
                 "-o", str(out), "--system-out", str(sys_out)]) == 0
    capsys.readouterr()
    assert NcGraph.from_json_dict(json.loads(sys_out.read_text())) != s
    assert main(["nc", "verify-cert", str(sys_out), str(out)]) == 0
    assert "rank 3, OK" in capsys.readouterr().out


def test_transform_conjugate_rejects_a_unitary_of_the_wrong_size(tmp_path, capsys):
    span = _write_span(tmp_path, "ci2.json", scalar_identity_system(2))
    cert = _write_cert(tmp_path, "id2.json", identity_certificate(2))
    u = _write_json(tmp_path, "u3.json", [["1" if i == j else "0" for j in range(3)]
                                          for i in range(3)])
    out = tmp_path / "conj.json"
    assert main(["nc", "transform", "conjugate", span, cert, u, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unitary dimension mismatch\n"
    assert not out.exists()


def test_transform_cohom_pulls_a_certificate_back(tmp_path, capsys):
    kraus = independent_witness_kraus(IndependentSystem.standard_basis(5, [0, 2]))
    channel = _write_json(tmp_path, "ch.json", QuantumChannel(2, 5, tuple(kraus)).to_json_dict())
    target = _write_span(tmp_path, "sc5.json", NcGraph.from_graph(cycle_graph(5)))
    source = _write_span(tmp_path, "d2.json", diagonal_system(2))
    cert = _write_cert(tmp_path, "id5.json", identity_certificate(5))
    out = tmp_path / "pulled.json"
    assert main(["nc", "transform", "cohom", cert, "--source", source, "--target", target,
                 "--kraus", channel, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["nc", "verify-cert", source, str(out)]) == 0
    assert "rank 2, OK" in capsys.readouterr().out

    wrong = _write_span(tmp_path, "d3.json", diagonal_system(3))
    out3 = tmp_path / "pulled3.json"
    assert main(["nc", "transform", "cohom", cert, "--source", wrong, "--target", target,
                 "--kraus", channel, "-o", str(out3)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out3.exists()


def test_transform_lift_project_round_trip(c5_file, tmp_path, capsys):
    cert_dir = tmp_path / "certs"
    assert main(["graph", "report", c5_file, "--cert-dir", str(cert_dir)]) == 0
    fitting = cert_dir / "c5-fitting.json"
    span_path = tmp_path / "sc5.json"
    assert main(["nc", "build", "--from-graph", c5_file, "-o", str(span_path)]) == 0
    lifted = tmp_path / "lifted.json"
    assert main(["nc", "transform", "lift", str(fitting), "-o", str(lifted)]) == 0
    assert main(["nc", "verify-cert", str(span_path), str(lifted)]) == 0
    back = tmp_path / "back.json"
    assert main(["nc", "transform", "project", str(span_path), str(lifted),
                 "-o", str(back)]) == 0
    fm = FittingMatrix.from_json_dict(json.loads(back.read_text()))
    assert verify_fitting(fm) == 3


def test_transform_lift_takes_the_fitting_file_of_graph_report(c5_file, tmp_path, capsys):
    cert_dir = tmp_path / "certs"
    assert main(["graph", "report", c5_file, "--cert-dir", str(cert_dir)]) == 0
    fitting = cert_dir / "c5-fitting.json"
    assert json.loads(fitting.read_text())["variant"] == "nonzero-diagonal"
    span_path = tmp_path / "sc5.json"
    assert main(["nc", "build", "--from-graph", c5_file, "-o", str(span_path)]) == 0
    lifted = tmp_path / "lifted.json"
    capsys.readouterr()
    assert main(["nc", "transform", "lift", str(fitting), "-o", str(lifted)]) == 0
    assert main(["nc", "verify-cert", str(span_path), str(lifted)]) == 0
    assert "rank 3, OK" in capsys.readouterr().out


def test_transform_project_rejects_a_span_that_is_not_a_graph_span(tmp_path, capsys):
    span = _write_span(tmp_path, "corner.json", corner_family(Fraction(1, 2)))
    cert = _write_cert(tmp_path, "c3.json", identity_certificate(3))
    out = tmp_path / "fm.json"
    assert main(["nc", "transform", "project", span, cert, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: span is not a graph span\n"
    assert not out.exists()


def test_transform_tpmap_round_trip(tmp_path, capsys):
    d3 = _write_span(tmp_path, "d3.json", diagonal_system(3))
    c3 = _write_cert(tmp_path, "c3.json", identity_certificate(3))
    tp = tmp_path / "tp.json"
    assert main(["nc", "transform", "tpmap", d3, c3, "-o", str(tp)]) == 0
    back = tmp_path / "back.json"
    assert main(["nc", "transform", "tpmap", d3, str(tp), "--reverse",
                 "-o", str(back)]) == 0
    assert json.loads(back.read_text()) == json.loads(open(c3).read())


def test_usage_error_exits_2(c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "alpha", c5_file, "--bogus"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    assert main(["graph", "alpha", "no-such-file.dimacs"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file(c5_file, tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# caps\nsdp-tol = 1e-5\ngraph-n-cap = 32\n")
    assert main(["graph", "theta", c5_file, "--config", str(cfg)]) == 0
    assert "tol 1e-05" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--config", "nan.cfg"]],
    ids=["nan", "inf", "negative", "config-nan"],
)
def test_graph_theta_rejects_a_bad_tolerance(
    extra, c5_file, tmp_path, capsys, monkeypatch
):
    (tmp_path / "nan.cfg").write_text("sdp-tol = nan\n")
    monkeypatch.chdir(tmp_path)
    assert main(["graph", "theta", c5_file, "--json", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and captured.err.startswith("error:")


def test_jobs_is_a_selftest_option_only(c5_file):
    assert cli_module.build_parser().parse_args(
        ["selftest", "paper", "--jobs", "2"]).jobs == 2
    with pytest.raises(SystemExit) as exc:
        main(["graph", "alpha", c5_file, "--jobs", "2"])
    assert exc.value.code == 2


def test_selftest_jobs_keeps_registry_order(monkeypatch):
    # A thread pool stands in for the process pool: the branch that imports
    # the pool on demand runs, and no worker process is started.
    import concurrent.futures

    import zerocap.selftest as selftest

    checks = tuple(
        (name, lambda seed, name=name: selftest.CheckResult(name, True, str(seed)))
        for name in ("first", "second", "third")
    )
    pool_sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers=2)

    monkeypatch.setattr(selftest, "CHECKS", checks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = selftest.run_all(seed=3)
    assert [r.name for r in serial] == ["first", "second", "third"]
    assert selftest.run_all(seed=3, jobs=2) == serial
    # no more workers than checks, however many jobs are asked for
    assert selftest.run_all(seed=3, jobs=10**6) == serial
    assert pool_sizes == [2, 3]


def test_graph_report_honours_the_vertex_cap_of_the_config(tmp_path, capsys):
    # alpha(C9 x C9) = 18 on 81 vertices: over the default cap, under 100
    path = tmp_path / "c9.dimacs"
    path.write_text(cycle_graph(9).to_text())
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("graph-n-cap = 100\n")
    argv = ["graph", "report", str(path), "--cert-dir", str(tmp_path / "certs"), "--json"]
    assert main([*argv, "--config", str(cfg)]) == 0
    rows = {name: value for name, value, _ in json.loads(capsys.readouterr().out)["rows"]}
    assert (rows["haemers-lower"], rows["haemers-upper"]) == (5, 5)
    assert main(argv) == 0
    rows = {name: value for name, value, _ in json.loads(capsys.readouterr().out)["rows"]}
    assert (rows["haemers-lower"], rows["haemers-upper"]) == (4, 5)


def test_nc_haemers_above_the_vertex_cap_keeps_the_subspace_bound(tmp_path, capsys):
    span = _write_span(tmp_path, "c65.json", NcGraph.from_graph(cycle_graph(65)))
    lower, upper, _ = _nc_haemers_json(span, tmp_path, capsys, "--k-max", "1")
    assert [lower, upper["rank"], upper["method"]] == [2, 33, "fitting-lift"]


@pytest.mark.parametrize(
    "line", ["groebner-budget = -1", "groebner-budget = 0", "graph-n-cap = 0",
             "graph-n-cap = -3", "sdp-tol = 0"],
)
def test_config_rejects_a_nonpositive_value(line, ci2_file, tmp_path, capsys):
    # a budget of -1 used to turn the scalar span's proved "infeasible" into "unknown"
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# caps\n" + line + "\n")
    assert main(["nc", "haemers", ci2_file, "--exact-tiny", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    key = line.split("=")[0].strip()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:2: {key} must be positive\n"


def test_config_unknown_key_exits_2(c5_file, tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    for line in ("not-a-cap = 1", "m-cap = 4"):
        cfg.write_text(line + "\n")
        assert main(["graph", "alpha", c5_file, "--config", str(cfg)]) == 2


def test_selftest_single_check(capsys):
    assert main(["selftest", "paper", "--only", "pentagon-sandwich"]) == 0
    out = capsys.readouterr().out
    assert "PASS pentagon-sandwich" in out
    assert "1/1 checks passed" in out


def test_selftest_json_output(capsys):
    # theta is a numpy float, so a verdict built from it must still be a JSON bool
    assert main(["selftest", "paper", "--only", "pentagon-sandwich", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [(r["name"], r["ok"]) for r in payload["results"]] == [("pentagon-sandwich", True)]
