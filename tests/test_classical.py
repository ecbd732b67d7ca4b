"""Fitting matrices, orthogonal rank, bounds sandwich."""

import hashlib
import json
import random

import pytest

from zerocap.classical import (
    FittingMatrix,
    bounds_report,
    gram_fitting_matrix,
    orthogonal_rank_verify,
    pentagon_representation,
    random_fitting_matrix,
    unit_diagonal_form,
    verify_fitting,
)
from zerocap.exactlinalg import ExactMatrix
from zerocap.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    greedy_clique_cover,
    independence_number,
    path_graph,
    random_graph,
)


def ones_matrix(n):
    return ExactMatrix.from_strings([["1"] * n for _ in range(n)])


# -- verify_fitting ------------------------------------------------------


def test_clique_all_ones_rank_one():
    for n in (2, 3, 4):
        fm = FittingMatrix(complete_graph(n), "unit-diagonal", ones_matrix(n))
        assert verify_fitting(fm) == 1


def test_empty_graph_identity_rank_n():
    for n in (1, 3, 5):
        fm = FittingMatrix(empty_graph(n), "unit-diagonal", ExactMatrix.identity(n))
        assert verify_fitting(fm) == n


def test_path3_rank_two_fitting():
    # det = 1*(1+1) - 2*(1-0) = 0 and the top-left 2x2 block is regular
    b = ExactMatrix.from_strings(
        [["1", "2", "0"], ["1", "1", "1"], ["0", "-1", "1"]]
    )
    fm = FittingMatrix(path_graph(3), "unit-diagonal", b)
    assert verify_fitting(fm) == 2


def test_verify_fitting_rejects_bad_diagonal():
    b = ExactMatrix.from_strings([["2", "1"], ["1", "1"]])
    fm = FittingMatrix(complete_graph(2), "unit-diagonal", b)
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        verify_fitting(fm)
    z = ExactMatrix.from_strings([["0", "1"], ["1", "1"]])
    with pytest.raises(ValueError, match="zero"):
        verify_fitting(FittingMatrix(complete_graph(2), "nonzero-diagonal", z))


def test_verify_fitting_rejects_nonedge_entry():
    b = ExactMatrix.from_strings(
        [["1", "1", "1"], ["1", "1", "1"], ["0", "1", "1"]]
    )
    fm = FittingMatrix(path_graph(3), "unit-diagonal", b)
    with pytest.raises(ValueError, match=r"\(0,2\)"):
        verify_fitting(fm)


def test_fitting_matrix_validation():
    with pytest.raises(ValueError, match="variant"):
        FittingMatrix(complete_graph(2), "psd", ones_matrix(2))
    with pytest.raises(ValueError, match="shape"):
        FittingMatrix(complete_graph(3), "unit-diagonal", ones_matrix(2))


def test_fitting_json_roundtrip():
    fm = random_fitting_matrix(cycle_graph(5), random.Random(3), "nonzero-diagonal")
    back = FittingMatrix.from_json_dict(fm.to_json_dict())
    assert back == fm
    assert verify_fitting(back) == verify_fitting(fm)


def test_random_fitting_rank_at_least_alpha():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        fm = random_fitting_matrix(g, rng, rng.choice(["unit-diagonal", "nonzero-diagonal"]))
        assert verify_fitting(fm) >= independence_number(g)[0]


# -- orthogonal rank -----------------------------------------------------


def test_orthogonal_rank_clique_and_empty():
    one = ExactMatrix.from_strings([["1"]])
    assert orthogonal_rank_verify(complete_graph(4), [one] * 4) == 1
    basis = [
        ExactMatrix.from_strings([["1" if t == i else "0"] for t in range(3)])
        for i in range(3)
    ]
    assert orthogonal_rank_verify(empty_graph(3), basis) == 3


def test_pentagon_representation_dimension_three():
    assert orthogonal_rank_verify(cycle_graph(5), pentagon_representation()) == 3


def test_orthogonal_rank_violations():
    g = empty_graph(2)
    v1 = ExactMatrix.from_strings([["1"], ["0"]])
    v2 = ExactMatrix.from_strings([["1"], ["1"]])
    with pytest.raises(ValueError, match="orthogonal"):
        orthogonal_rank_verify(g, [v1, v2])
    zero = ExactMatrix.from_strings([["0"], ["0"]])
    with pytest.raises(ValueError, match="zero"):
        orthogonal_rank_verify(g, [v1, zero])
    with pytest.raises(ValueError, match="vectors"):
        orthogonal_rank_verify(g, [v1])


def test_orthogonal_rank_verify_runs_no_elimination(eliminations):
    assert orthogonal_rank_verify(cycle_graph(5), pentagon_representation()) == 3
    assert eliminations == []


def test_gram_fitting_matrix_pentagon():
    fm = gram_fitting_matrix(cycle_graph(5), pentagon_representation())
    assert fm.variant == "nonzero-diagonal"
    assert verify_fitting(fm) == 3
    unit = unit_diagonal_form(fm)
    assert unit.variant == "unit-diagonal"
    assert verify_fitting(unit) == 3


def test_unit_diagonal_form_preserves_rank():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng.randint(2, 6), rng.random(), rng)
        fm = random_fitting_matrix(g, rng, "nonzero-diagonal")
        unit = unit_diagonal_form(fm)
        assert verify_fitting(unit) == verify_fitting(fm)


# -- bounds sandwich -----------------------------------------------------


def test_bounds_report_pentagon():
    rep = bounds_report(cycle_graph(5))
    assert rep.alpha == 2
    assert rep.theta == pytest.approx(2.2360680, abs=1e-4)
    assert rep.haemers_lower == 3
    assert rep.haemers_upper == 3
    assert rep.xi_upper == 3
    assert rep.consistent
    assert verify_fitting(rep.fitting) == 3


def test_bounds_report_complete():
    rep = bounds_report(complete_graph(4))
    assert (rep.alpha, rep.haemers_lower, rep.haemers_upper, rep.xi_upper) == (1, 1, 1, 1)
    assert rep.theta == pytest.approx(1.0, abs=1e-5)
    assert rep.consistent


def test_bounds_report_empty():
    rep = bounds_report(empty_graph(3))
    assert (rep.alpha, rep.haemers_lower, rep.haemers_upper, rep.xi_upper) == (3, 3, 3, 3)
    assert rep.theta == pytest.approx(3.0, abs=1e-5)
    assert rep.consistent


def test_bounds_report_random_consistency():
    rng = random.Random(31)
    for _ in range(8):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        rep = bounds_report(g)
        assert rep.consistent
        assert rep.alpha <= rep.haemers_lower <= rep.haemers_upper <= rep.xi_upper


def test_bounds_report_json():
    d = bounds_report(cycle_graph(5)).to_json_dict()
    assert d["alpha"] == 2 and d["haemers_upper"] == 3
    assert FittingMatrix.from_json_dict(d["fitting"])


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "g, fitting, representation",
    [
        pytest.param(
            cycle_graph(5),
            "58199a496b08bc55b650958419408918d2f3f61a57c508664dca038d5bb1ab2c",
            "934cfcf328abfe125fcb7955fa3d436f0cee54f4111c5ebb56b86383ddd6f179",
            id="c5",
        ),
        pytest.param(
            complete_graph(4),
            "9ece92180a3649ac7536959143eb2adf70f7ed7aa9f00622c90e0cd79302a3c0",
            "4d02f6f03cda58455b2e0c35697cec1d90ac300aee1bc91679bc398b84d8126a",
            id="k4",
        ),
        pytest.param(
            empty_graph(3),
            "dbfeeb94fd3570aadf363177b410cd43569364354a3e8f91a518a90fbcb1dbcd",
            "c24ecf7d64263f883c5052ed2a56466190eee43399095d818cd0f63eeca7d972",
            id="empty3",
        ),
        pytest.param(
            cycle_graph(7),
            "0466b0be53e552986e946167e396a6881aac7696b4c011959d3051ce6a073d84",
            "7d8e9cf8d697c2b8172bec9078cb926cda40ea555f6292ca9f18faadf388b8fc",
            id="c7",
        ),
    ],
)
def test_bounds_report_witnesses_are_pinned(g, fitting, representation):
    d = bounds_report(g).to_json_dict()
    assert _digest(d["fitting"]) == fitting
    assert _digest(d["representation"]) == representation


# -- clique-cover construction --------------------------------------------


def test_bounds_report_odd_cycles_reach_the_clique_cover():
    for n, cover in ((7, 4), (9, 5), (11, 6)):
        rep = bounds_report(cycle_graph(n))
        assert (rep.haemers_upper, rep.xi_upper) == (cover, cover)
        assert verify_fitting(rep.fitting) == cover
        assert rep.consistent


def test_bounds_report_upper_bounds_are_the_greedy_clique_cover():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng.randint(5, 12), rng.choice((0.3, 0.5, 0.7)), rng)
        cliques = greedy_clique_cover((1 << g.n) - 1, g.adjacency_masks())
        rep = bounds_report(g)
        assert rep.haemers_upper == rep.xi_upper == len(cliques)
        assert rep.consistent
