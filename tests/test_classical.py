"""Fitting matrices, orthogonal rank, bounds sandwich."""

import random

import numpy as np
import pytest

from zerocap.classical import (
    FittingMatrix,
    bounds_report,
    circulant_difference_set,
    circulant_fitting_search,
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


# -- circulant sweep -----------------------------------------------------


def test_circulant_detection():
    assert circulant_difference_set(cycle_graph(5)) == frozenset({1, 4})
    assert circulant_difference_set(cycle_graph(6)) == frozenset({1, 5})
    assert circulant_difference_set(complete_graph(4)) == frozenset({1, 2, 3})
    assert circulant_difference_set(path_graph(3)) is None


def test_circulant_sweep_pentagon_bottoms_out_at_four():
    # independent float oracle: every rational-x circulant with the
    # pentagon pattern keeps at least four nonzero singular values, since
    # only the all-ones eigenvector can be killed at rational x
    for p in range(-12, 13):
        for q in (1, 2, 3, 4, 5):
            x = p / q
            first = np.array([1.0, x, 0.0, 0.0, x])
            c = np.stack([np.roll(first, i) for i in range(5)])
            s = np.linalg.svd(c, compute_uv=False)
            assert np.sum(s > 1e-9) >= 4
    fm = circulant_fitting_search(cycle_graph(5))
    assert fm is not None
    assert verify_fitting(fm) == 4


def test_circulant_sweep_clique_finds_rank_one():
    fm = circulant_fitting_search(complete_graph(3))
    assert fm is not None
    assert verify_fitting(fm) == 1


def test_circulant_sweep_skips_non_circulant():
    assert circulant_fitting_search(path_graph(3)) is None


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
