"""Independent systems: exact verification, graph reduction, numeric search."""

import pytest

from zerocap.exactlinalg import ExactMatrix
from zerocap.graphs import Graph, cycle_graph
from zerocap.independence import (
    IndependentSystem,
    alpha_lower_search,
    verify_independent,
)
from zerocap.ncgraph import (
    NcGraph,
    conjugate_by_unitary,
    diagonal_system,
    full_matrix_system,
    tensor,
)


def test_standard_basis_independent_for_diagonal():
    for n in (2, 3, 4):
        s = diagonal_system(n)
        sys_ = IndependentSystem.standard_basis(n, range(n))
        assert sys_.size == n
        assert verify_independent(s, sys_)


def test_full_matrix_system_rejects_any_pair():
    s = full_matrix_system(2)
    for pair in ([[1], [0]], [[1], [1]]), ([[1], [0]], [[0], [1]]):
        sys_ = IndependentSystem.from_columns(
            [ExactMatrix.from_rows(v) for v in pair]
        )
        assert not verify_independent(s, sys_)


def test_pentagon_nonadjacent_pair():
    s = NcGraph.from_graph(cycle_graph(5))
    sys_ = IndependentSystem.standard_basis(5, [0, 2])
    assert verify_independent(s, sys_)
    touching = IndependentSystem.standard_basis(5, [0, 1])
    assert not verify_independent(s, touching)


def test_scaling_is_immaterial():
    s = diagonal_system(3)
    doubled = IndependentSystem.from_columns(
        [
            ExactMatrix.from_strings([["2"], ["0"], ["0"]]),
            ExactMatrix.from_strings([["0"], ["-1/3"], ["0"]]),
            ExactMatrix.from_strings([["0"], ["0"], ["i"]]),
        ]
    )
    assert verify_independent(s, doubled)


def test_zero_vector_raises():
    s = diagonal_system(2)
    bad = IndependentSystem(
        2,
        (
            ExactMatrix.from_strings([["1"], ["0"]]),
            ExactMatrix.from_strings([["0"], ["0"]]),
        ),
    )
    with pytest.raises(ValueError, match="zero"):
        verify_independent(s, bad)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        verify_independent(
            diagonal_system(3), IndependentSystem.standard_basis(2, [0, 1])
        )
    with pytest.raises(ValueError):
        IndependentSystem(3, (ExactMatrix.from_strings([["1"], ["0"]]),))


# -- search --------------------------------------------------------------


def test_search_diagonal_finds_full_basis():
    out = alpha_lower_search(diagonal_system(3), 3)
    assert out is not None and out.size == 3
    assert verify_independent(diagonal_system(3), out)


def test_search_pentagon_power_finds_code():
    s5 = NcGraph.from_graph(cycle_graph(5))
    s = tensor(s5, s5)
    out = alpha_lower_search(s, 5)
    assert out is not None and out.size == 5
    assert verify_independent(s, out)
    # the witness is matrix-unit aligned: every vector is a standard basis one
    for v in out.vectors:
        nonzero = [i for i in range(25) if not v[i, 0].is_zero()]
        assert len(nonzero) == 1


def test_search_full_matrix_finds_nothing_beyond_one():
    assert alpha_lower_search(full_matrix_system(2), 2, budget=3) is None
    got = alpha_lower_search(full_matrix_system(2), 1)
    assert got is not None and got.size == 1


def test_search_graph_case_absence_is_exact():
    # alpha(C_5) = 2, so a target of 3 is impossible, not merely unfound
    assert alpha_lower_search(NcGraph.from_graph(cycle_graph(5)), 3) is None


def test_search_numeric_path_on_rotated_span():
    u = ExactMatrix.from_strings([["3/5", "4/5"], ["-4/5", "3/5"]])
    s = conjugate_by_unitary(diagonal_system(2), u)
    assert s.as_graph() is None
    out = alpha_lower_search(s, 2)
    assert out is not None and out.size == 2
    assert verify_independent(s, out)


def test_search_validates_target():
    with pytest.raises(ValueError):
        alpha_lower_search(diagonal_system(2), 0)


def test_json_roundtrip():
    sys_ = IndependentSystem.from_columns(
        [
            ExactMatrix.from_strings([["1"], ["1/2+i"]]),
            ExactMatrix.from_strings([["-i"], ["0"]]),
        ]
    )
    d = sys_.to_json_dict()
    assert d["n"] == 2
    assert all(isinstance(row, list) and len(row) == 2 for row in d["vectors"])
    assert IndependentSystem.from_json_dict(d) == sys_
