"""Independent systems: exact verification, graph reduction, numeric search."""

import random
from fractions import Fraction

import pytest

from zerocap.exactlinalg import ExactMatrix, GaussianRational, ONE

from zerocap.graphs import cycle_graph, independence_number, random_graph
from zerocap.independence import (
    IndependentSystem,
    alpha_lower_search,
    axis_witness,
    verify_independent,
)
from zerocap.ncgraph import (
    NcGraph,
    conjugate_by_unitary,
    corner_family,
    diagonal_system,
    full_matrix_system,
    tensor,
)
import zerocap.search as search_module


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


def test_malformed_witness_json_is_an_input_error():
    with pytest.raises(ValueError, match="'vectors' must be a list"):
        IndependentSystem.from_json_dict({"n": 2, "vectors": 5})
    # a bare scalar, or a string read character by character, is no vector
    for vectors in ([5], ["10", ["0", "1"]]):
        with pytest.raises(ValueError, match="each vector must be a list of 2 scalar strings"):
            IndependentSystem.from_json_dict({"n": 2, "vectors": vectors})


def verify_by_products(s, sys_):
    """The product loop verify_independent used to run: every basis matrix
    times every vector, then every bra against every other vector's image."""
    for a in s.basis:
        images = [a @ v for v in sys_.vectors]
        for i, vi in enumerate(sys_.vectors):
            bra = vi.H
            for j, avj in enumerate(images):
                if i != j and not (bra @ avj)[0, 0].is_zero():
                    return False
    return True


def _complex_rotation(rng, n):
    """A product of rotations [[3/5, 4i/5], [4i/5, 3/5]] on random coordinate
    pairs: an exact unitary that makes graph spans dense."""
    u = ExactMatrix.identity(n)
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        r = {j * n + j: ONE for j in range(n) if j not in (a, b)}
        r[a * n + a] = r[b * n + b] = GaussianRational(Fraction(3, 5))
        r[a * n + b] = r[b * n + a] = GaussianRational(Fraction(0), Fraction(4, 5))
        u = u @ ExactMatrix.from_nonzeros(n, n, r)
    return u


def _random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    ) or ONE


def test_verify_independent_matches_the_product_loop():
    # graph spans, the same spans conjugated by a dense unitary U (where the
    # vectors U^H e_i of an independent set stay independent) and spans of
    # random generators, against axis, mapped, scaled and random systems
    rng = random.Random(1520)
    answers = {"graph": [], "conjugated": [], "random": []}
    for _ in range(240):
        n = rng.randint(2, 4)
        g = random_graph(n, rng.random(), rng)
        _size, independent = independence_number(g)
        picks = list(independent) if rng.random() < 0.5 else rng.sample(
            range(n), rng.randint(2, n))
        kind = rng.choice(list(answers))
        if kind == "graph":
            s = NcGraph.from_graph(g)
            vecs = IndependentSystem.standard_basis(n, picks).vectors
        elif kind == "conjugated":
            u = _complex_rotation(rng, n)
            s = conjugate_by_unitary(NcGraph.from_graph(g), u)
            uh = u.H
            vecs = [uh.submatrix(range(n), [i]) for i in picks]
        else:
            s = NcGraph.span_from_generators(n, [
                ExactMatrix.from_nonzeros(n, n, {
                    rng.randrange(n * n): _random_scalar(rng) for _ in range(rng.randint(1, 3))
                })
                for _ in range(rng.randint(1, n))
            ])
            vecs = [
                ExactMatrix.from_nonzeros(n, 1, {
                    rng.randrange(n): _random_scalar(rng) for _ in range(rng.randint(1, 2))
                })
                for _ in picks
            ]
        sys_ = IndependentSystem(n, tuple(v.scale(_random_scalar(rng)) for v in vecs))
        got = verify_independent(s, sys_)
        assert got == verify_by_products(s, sys_)
        answers[kind].append(got)
    for kind, got in answers.items():
        assert 15 < sum(got) < len(got) - 15, kind  # both outcomes on every kind


# -- axis witness ---------------------------------------------------------


def test_axis_witness_on_a_graph_span_is_the_independence_number():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        size, vertices = independence_number(g)
        assert axis_witness(NcGraph.from_graph(g)) == IndependentSystem.standard_basis(
            g.n, vertices
        )


def test_axis_witness_reads_conflicts_off_the_support():
    # corner_family(1) is nonzero off the diagonal only at (0, 2) and (2, 0):
    # axes 0 and 2 conflict, and axis 1 joins either of them
    assert axis_witness(corner_family(1)) == IndependentSystem.standard_basis(3, [0, 1])
    assert axis_witness(full_matrix_system(2)).size == 1
    with pytest.raises(ValueError, match="raise the cap"):
        axis_witness(diagonal_system(65))


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


def _rotated(s):
    u = ExactMatrix.from_strings([["3/5", "4/5", "0"], ["-4/5", "3/5", "0"], ["0", "0", "1"]])
    return conjugate_by_unitary(s, u)


def _noncommutative_span():
    x = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    y = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert x @ y != y @ x
    s = _rotated(NcGraph.span_from_generators(3, [ExactMatrix.identity(3), x, y]))
    assert s.dim == 3
    return s


@pytest.mark.parametrize("make_span, target", [
    (lambda: corner_family(Fraction(1, 2)), 3),  # dim 4 > n
    (_noncommutative_span, 3),  # dim 3 = n, but not commutative
    (lambda: _rotated(diagonal_system(3)), 4),  # more than n vectors
], ids=["dimension-above-n", "noncommutative", "target-above-n"])
def test_search_is_skipped_where_the_identity_rules_a_system_out(make_span, target, monkeypatch):
    # with I in S independent vectors are orthogonal, and n of them form a
    # unitary that diagonalises every element of S
    def no_float_search(*args):
        raise AssertionError("the float search ran")

    monkeypatch.setattr(search_module, "find_independent_system", no_float_search)
    s = make_span()
    assert s.as_graph() is None and s.contains_identity
    assert alpha_lower_search(s, target) is None


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
