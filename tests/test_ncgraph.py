"""Spans of matrices: canonical form, channels, products, catalog systems."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from zerocap.exactlinalg import ONE, ExactMatrix, GaussianRational, ZERO
from zerocap.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    random_graph,
    strong_product,
)
from zerocap.ncgraph import (
    ClassicalChannel,
    NcGraph,
    QuantumChannel,
    check_unitary,
    confusability_graph,
    conjugate_by_unitary,
    constant_diagonal_system,
    corner_family,
    corner_family_reference,
    diagonal_system,
    direct_sum_nc,
    from_classical_channel,
    from_kraus,
    full_matrix_system,
    matrix_unit,
    scalar_identity_system,
    tensor,
)

i_ = GaussianRational(Fraction(0), Fraction(1))


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


# --- canonical form and membership -------------------------------------


def test_equals_under_generator_shuffle_and_scaling():
    rng = random.Random(0)
    a = ExactMatrix.from_rows([[1, i_], [0, 2]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    s1 = NcGraph.span_from_generators(2, [a, b])
    s2 = NcGraph.span_from_generators(2, [b.scale(3), a + b, a.scale(i_)])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert len({s1, s2}) == 1
    assert s1.dim == 2


def test_contains_and_annihilator_agree():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [
            ExactMatrix.from_rows(
                [[rand_gr(rng) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(rng.randint(1, n * n))
        ]
        s = NcGraph.span_from_generators(n, gens)
        ann = s.annihilator_rows()
        assert len(ann) == n * n - s.dim

        def annihilated(x):
            v = x.vec()
            return all(
                sum((GaussianRational(*row[k]) * v[k] for k in row), start=ZERO).is_zero()
                for row in ann
            )

        # members: random combinations of generators
        comb = ExactMatrix.zeros(n, n)
        for g in gens:
            comb = comb + g.scale(rand_gr(rng))
        assert s.contains(comb) and annihilated(comb)
        # non-member (when the span is proper)
        if not s.is_full():
            probe = ExactMatrix.from_rows(
                [[rand_gr(rng) for _ in range(n)] for _ in range(n)]
            )
            assert s.contains(probe) == annihilated(probe)


def test_operator_system_flags():
    s = scalar_identity_system(3)
    assert s.is_self_adjoint and s.contains_identity and not s.is_full()
    t = NcGraph.span_from_generators(2, [matrix_unit(2, 0, 1)])
    assert not t.is_self_adjoint and not t.contains_identity
    assert full_matrix_system(2).is_full()


# --- graphs to spans -----------------------------------------------------


def test_from_graph_dimensions_and_special_cases():
    assert NcGraph.from_graph(empty_graph(3)) == diagonal_system(3)
    assert NcGraph.from_graph(complete_graph(3)) == full_matrix_system(3)
    s = NcGraph.from_graph(cycle_graph(5))
    assert s.dim == 5 + 2 * 5
    assert s.is_operator_system()


def test_as_graph_roundtrip_and_rejection():
    rng = random.Random(2)
    for _ in range(10):
        g = random_graph(rng.randint(1, 5), rng.random(), rng)
        assert NcGraph.from_graph(g).as_graph() == g
    assert scalar_identity_system(2).as_graph() is None
    assert constant_diagonal_system(2).as_graph() is None


def _as_graph_by_probing(s):
    """The former as_graph: probe matrix units, rebuild S_G, compare spans."""
    n = s.n
    if not all(s.contains(matrix_unit(n, i, i)) for i in range(n)):
        return None
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if s.contains(matrix_unit(n, i, j))
    ]
    g = Graph.from_edges(n, edges)
    return g if s == NcGraph.from_graph(g) else None


def _unit_span(n, coords):
    return NcGraph(n, [{c: (1, 0)} for c in coords])


def _rotation_5():
    """Rotation [[3/5, 4/5], [-4/5, 3/5]] on coordinates (0, 1) and (2, 4)."""
    u = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    for a, b in ((0, 1), (2, 4)):
        u[a][a] = u[b][b] = Fraction(3, 5)
        u[a][b], u[b][a] = Fraction(4, 5), Fraction(-4, 5)
    return ExactMatrix.from_rows([[GaussianRational(x) for x in row] for row in u])


def _as_graph_corpus():
    rng = random.Random(14)
    c5 = NcGraph.from_graph(cycle_graph(5))
    spans = [
        c5,
        direct_sum_nc(c5, c5),
        tensor(c5, c5),
        conjugate_by_unitary(c5, _rotation_5()),
        *(corner_family(Fraction(c)) for c in ("1/2", "1/4", "3/4", "1")),
        *(f(n) for n in (1, 2, 3) for f in (full_matrix_system, scalar_identity_system,
                                            diagonal_system, constant_diagonal_system)),
    ]
    for _ in range(120):
        spans.append(NcGraph.from_graph(random_graph(rng.randint(1, 7), rng.random(), rng)))
    for _ in range(30):
        # a graph span missing one diagonal unit, or holding one unpaired unit
        n = rng.randint(2, 6)
        g = random_graph(n, rng.random(), rng)
        coords = set(NcGraph.from_graph(g).support)
        if rng.random() < 0.5:
            coords.discard(rng.randrange(n) * (n + 1))
        else:
            i, j = rng.sample(range(n), 2)
            coords.add(i * n + j)
            coords.discard(j * n + i)
        spans.append(_unit_span(n, coords))
    for _ in range(30):
        # S_G with two units merged into one two-entry row
        n = rng.randint(2, 6)
        coords = sorted(NcGraph.from_graph(random_graph(n, rng.random(), rng)).support)
        a, b = rng.sample(coords, 2)
        rows = [{c: (1, 0)} for c in coords if c not in (a, b)]
        # the Z[i] numerators of the row (1, x) over their denominator
        merged = ExactMatrix.from_nonzeros(1, n * n, {a: ONE, b: rand_gr(rng) or ONE})
        rows.append(merged.numerators()[0])
        spans.append(NcGraph(n, rows))
    for _ in range(30):
        n = rng.randint(1, 4)
        spans.append(_unit_span(n, rng.sample(range(n * n), rng.randint(0, n * n))))
    return spans


def test_as_graph_agrees_with_probing_and_rebuilding():
    spans = _as_graph_corpus()
    assert len(spans) >= 214
    answers = [s.as_graph() for s in spans]
    assert answers == [_as_graph_by_probing(s) for s in spans]
    # the corpus exercises both answers
    assert 100 < sum(g is not None for g in answers) < len(spans) - 50


def test_as_graph_reads_the_support_without_membership_tests(monkeypatch):
    calls = []
    contains = NcGraph.contains

    def counting(self, a):
        calls.append(a)
        return contains(self, a)

    monkeypatch.setattr(NcGraph, "contains", counting)
    c5 = NcGraph.from_graph(cycle_graph(5))
    assert tensor(c5, c5).as_graph() == strong_product(cycle_graph(5), cycle_graph(5))
    assert corner_family(Fraction(1, 2)).as_graph() is None
    assert calls == []


def test_tensor_matches_strong_product():
    rng = random.Random(3)
    for _ in range(6):
        g = random_graph(rng.randint(1, 3), rng.random(), rng)
        h = random_graph(rng.randint(1, 3), rng.random(), rng)
        assert tensor(NcGraph.from_graph(g), NcGraph.from_graph(h)) == NcGraph.from_graph(
            strong_product(g, h)
        )


def test_direct_sum_matches_disjoint_union():
    rng = random.Random(4)
    for _ in range(6):
        g = random_graph(rng.randint(1, 3), rng.random(), rng)
        h = random_graph(rng.randint(1, 3), rng.random(), rng)
        assert direct_sum_nc(
            NcGraph.from_graph(g), NcGraph.from_graph(h)
        ) == NcGraph.from_graph(disjoint_union(g, h))


def test_direct_sum_has_no_cross_blocks():
    s = direct_sum_nc(full_matrix_system(1), full_matrix_system(1))
    assert s.dim == 2
    assert not s.contains(matrix_unit(2, 0, 1))


def test_conjugation_by_permutation_relabels_graph():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.random(), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        # P e_j = e_{perm[j]}; conjugation by P relabels vertices by perm^-1
        p = ExactMatrix.from_rows(
            [[1 if perm[j] == r else 0 for j in range(n)] for r in range(n)]
        )
        relabeled = NcGraph.from_graph(g)
        conj = conjugate_by_unitary(relabeled, p)
        gg = conj.as_graph()
        assert gg is not None
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in gg.edges}
        assert mapped == set(g.edges)


def test_conjugation_requires_unitary():
    bad = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        conjugate_by_unitary(full_matrix_system(2), bad)
    rot = ExactMatrix.from_rows(
        [
            [GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))],
            [GaussianRational(Fraction(-4, 5)), GaussianRational(Fraction(3, 5))],
        ]
    )
    check_unitary(rot)  # rational rotation is fine
    assert conjugate_by_unitary(scalar_identity_system(2), rot) == scalar_identity_system(2)


# --- channels -------------------------------------------------------------


def test_quantum_channel_validation():
    with pytest.raises(ValueError):
        QuantumChannel(2, 2, (ExactMatrix.from_rows([[1, 0], [0, 0]]),))
    ident = QuantumChannel(2, 2, (ExactMatrix.identity(2),))
    assert from_kraus(ident) == scalar_identity_system(2)


def test_dephasing_channel_span_is_diagonal():
    k1 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    k2 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    chan = QuantumChannel(2, 2, (k1, k2))
    assert from_kraus(chan) == diagonal_system(2)


def test_pythagorean_isometry_channel():
    # V maps C^1 into C^2 isometrically with rational entries
    v = ExactMatrix.from_rows([[GaussianRational(Fraction(3, 5))], [GaussianRational(Fraction(4, 5))]])
    chan = QuantumChannel(1, 2, (v,))
    assert from_kraus(chan) == full_matrix_system(1)


def test_classical_channel_validation_and_confusability():
    half = Fraction(1, 2)
    # cyclic typewriter on 5 symbols: input x lands on x or x+1
    rows = [[half if y == x or y == (x + 1) % 5 else Fraction(0) for x in range(5)] for y in range(5)]
    chan = ClassicalChannel.from_rows(rows)
    assert confusability_graph(chan) == cycle_graph(5)
    assert from_classical_channel(chan) == NcGraph.from_graph(cycle_graph(5))
    with pytest.raises(ValueError):
        ClassicalChannel.from_rows([[half], [half / 2]])
    with pytest.raises(ValueError):
        ClassicalChannel.from_rows([[Fraction(3, 2)], [Fraction(-1, 2)]])


def test_noiseless_channel_confusability_is_empty_graph():
    chan = ClassicalChannel.from_rows(
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    )
    assert confusability_graph(chan) == empty_graph(2)


# --- catalog ---------------------------------------------------------------


def test_constant_diagonal_system():
    s = constant_diagonal_system(2)
    assert s.dim == 3
    assert s.is_operator_system() and not s.is_full()
    assert s.contains(ExactMatrix.from_rows([[5, 7], [i_, 5]]))
    assert not s.contains(ExactMatrix.from_rows([[5, 7], [i_, 6]]))


def test_corner_family_structure():
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        s = corner_family(c)
        assert s.dim == 4 if c != 1 else s.dim <= 4
        assert s.is_operator_system()
        ref = corner_family_reference(c)
        assert ref == 2 + c + 1 / c
        assert ref >= 4
    with pytest.raises(ValueError):
        corner_family(Fraction(0))
    with pytest.raises(ValueError):
        corner_family(Fraction(3, 2))


def test_corner_family_identity_decomposition():
    s = corner_family(Fraction(1, 2))
    b3 = ExactMatrix.from_rows([[0, 0, 0], [0, GaussianRational(Fraction(1, 2)), 0], [0, 0, 1]])
    b4 = ExactMatrix.from_rows([[1, 0, 0], [0, GaussianRational(Fraction(1, 2)), 0], [0, 0, 0]])
    assert s.contains(b3) and s.contains(b4)
    assert b3 + b4 == ExactMatrix.identity(3)


# --- JSON -------------------------------------------------------------------


def test_json_roundtrips():
    s = corner_family(Fraction(1, 4))
    assert NcGraph.from_json_dict(s.to_json_dict()) == s
    k1 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    k2 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    chan = QuantumChannel(2, 2, (k1, k2))
    assert QuantumChannel.from_json_dict(chan.to_json_dict()) == chan
    half = Fraction(1, 2)
    cc = ClassicalChannel.from_rows([[half, half], [half, half]])
    assert ClassicalChannel.from_json_dict(cc.to_json_dict()) == cc


def test_canonical_span_bytes_are_pinned():
    c5 = NcGraph.from_graph(cycle_graph(5))
    # rc5: the pentagon span rotated by [[3/5, 4/5], [-4/5, 3/5]] on the
    # coordinate pairs (0, 1) and (2, 4)
    rotation = ExactMatrix.from_strings([
        ["3/5", "4/5", "0", "0", "0"],
        ["-4/5", "3/5", "0", "0", "0"],
        ["0", "0", "3/5", "0", "4/5"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "-4/5", "0", "3/5"],
    ])
    # a dense rational channel: Kraus operators (3/5) U and (4/5) U P with U
    # a rational orthogonal matrix and P a diagonal of Gaussian-rational phases
    u = ExactMatrix.from_strings(
        [["1/3", "2/3", "2/3"], ["2/3", "1/3", "-2/3"], ["2/3", "-2/3", "1/3"]]
    )
    phases = ExactMatrix.from_strings([["3/5+4/5*i", "0", "0"], ["0", "i", "0"], ["0", "0", "1"]])
    channel = QuantumChannel(
        3, 3, (u.scale(Fraction(3, 5)), (u @ phases).scale(Fraction(4, 5)))
    )
    spans = [
        c5,
        tensor(c5, c5),
        corner_family(Fraction(1, 2)),
        conjugate_by_unitary(c5, rotation),
        from_kraus(channel),
    ]
    assert [s.dim for s in spans] == [15, 225, 4, 15, 3]
    text = json.dumps([s.to_json_dict() for s in spans], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5624f1f8fb832f1cbcef42db06d63f00648e33d1ae8c9e6164e67b5ffd5e5076"
    )
