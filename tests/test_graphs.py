"""Graph construction, products, and exact independence numbers.

The brute-force oracle enumerates independent sets by recursive extension,
touching only independent subsets, so it stays fast even on the 25-vertex
pentagon square while remaining implementation-independent.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from zerocap.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    greedy_clique_cover,
    independence_number,
    path_graph,
    random_graph,
    shannon_lower,
    strong_power,
    strong_product,
)


def alpha_bruteforce(g: Graph) -> int:
    adj = g.adjacency_masks()
    best = 0

    def extend(start: int, chosen_adj: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for v in range(start, g.n):
            if not (chosen_adj >> v) & 1:
                extend(v + 1, chosen_adj | adj[v], size + 1)

    extend(0, 0, 0)
    return best


# --- oracle freezes ----------------------------------------------------


def test_alpha_c5_and_pentagon_square():
    c5 = cycle_graph(5)
    assert alpha_bruteforce(c5) == 2
    assert independence_number(c5)[0] == 2
    sq = strong_product(c5, c5)
    t0 = time.monotonic()
    assert alpha_bruteforce(sq) == 5
    assert time.monotonic() - t0 < 1.0
    size, witness = independence_number(sq)
    assert size == 5
    # witness really is independent
    for a, b in itertools.combinations(witness, 2):
        assert not sq.has_edge(a, b)


def test_pentagon_code_is_independent():
    c5 = cycle_graph(5)
    sq = strong_product(c5, c5)
    code = [i * 5 + (2 * i) % 5 for i in range(5)]
    for a, b in itertools.combinations(code, 2):
        assert not sq.has_edge(a, b)


def test_strong_product_edge_count_c5():
    sq = strong_product(cycle_graph(5), cycle_graph(5))
    assert sq.n == 25
    assert len(sq.edges) == 100


def test_shannon_lower_c5():
    assert abs(shannon_lower(cycle_graph(5), 2) - 5**0.5) < 1e-9
    assert shannon_lower(complete_graph(3), 2) == 1.0


# --- constructions -----------------------------------------------------


def test_complement_of_c5_is_c5_relabelled():
    c5 = cycle_graph(5)
    cc = c5.complement()
    relabel = {i: (2 * i) % 5 for i in range(5)}
    mapped = Graph.from_edges(5, [(relabel[i], relabel[j]) for i, j in cc.edges])
    assert mapped.edges == c5.edges


def test_complete_empty_basics():
    assert independence_number(complete_graph(6))[0] == 1
    assert independence_number(empty_graph(6))[0] == 6
    assert complete_graph(4).complement() == empty_graph(4)


def test_loops_and_range_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])


def test_disjoint_union_alpha_additive():
    rng = random.Random(0)
    for _ in range(10):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        h = random_graph(rng.randint(1, 6), rng.random(), rng)
        assert (
            independence_number(disjoint_union(g, h))[0]
            == independence_number(g)[0] + independence_number(h)[0]
        )


def test_strong_product_alpha_supermultiplicative():
    rng = random.Random(1)
    for _ in range(10):
        g = random_graph(rng.randint(2, 5), rng.random(), rng)
        h = random_graph(rng.randint(2, 5), rng.random(), rng)
        assert (
            independence_number(strong_product(g, h))[0]
            >= independence_number(g)[0] * independence_number(h)[0]
        )


def test_strong_power_matches_iterated_product():
    g = path_graph(3)
    assert strong_power(g, 2) == strong_product(g, g)


# --- independence number vs brute force --------------------------------


def test_alpha_all_graphs_up_to_5_vertices():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(
                n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            )
            assert independence_number(g)[0] == alpha_bruteforce(g)


def test_alpha_random_graphs_up_to_12():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        size, witness = independence_number(g)
        assert size == alpha_bruteforce(g)
        for a, b in itertools.combinations(witness, 2):
            assert not g.has_edge(a, b)


def test_alpha_results_are_pinned():
    # size and witness on 100 seeded graphs: the pruning bound must not move them
    rng = random.Random(5)
    out = []
    for _ in range(100):
        g = random_graph(rng.randint(1, 16), rng.random(), rng)
        out.append(list(independence_number(g)))
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "b89ee80bad924121ef4298d1dd4e13b6e707856e983f15c31b4b40621e9ba7d4"
    )


@pytest.mark.parametrize("n, cap, size, witness", [
    (5, 64, 5, [0, 7, 14, 16, 23]),
    (7, 64, 10, [0, 2, 11, 14, 16, 25, 29, 34, 38, 47]),
    (9, 81, 18, [0, 2, 13, 15, 19, 26, 30, 32, 36, 43, 47, 49, 60, 62, 64, 66, 77, 79]),
])
def test_alpha_of_odd_cycle_squares_is_pinned(n, cap, size, witness):
    # the witnesses of the search without Russian-doll bounds
    g = strong_product(cycle_graph(n), cycle_graph(n))
    assert independence_number(g, vertex_cap=cap) == (size, witness)


def test_alpha_of_the_c9_square_is_18_by_an_independent_argument():
    c9 = cycle_graph(9)
    sq = strong_product(c9, c9)
    # at least 18: rows i hold columns 2i and 2i + 4, every pair at distance >= 2
    code = [i * 9 + (2 * i + shift) % 9 for i in range(9) for shift in (0, 4)]
    assert len(set(code)) == 18
    assert not any(sq.has_edge(a, b) for a, b in itertools.combinations(code, 2))
    # at most 18: an independent set meets the rows {i, i + 1} in at most
    # alpha of their induced graph; each row lies in two such pairs
    pair_bound = 0
    for i in range(9):
        rows = [r * 9 + c for r in (i, (i + 1) % 9) for c in range(9)]
        induced = Graph.from_edges(18, [
            (a, b) for a, b in itertools.combinations(range(18), 2)
            if sq.has_edge(rows[a], rows[b])
        ])
        pair_bound += alpha_bruteforce(induced)
    assert pair_bound // 2 == 18
    size, witness = independence_number(sq, vertex_cap=81)
    assert size == len(witness) == 18
    assert not any(sq.has_edge(a, b) for a, b in itertools.combinations(witness, 2))


def test_greedy_clique_cover_partitions_the_candidates_into_cliques():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng.randint(1, 14), rng.random(), rng)
        candidates = rng.getrandbits(g.n)
        covered = 0
        for mask in greedy_clique_cover(candidates, g.adjacency_masks()):
            assert mask and not mask & covered
            covered |= mask
            members = [v for v in range(g.n) if mask >> v & 1]
            assert all(g.has_edge(a, b) for a, b in itertools.combinations(members, 2))
        assert covered == candidates


def test_alpha_vertex_cap():
    with pytest.raises(ValueError):
        independence_number(empty_graph(70))
    assert independence_number(empty_graph(70), vertex_cap=70)[0] == 70


def test_alpha_deterministic():
    rng = random.Random(9)
    g = random_graph(10, 0.4, rng)
    assert independence_number(g) == independence_number(g)


# --- text format --------------------------------------------------------


def test_text_roundtrip_and_canonical_order():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    text = g.to_text()
    assert text.splitlines()[0] == "p 4 3"
    assert text.splitlines()[1:] == ["e 1 2", "e 2 4", "e 3 4"]
    assert Graph.from_text(text) == g


def test_text_parse_comments_and_errors():
    assert Graph.from_text("c hi\np 2 1\ne 1 2\n") == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        Graph.from_text("e 1 2\n")
    with pytest.raises(ValueError):
        Graph.from_text("p 2 0\nq 1\n")
    with pytest.raises(ValueError):
        Graph.from_text("")
