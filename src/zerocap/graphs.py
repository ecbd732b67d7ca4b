"""Finite simple graphs: products, independence numbers, Shannon lower bounds.

Vertices are 0-based integers internally; the text file format is 1-based.
The independence number is computed exactly by branch and bound with a
greedy clique cover bound, which is comfortably fast for the strong-product
powers this package works with (n up to a few dozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactlinalg import require_int, require_list

DEFAULT_VERTEX_CAP = 64


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count n = {n} is negative")
        es = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            es.add((min(i, j), max(i, j)))
        return Graph(n, frozenset(es))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- constructions -------------------------------------------------

    def complement(self) -> "Graph":
        es = {
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (i, j) not in self.edges
        }
        return Graph(self.n, frozenset(es))

    # -- text format -----------------------------------------------------
    # "p <n> <m>" header, then one "e <i> <j>" line per edge, 1-based,
    # written in sorted order.  Lines starting with "c" are comments.

    def to_text(self) -> str:
        lines = [f"p {self.n} {len(self.edges)}"]
        lines.extend(f"e {i + 1} {j + 1}" for i, j in self.sorted_edges())
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Graph":
        n = None
        edges: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                body = [p for p in parts[1:] if p.isdigit() or p.lstrip("-").isdigit()]
                if n is not None or len(body) < 2:
                    raise ValueError(f"bad p line at {lineno}: {raw!r}")
                n = int(body[0])
            elif parts[0] == "e":
                if n is None:
                    raise ValueError("edge line before p line")
                if len(parts) != 3:
                    raise ValueError(f"bad e line at {lineno}: {raw!r}")
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                edges.append((i, j))
            else:
                raise ValueError(f"unrecognized line {lineno}: {raw!r}")
        if n is None:
            raise ValueError("missing p line")
        return Graph.from_edges(n, edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json_dict(d: dict) -> "Graph":
        if not isinstance(d, dict):
            raise ValueError(f"a graph must be a JSON object, got {d!r}")
        n = require_int(d, "n")
        edges = require_list(d, "edges")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(v, int) and not isinstance(v, bool) for v in e)):
                raise ValueError(f"each edge must be a pair of integers, got {e!r}")
        return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    es = list(g.edges) + [(i + g.n, j + g.n) for i, j in h.edges]
    return Graph.from_edges(g.n + h.n, es)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong graph product; vertex (i, k) gets index i * h.n + k.

    (i,k) ~ (j,l) iff (i=j or ij is an edge of g) and (k=l or kl is an
    edge of h), excluding equality of both.  The index convention matches
    row-major Kronecker products, so matrix-level tensor constructions
    line up with this product without any reshuffling.
    """
    n = g.n * h.n
    edges = []
    for i in range(g.n):
        for j in range(g.n):
            gi = i == j or g.has_edge(i, j)
            if not gi:
                continue
            for k in range(h.n):
                for l in range(h.n):
                    if i == j and k == l:
                        continue
                    if k == l or h.has_edge(k, l):
                        a, b = i * h.n + k, j * h.n + l
                        if a < b:
                            edges.append((a, b))
    return Graph.from_edges(n, edges)


def strong_power(g: Graph, k: int) -> Graph:
    if k < 1:
        raise ValueError("power must be >= 1")
    out = g
    for _ in range(k - 1):
        out = strong_product(out, g)
    return out


def _greedy_clique_cover(candidates: int, adj: list[int]) -> int:
    """Size of a greedy clique cover of the induced subgraph on the mask.

    Any clique cover is at least as large as the independence number of
    the induced subgraph, so the count is a valid pruning bound.
    """
    remaining = candidates
    count = 0
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        clique_adj = adj[v] & remaining
        remaining &= ~(1 << v)
        while clique_adj:
            w = (clique_adj & -clique_adj).bit_length() - 1
            remaining &= ~(1 << w)
            clique_adj &= adj[w] & ~(1 << w)
        count += 1
    return count


def independence_number(
    g: Graph, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[int, list[int]]:
    """Exact maximum independent set size, with one witness set.

    Branch and bound: vertices are visited in ascending-degree order and
    a greedy clique cover of the remaining candidates prunes branches.
    Deterministic.  Raises ValueError when g.n exceeds vertex_cap.
    """
    if g.n > vertex_cap:
        raise ValueError(f"graph has {g.n} > {vertex_cap} vertices; raise the cap")
    if g.n == 0:
        return 0, []
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    pos = {v: p for p, v in enumerate(order)}
    adj = [0] * g.n
    for i, j in g.edges:
        adj[pos[i]] |= 1 << pos[j]
        adj[pos[j]] |= 1 << pos[i]

    best_size = 0
    best_set = 0

    def expand(candidates: int, current: int, size: int) -> None:
        nonlocal best_size, best_set
        if candidates == 0:
            if size > best_size:
                best_size, best_set = size, current
            return
        if size + bin(candidates).count("1") <= best_size:
            return
        if size + _greedy_clique_cover(candidates, adj) <= best_size:
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        expand(candidates & ~(adj[v] | bit), current | bit, size + 1)
        expand(candidates & ~bit, current, size)

    expand((1 << g.n) - 1, 0, 0)
    witness = sorted(order[p] for p in range(g.n) if best_set >> p & 1)
    return best_size, witness


def shannon_lower(g: Graph, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> float:
    """alpha(g^boxtimes k) ** (1/k), a lower bound on the Shannon capacity."""
    alpha_k, _ = independence_number(strong_power(g, k), vertex_cap)
    return alpha_k ** (1.0 / k)


def random_graph(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi G(n, p) from a random.Random instance."""
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
