"""Classical Haemers bound and orthogonal rank for graphs.

The central object is a fitting matrix for a graph G: an n x n matrix that
vanishes on non-edges and has unit (or merely nonzero) diagonal.  The
minimum rank over such matrices upper-bounds the Shannon capacity, and any
single verified fitting matrix is a standalone upper-bound certificate.
This module verifies such certificates exactly, constructs one for every
graph from a greedy clique cover, and assembles the classical bounds
sandwich

    independence number <= capacity <= min-rank fitting matrix,

together with the orthogonal-rank variant where the fitting matrix is
required positive semidefinite (realized by a Gram matrix of vectors
assigned to vertices, orthogonal across non-edges).  Mapping each vertex to
the standard basis vector of its clique in a clique cover is such a
representation, so both upper bounds are at most the clique cover number
(Haemers 1979); the pentagon keeps its own three-dimensional
representation, which the greedy cover ties.

The two diagonal conventions decide the same minimum: dividing each row of
a nonzero-diagonal fitting matrix by its diagonal entry produces a
unit-diagonal one with the same rank and zero pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exactlinalg import ExactMatrix, ONE, hstack
from .graphs import (
    DEFAULT_VERTEX_CAP,
    Graph,
    cycle_graph,
    greedy_clique_cover,
    independence_number,
    strong_product,
)
from .theta import DEFAULT_TOL, lovasz_theta

VARIANTS = ("unit-diagonal", "nonzero-diagonal")


@dataclass(frozen=True)
class FittingMatrix:
    """A matrix fitting a graph's zero pattern; its rank bounds 𝓗(G)."""

    graph: Graph
    variant: str
    b: ExactMatrix

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.b.shape != (self.graph.n, self.graph.n):
            raise ValueError(
                f"matrix shape {self.b.shape} does not match {self.graph.n} vertices"
            )

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "variant": self.variant,
            "B": self.b.to_strings(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "FittingMatrix":
        return FittingMatrix(
            Graph.from_json_dict(d["graph"]),
            d["variant"],
            ExactMatrix.from_strings(d["B"]),
        )


def verify_fitting(fm: FittingMatrix) -> int:
    """Exactly check the pattern constraints and return rank(B).

    The returned rank is an upper-bound certificate for 𝓗(G).  Raises
    ValueError naming the first violated entry.
    """
    g, b = fm.graph, fm.b
    for i in range(g.n):
        d = b[i, i]
        if fm.variant == "unit-diagonal":
            if d != ONE:
                raise ValueError(f"diagonal entry ({i},{i}) = {d} is not 1")
        elif d.is_zero():
            raise ValueError(f"diagonal entry ({i},{i}) is zero")
    for i in range(g.n):
        for j in range(g.n):
            if i != j and not g.has_edge(i, j) and not b[i, j].is_zero():
                raise ValueError(
                    f"entry ({i},{j}) = {b[i, j]} must vanish on the non-edge"
                )
    return b.rank()


def _gram_fitting(g: Graph, vectors: Sequence[ExactMatrix]) -> tuple[int, FittingMatrix]:
    """Verify an orthogonal representation; return its Gram rank and fitting matrix.

    Vectors at non-adjacent vertices must be exactly orthogonal.  Norms
    are nonzero, so the Gram matrix V^dag V is a nonzero-diagonal fitting
    matrix; it is positive semidefinite with rank at most the common
    dimension k for any k x n matrix V, which is what makes the dimension
    an upper-bound certificate for the positive-semidefinite variant of
    the fitting-matrix program.
    """
    if len(vectors) != g.n:
        raise ValueError(f"need {g.n} vectors, got {len(vectors)}")
    k = vectors[0].rows
    for idx, v in enumerate(vectors):
        if v.shape != (k, 1):
            raise ValueError(f"vector {idx} has shape {v.shape}, expected ({k}, 1)")
        if v.is_zero():
            raise ValueError(f"vector {idx} is zero")
    columns = hstack(vectors)
    gram = columns.H @ columns
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.has_edge(i, j) and not gram[i, j].is_zero():
                raise ValueError(
                    f"vectors {i} and {j} are not orthogonal across the non-edge"
                )
    return gram.rank(), FittingMatrix(g, "nonzero-diagonal", gram)


def orthogonal_rank_verify(g: Graph, vectors: Sequence[ExactMatrix]) -> int:
    """Verify a vector-per-vertex orthogonal representation; return its dimension.

    The vectors must be nonzero, share one shape and be exactly orthogonal
    at non-adjacent vertices (the checks of _gram_fitting); their Gram
    matrix is then positive semidefinite of rank at most that dimension.
    """
    _gram_fitting(g, vectors)
    return vectors[0].rows


def gram_fitting_matrix(g: Graph, vectors: Sequence[ExactMatrix]) -> FittingMatrix:
    """The Gram matrix of a verified orthogonal representation, as a fitting matrix.

    Non-edges produce exact zeros, so the result is a nonzero-diagonal
    fitting matrix of rank at most the representation dimension.
    """
    return _gram_fitting(g, vectors)[1]


def unit_diagonal_form(fm: FittingMatrix) -> FittingMatrix:
    """Row-scale a nonzero-diagonal fitting matrix to unit diagonal.

    Left multiplication by an invertible diagonal matrix preserves both the
    rank and the zero pattern, which is the whole reason the two variants
    have the same minimum.
    """
    n = fm.graph.n
    rows = [[fm.b[i, j] / fm.b[i, i] for j in range(n)] for i in range(n)]
    return FittingMatrix(fm.graph, "unit-diagonal", ExactMatrix.from_rows(rows))


def pentagon_representation() -> list[ExactMatrix]:
    """An exact three-dimensional orthogonal representation of the 5-cycle.

    Adjacent vertices may share a vector; all non-adjacent pairs are
    orthogonal: vertices 3 and 4 share e3, and vertex 1, adjacent to 0
    and 2, gets e1 + e2.  Three is also the size of the pentagon's
    smallest clique cover.
    """
    e1 = ExactMatrix.from_strings([["1"], ["0"], ["0"]])
    e12 = ExactMatrix.from_strings([["1"], ["1"], ["0"]])
    e2 = ExactMatrix.from_strings([["0"], ["1"], ["0"]])
    e3 = ExactMatrix.from_strings([["0"], ["0"], ["1"]])
    return [e1, e12, e2, e3, e3]


# -- bounds sandwich -------------------------------------------------------


def _ceil_isqrt(a: int) -> int:
    r = math.isqrt(a)
    return r if r * r == a else r + 1


def random_fitting_matrix(g: Graph, rng, variant: str = "unit-diagonal") -> FittingMatrix:
    """A random verified fitting matrix (generic rank; useful as test stock)."""
    n = g.n
    entries = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                entries[i * n + j] = (1 if variant == "unit-diagonal" else rng.randint(1, 5), 0)
            elif g.has_edge(i, j):
                entries[i * n + j] = (rng.randint(-3, 3), rng.randint(-3, 3))
    fm = FittingMatrix(g, variant, ExactMatrix.from_numerators(n, n, entries))
    verify_fitting(fm)
    return fm


@dataclass(frozen=True)
class ClassicalBounds:
    """The classical sandwich for one graph, with verified witnesses."""

    graph: Graph
    alpha: int
    theta: float
    haemers_lower: int
    haemers_lower_reason: str
    haemers_upper: int
    xi_upper: int
    fitting: FittingMatrix
    representation: tuple[ExactMatrix, ...]
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "alpha": self.alpha,
            "theta": self.theta,
            "haemers_lower": self.haemers_lower,
            "haemers_lower_reason": self.haemers_lower_reason,
            "haemers_upper": self.haemers_upper,
            "xi_upper": self.xi_upper,
            "fitting": self.fitting.to_json_dict(),
            "representation": [
                [str(v[i, 0]) for i in range(v.rows)] for v in self.representation
            ],
            "consistent": self.consistent,
        }


def _representation(g: Graph) -> list[ExactMatrix]:
    """The orthogonal representation this module constructs for g.

    The 5-cycle gets pentagon_representation().  Every other graph maps
    vertex v to e_c, where c is v's clique in the greedy clique cover of
    graphs.greedy_clique_cover, numbered in order of discovery; vectors
    in different cliques are orthogonal, so the dimension is the number of
    cliques.  A complete graph gets one clique and the vector [1]; a graph
    without edges gets e_v at vertex v.
    """
    if g == cycle_graph(5):
        return pentagon_representation()
    cliques = greedy_clique_cover((1 << g.n) - 1, g.adjacency_masks())
    return [
        ExactMatrix.from_nonzeros(len(cliques), 1, {c: ONE})
        for v in range(g.n)
        for c, mask in enumerate(cliques)
        if mask >> v & 1
    ]


def best_fitting_matrix(g: Graph) -> tuple[int, FittingMatrix]:
    """The Gram fitting matrix of _representation(g), with its verified rank.

    The matrix has nonzero diagonal; row-scale it with unit_diagonal_form
    before lifting it to a span certificate.
    """
    return _gram_fitting(g, _representation(g))


def bounds_report(
    g: Graph, *, theta_tol: float = DEFAULT_TOL, power_cap: int = DEFAULT_VERTEX_CAP
) -> ClassicalBounds:
    """Assemble α, ϑ, and certificate-backed 𝓗 and ξ̄ bounds for a graph.

    The 𝓗 lower bound is max(α, ⌈√α(G⊠G)⌉) — the strong-product root is a
    capacity lower bound and 𝓗 dominates the capacity — computed only when
    the squared graph fits under power_cap, the branch-and-bound vertex cap
    both independence numbers run under.  Both upper bounds come from one
    verified orthogonal representation (_representation: a greedy clique
    cover, or the pentagon's): ξ̄ is its dimension and 𝓗 the rank of its
    Gram fitting matrix (best_fitting_matrix).
    """
    alpha, _ = independence_number(g, power_cap)
    theta = lovasz_theta(g, tol=theta_tol).value

    lower, reason = alpha, "independence number"
    if g.n * g.n <= power_cap:
        a2 = independence_number(strong_product(g, g), power_cap)[0]
        root = _ceil_isqrt(a2)
        if root > lower:
            lower, reason = root, "square root of the strong-square independence number"

    representation = _representation(g)
    upper, fitting = _gram_fitting(g, representation)
    xi_upper = representation[0].rows

    consistent = bool(alpha <= lower <= upper <= xi_upper and alpha <= theta + 1e-4)
    return ClassicalBounds(
        graph=g,
        alpha=alpha,
        theta=theta,
        haemers_lower=lower,
        haemers_lower_reason=reason,
        haemers_upper=upper,
        xi_upper=xi_upper,
        fitting=fitting,
        representation=tuple(representation),
        consistent=consistent,
    )
