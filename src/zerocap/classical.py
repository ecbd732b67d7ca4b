"""Classical Haemers bound and orthogonal rank for graphs.

The central object is a fitting matrix for a graph G: an n x n matrix that
vanishes on non-edges and has unit (or merely nonzero) diagonal.  The
minimum rank over such matrices upper-bounds the Shannon capacity, and any
single verified fitting matrix is a standalone upper-bound certificate.
This module verifies such certificates exactly, produces them from a small
construction library, and assembles the classical bounds sandwich

    independence number <= capacity <= min-rank fitting matrix,

together with the orthogonal-rank variant where the fitting matrix is
required positive semidefinite (realized by a Gram matrix of vectors
assigned to vertices, orthogonal across non-edges).

The two diagonal conventions decide the same minimum: dividing each row of
a nonzero-diagonal fitting matrix by its diagonal entry produces a
unit-diagonal one with the same rank and zero pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactlinalg import ExactMatrix, GaussianRational, ONE, ZERO
from .graphs import Graph, cycle_graph, independence_number, strong_product
from .theta import lovasz_theta

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
            if d != GaussianRational(Fraction(1)):
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


def orthogonal_rank_verify(g: Graph, vectors: Sequence[ExactMatrix]) -> int:
    """Verify a vector-per-vertex orthogonal representation; return its dimension.

    Vectors at non-adjacent vertices must be exactly orthogonal.  As a
    cross-check the Gram matrix is confirmed positive semidefinite with
    rank at most the common dimension, which is what makes the dimension an
    upper-bound certificate for the positive-semidefinite variant of the
    fitting-matrix program.
    """
    if len(vectors) != g.n:
        raise ValueError(f"need {g.n} vectors, got {len(vectors)}")
    k = vectors[0].rows
    for idx, v in enumerate(vectors):
        if v.shape != (k, 1):
            raise ValueError(f"vector {idx} has shape {v.shape}, expected ({k}, 1)")
        if all(v[t, 0].is_zero() for t in range(k)):
            raise ValueError(f"vector {idx} is zero")
    gram_entries = []
    for i in range(g.n):
        for j in range(g.n):
            gram_entries.append((vectors[i].H @ vectors[j])[0, 0])
    gram = ExactMatrix(g.n, g.n, gram_entries)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.has_edge(i, j) and not gram[i, j].is_zero():
                raise ValueError(
                    f"vectors {i} and {j} are not orthogonal across the non-edge"
                )
    if not gram.is_psd():
        raise ValueError("Gram matrix is not positive semidefinite")
    if gram.rank() > k:
        raise ValueError("Gram rank exceeds the ambient dimension")
    return k


def gram_fitting_matrix(g: Graph, vectors: Sequence[ExactMatrix]) -> FittingMatrix:
    """The Gram matrix of an orthogonal representation, as a fitting matrix.

    Norms are nonzero and non-edges produce exact zeros, so the result is a
    nonzero-diagonal fitting matrix of rank at most the representation
    dimension.
    """
    k = orthogonal_rank_verify(g, vectors)
    entries = []
    for i in range(g.n):
        for j in range(g.n):
            entries.append((vectors[i].H @ vectors[j])[0, 0])
    fm = FittingMatrix(g, "nonzero-diagonal", ExactMatrix(g.n, g.n, entries))
    assert verify_fitting(fm) <= k
    return fm


def unit_diagonal_form(fm: FittingMatrix) -> FittingMatrix:
    """Row-scale a nonzero-diagonal fitting matrix to unit diagonal.

    Left multiplication by an invertible diagonal matrix preserves both the
    rank and the zero pattern, which is the whole reason the two variants
    have the same minimum.
    """
    n = fm.graph.n
    rows = [
        [fm.b[i, j] / fm.b[i, i] for j in range(n)]
        for i in range(n)
    ]
    flat = [e for row in rows for e in row]
    return FittingMatrix(fm.graph, "unit-diagonal", ExactMatrix(n, n, flat))


def pentagon_representation() -> list[ExactMatrix]:
    """An exact three-dimensional orthogonal representation of the 5-cycle.

    Adjacent vertices may share a vector; all non-adjacent pairs are
    orthogonal.  No rational circulant achieves dimension 3 (see the
    circulant search), but this asymmetric assignment does.
    """
    e1 = ExactMatrix.from_strings([["1"], ["0"], ["0"]])
    e12 = ExactMatrix.from_strings([["1"], ["1"], ["0"]])
    e2 = ExactMatrix.from_strings([["0"], ["1"], ["0"]])
    e3 = ExactMatrix.from_strings([["0"], ["0"], ["1"]])
    return [e1, e12, e2, e3, e3]


# -- circulant constructions ---------------------------------------------


def circulant_difference_set(g: Graph) -> Optional[frozenset[int]]:
    """The difference set S with i ~ j iff (i - j) mod n in S, if one exists."""
    n = g.n
    diffs = {d for d in range(1, n) if g.has_edge(0, d % n)} if n > 1 else set()
    diffs |= {n - d for d in diffs}
    expected = {
        (i, (i + d) % n) for i in range(n) for d in diffs
    }
    expected = {(min(i, j), max(i, j)) for i, j in expected if i != j}
    return frozenset(diffs) if expected == set(g.edges) else None


def circulant_fitting_search(
    g: Graph, xs: Optional[Iterable] = None
) -> Optional[FittingMatrix]:
    """Sweep circulant matrices with first row 1 at 0 and x on the difference set.

    Returns the minimum-rank verified circulant fitting matrix over the
    sweep, or None when the graph is not circulant or no sweep point beats
    rank n.  For the 5-cycle this search provably cannot reach rank 3: a
    circulant with Gaussian-rational entries and the pentagon's zero
    pattern has no vanishing eigenvalue except possibly at the all-ones
    vector, so the sweep bottoms out at rank 4.
    """
    diffs = circulant_difference_set(g)
    if diffs is None or not diffs:
        return None
    n = g.n
    if xs is None:
        xs = [
            Fraction(p, q)
            for q in (1, 2, 3, 4)
            for p in range(-8, 9)
            if p != 0 and math.gcd(abs(p), q) == 1
        ]
    best: Optional[FittingMatrix] = None
    best_rank = n
    for x in xs:
        first = [ZERO] * n
        first[0] = ONE
        xg = GaussianRational(Fraction(x))
        for d in diffs:
            first[d] = xg
        entries = [first[(j - i) % n] for i in range(n) for j in range(n)]
        fm = FittingMatrix(g, "unit-diagonal", ExactMatrix(n, n, entries))
        rank = verify_fitting(fm)
        if rank < best_rank:
            best, best_rank = fm, rank
    return best


# -- bounds sandwich -------------------------------------------------------


def _ceil_isqrt(a: int) -> int:
    r = math.isqrt(a)
    return r if r * r == a else r + 1


def random_fitting_matrix(g: Graph, rng, variant: str = "unit-diagonal") -> FittingMatrix:
    """A random verified fitting matrix (generic rank; useful as test stock)."""
    n = g.n
    entries = []
    for i in range(n):
        for j in range(n):
            if i == j:
                if variant == "unit-diagonal":
                    entries.append(ONE)
                else:
                    entries.append(
                        GaussianRational(Fraction(rng.randint(1, 5)))
                    )
            elif g.has_edge(i, j):
                entries.append(
                    GaussianRational(
                        Fraction(rng.randint(-3, 3)),
                        Fraction(rng.randint(-3, 3)),
                    )
                )
            else:
                entries.append(ZERO)
    fm = FittingMatrix(g, variant, ExactMatrix(n, n, entries))
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


def _representation_library(g: Graph) -> list[ExactMatrix]:
    n = g.n
    if len(g.edges) == n * (n - 1) // 2:
        one = ExactMatrix.from_strings([["1"]])
        return [one] * n
    if n == 5 and g == cycle_graph(5):
        return pentagon_representation()
    cols = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        cols.append(ExactMatrix(n, 1, e))
    return cols


def best_fitting_matrix(g: Graph) -> tuple[int, FittingMatrix]:
    """The lowest-rank fitting matrix of the construction library, with its rank.

    Candidates, in order: the Gram matrix of the library's orthogonal
    representation (nonzero diagonal), then the circulant sweep when the
    graph is circulant.  The lowest verified rank wins and the first
    candidate wins a tie.  Row-scale with unit_diagonal_form before
    lifting the winner to a span certificate.
    """
    candidates = [gram_fitting_matrix(g, _representation_library(g))]
    circulant = circulant_fitting_search(g)
    if circulant is not None:
        candidates.append(circulant)
    ranked = sorted((verify_fitting(fm), i) for i, fm in enumerate(candidates))
    rank, best_idx = ranked[0]
    return rank, candidates[best_idx]


def bounds_report(g: Graph, *, theta_tol: float = 1e-7, power_cap: int = 64) -> ClassicalBounds:
    """Assemble α, ϑ, and certificate-backed 𝓗 and ξ̄ bounds for a graph.

    The 𝓗 lower bound is max(α, ⌈√α(G⊠G)⌉) — the strong-product root is a
    capacity lower bound and 𝓗 dominates the capacity — computed only when
    the squared graph fits under the branch-and-bound vertex cap.  Upper
    bounds come from the construction library (best_fitting_matrix): the
    Gram matrix of the best known orthogonal representation (which
    specializes to the all-ones matrix on cliques and the identity on empty
    graphs) and a circulant sweep when the graph is circulant.
    """
    alpha, _ = independence_number(g)
    theta = lovasz_theta(g, tol=theta_tol).value

    lower, reason = alpha, "independence number"
    if g.n * g.n <= power_cap:
        a2 = independence_number(strong_product(g, g))[0]
        root = _ceil_isqrt(a2)
        if root > lower:
            lower, reason = root, "square root of the strong-square independence number"

    representation = _representation_library(g)
    xi_upper = orthogonal_rank_verify(g, representation)
    upper, fitting = best_fitting_matrix(g)

    consistent = alpha <= lower <= upper <= xi_upper and alpha <= theta + 1e-4
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
