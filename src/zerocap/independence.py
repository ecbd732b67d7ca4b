"""Independent vector systems for noncommutative graphs.

A family of nonzero vectors psi_1, ..., psi_l in C^n is independent for a
span S when <psi_i| A |psi_j> = 0 for every i != j and every A in S.  The
largest such l is the independence number of S; computing it is hard in
general, so this module offers three honest levels: exact verification of a
proposed family, exact computation when S is spanned by matrix units (the
graph case, where the value equals the graph's independence number), and a
heuristic numeric search whose output is always verified exactly before
being returned.

Scaling a vector never affects the bilinear conditions, so vectors are not
required to be normalized (exact unit normalization is usually impossible
over the Gaussian rationals anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactlinalg import (
    ExactMatrix,
    ONE,
    format_scalar,
    require_int,
    parse_scalar,
)
from .graphs import Graph, independence_number
from .ncgraph import NcGraph


@dataclass(frozen=True)
class IndependentSystem:
    """Exact nonzero vectors in C^n, intended to be pairwise S-orthogonal."""

    n: int
    vectors: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if v.shape != (self.n, 1):
                raise ValueError(f"vector shape {v.shape} != ({self.n}, 1)")

    @property
    def size(self) -> int:
        return len(self.vectors)

    @staticmethod
    def from_columns(columns) -> "IndependentSystem":
        vecs = tuple(columns)
        if not vecs:
            raise ValueError("need at least one vector")
        return IndependentSystem(vecs[0].rows, vecs)

    @staticmethod
    def standard_basis(n: int, indices) -> "IndependentSystem":
        return IndependentSystem(
            n, tuple(ExactMatrix.from_nonzeros(n, 1, {i: ONE}) for i in indices)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vectors": [
                [format_scalar(v[i, 0]) for i in range(self.n)]
                for v in self.vectors
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "IndependentSystem":
        n = require_int(d, "n")
        vecs = tuple(
            ExactMatrix(n, 1, [parse_scalar(s) for s in entries])
            for entries in d["vectors"]
        )
        return IndependentSystem(n, vecs)


def verify_independent(s: NcGraph, sys_: IndependentSystem) -> bool:
    """Exact check of every bilinear condition <psi_i|A|psi_j> = 0.

    Raises ValueError on malformed input (zero vector, dimension mismatch);
    returns False when some condition fails, True when all pass.  Each sum
    of conj(psi_i[r]) A[r, c] psi_j[c] runs in Z[i] over the entries of a
    canonical row A and the vectors' numerators.
    """
    if sys_.n != s.n:
        raise ValueError(f"vectors live in C^{sys_.n} but the span is in M_{s.n}")
    at: dict[int, list] = {}  # coordinate r -> [(i, psi_i[r])] for psi_i[r] != 0
    for idx, v in enumerate(sys_.vectors):
        if v.is_zero():
            raise ValueError(f"vector {idx} is zero")
        for r, x in v.numerators()[0].items():
            at.setdefault(r, []).append((idx, x))
    for row in s.integer_rows.values():
        sums: dict[tuple[int, int], tuple[int, int]] = {}
        for k, (ar, ai) in row.items():
            r, c = divmod(k, s.n)
            for i, (ur, ui) in at.get(r, ()):
                br, bi = ur * ar + ui * ai, ur * ai - ui * ar  # conj(psi_i[r]) * a
                for j, (wr, wi) in at.get(c, ()):
                    if i != j:
                        sr, si = sums.get((i, j), (0, 0))
                        sums[(i, j)] = (sr + br * wr - bi * wi, si + br * wi + bi * wr)
        if any(v != (0, 0) for v in sums.values()):
            return False
    return True


def axis_witness(s: NcGraph) -> Optional[IndependentSystem]:
    """Largest independent system of standard basis vectors, exactly.

    e_i and e_j are independent in S iff S vanishes at (i, j) and (j, i): a
    maximum independent set (branch and bound) of the conflict graph on the
    off-diagonal support, which on S_G is G.  Returned only if
    verify_independent passes; ValueError above graphs.DEFAULT_VERTEX_CAP.
    """
    n = s.n
    conflicts = [divmod(c, n) for c in s.support if c // n != c % n]
    _size, vertices = independence_number(Graph.from_edges(n, conflicts))
    witness = IndependentSystem.standard_basis(n, vertices)
    return witness if verify_independent(s, witness) else None


def alpha_lower_search(
    s: NcGraph,
    l_target: int,
    budget: int = 20,
    *,
    seed: int = 0,
) -> Optional[IndependentSystem]:
    """Search for a verified independent system of size l_target.

    Graph-form spans are handled exactly: the axis witness decides the
    question outright and its first l_target vectors are returned (so a
    None answer is a proof of absence there).  Otherwise the
    search alternates smallest-eigenvector updates over l_target vectors,
    driving the residual sum of |<psi_i|A_b|psi_j>|^2 toward zero, then
    rationalizes each vector (largest entry scaled to 1, denominators
    capped) and re-verifies exactly.  A candidate that fails exact
    verification is discarded, never loosened, so any returned system is
    exact; absence of a witness is reported as None, not as an error.
    `budget` counts random restarts.
    """
    if l_target < 1:
        raise ValueError("l_target must be at least 1")
    n = s.n

    if s.as_graph() is not None:
        witness = axis_witness(s)
        if witness is None or witness.size < l_target:
            return None
        return IndependentSystem(n, witness.vectors[:l_target])

    if l_target == 1:
        out = IndependentSystem.standard_basis(n, [0])
        return out if verify_independent(s, out) else None

    from . import search
    return search.find_independent_system(s, l_target, budget, seed)
