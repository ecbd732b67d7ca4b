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

import numpy as np

from .exactlinalg import (
    ExactMatrix,
    GaussianRational,
    ONE,
    ZERO,
    format_scalar,
    require_int,
    parse_scalar,
    rationalize,
)
from .graphs import independence_number
from .ncgraph import NcGraph

DEFAULT_DENOMINATOR_CAP = 10_000


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
        cols = []
        for i in indices:
            e = [ZERO] * n
            e[i] = ONE
            cols.append(ExactMatrix(n, 1, e))
        return IndependentSystem(n, tuple(cols))

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
    returns False when some condition fails, True when all pass.
    """
    if sys_.n != s.n:
        raise ValueError(f"vectors live in C^{sys_.n} but the span is in M_{s.n}")
    for idx, v in enumerate(sys_.vectors):
        if all(v[i, 0].is_zero() for i in range(sys_.n)):
            raise ValueError(f"vector {idx} is zero")
    images = [[a @ v for v in sys_.vectors] for a in s.basis]
    for per_basis in images:
        for i, vi in enumerate(sys_.vectors):
            bra = vi.H
            for j, avj in enumerate(per_basis):
                if i == j:
                    continue
                if not (bra @ avj)[0, 0].is_zero():
                    return False
    return True


def _rationalize_vector(
    v: np.ndarray, cap: int
) -> Optional[ExactMatrix]:
    """Scale so the largest entry is exactly 1, then round entrywise."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) < 1e-12:
        return None
    w = v / pivot
    entries = []
    for z in w:
        re = rationalize(float(z.real), cap)
        im = rationalize(float(z.imag), cap)
        entries.append(GaussianRational(re, im))
    return ExactMatrix(len(entries), 1, entries)


def alpha_lower_search(
    s: NcGraph,
    l_target: int,
    budget: int = 20,
    *,
    denominator_cap: int = DEFAULT_DENOMINATOR_CAP,
    seed: int = 0,
) -> Optional[IndependentSystem]:
    """Search for a verified independent system of size l_target.

    Graph-form spans are handled exactly: the branch-and-bound independence
    number decides the question outright and a standard-basis witness is
    returned (so a None answer is a proof of absence there).  Otherwise the
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

    g = s.as_graph()
    if g is not None:
        size, witness = independence_number(g)
        if size < l_target:
            return None
        chosen = sorted(witness)[:l_target]
        out = IndependentSystem.standard_basis(n, chosen)
        return out if verify_independent(s, out) else None

    if l_target == 1:
        out = IndependentSystem.standard_basis(n, [0])
        return out if verify_independent(s, out) else None

    basis_c = [a.to_complex() for a in s.basis]
    ops = basis_c + [a.conj().T for a in basis_c]
    rng = np.random.default_rng(seed)

    def residual(vecs: list[np.ndarray]) -> float:
        total = 0.0
        for a in basis_c:
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    if i != j:
                        total += abs(np.vdot(vi, a @ vj)) ** 2
        return total

    caps = [c for c in (16, 256) if c < denominator_cap] + [denominator_cap]
    for _ in range(budget):
        vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(l_target)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        best = float("inf")
        for _sweep in range(200):
            for i in range(l_target):
                m = np.zeros((n, n), dtype=complex)
                for j, vj in enumerate(vecs):
                    if j == i:
                        continue
                    for a in ops:
                        w = a @ vj
                        m += np.outer(w, w.conj())
                _vals, eig = np.linalg.eigh(m)
                vecs[i] = eig[:, 0]
            r = residual(vecs)
            if r < 1e-22:
                break
            if r > best * (1 - 1e-3):
                break
            best = min(best, r)
        if residual(vecs) > 1e-18:
            continue
        for cap in caps:
            cols = [_rationalize_vector(v, cap) for v in vecs]
            if any(c is None for c in cols):
                continue
            candidate = IndependentSystem(n, tuple(cols))
            try:
                if verify_independent(s, candidate):
                    return candidate
            except ValueError:
                continue
    return None
