"""Noncommutative graphs: subspaces of M_n stored with a canonical basis.

A noncommutative graph here is any linear subspace S of the n x n complex
matrices, held as the reduced row echelon basis of its row-major
vectorization over Q(i).  That canonical form makes equality testing,
membership, and the annihilator functionals (the linear conditions cutting
out S) exact and deterministic.  Operator systems, i.e. self-adjoint
subspaces containing the identity, are flagged but not required; functions
downstream that assume the flags warn when they are absent.

The graph case embeds as S_G = span{ |i><j| : i = j or ij an edge }, and
channels enter through spans of Kraus products E_k^dag E_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactlinalg import (
    ExactMatrix,
    GaussianRational,
    ONE,
    SparseRow,
    ZERO,
    as_scalar,
    format_scalar,
    require_int,
    require_list,
    parse_scalar,
    reduce_row,
    sparse_rref,
)
from .graphs import Graph


def _matrix_to_row(a: ExactMatrix) -> SparseRow:
    return {k: v for k, v in enumerate(a.vec()) if not v.is_zero()}


def _row_to_matrix(row: SparseRow, n: int) -> ExactMatrix:
    e = [ZERO] * (n * n)
    for k, v in row.items():
        e[k] = v
    return ExactMatrix(n, n, e)


def _adjoint_row(row: SparseRow, n: int) -> SparseRow:
    return {(k % n) * n + (k // n): v.conj() for k, v in row.items()}


class NcGraph:
    """Subspace of M_n with canonical echelon basis; immutable."""

    __slots__ = ("n", "_rows", "_echelon", "_self_adjoint", "_has_identity")

    def __init__(self, n: int, rows: Sequence[SparseRow]):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.n = n
        canon = sparse_rref(rows)
        for r in canon:
            if max(r) >= n * n:
                raise ValueError("coordinate out of range for ambient dimension")
        self._rows = tuple(canon)
        self._echelon = tuple((min(r), r) for r in self._rows)
        identity_row = {i * n + i: ONE for i in range(n)}
        self._has_identity = not reduce_row(identity_row, self._echelon)
        self._self_adjoint = all(
            not reduce_row(_adjoint_row(r, n), self._echelon) for r in self._rows
        )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def span_from_generators(n: int, mats: Iterable[ExactMatrix]) -> "NcGraph":
        rows = []
        for a in mats:
            if a.shape != (n, n):
                raise ValueError(f"generator shape {a.shape} != ({n},{n})")
            rows.append(_matrix_to_row(a))
        return NcGraph(n, rows)

    @staticmethod
    def from_graph(g: Graph) -> "NcGraph":
        n = g.n
        rows = [{i * n + i: ONE} for i in range(n)]
        for i, j in g.edges:
            rows.append({i * n + j: ONE})
            rows.append({j * n + i: ONE})
        return NcGraph(n, rows)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> list[ExactMatrix]:
        """Canonical basis as dense matrices."""
        return [_row_to_matrix(r, self.n) for r in self._rows]

    @property
    def is_self_adjoint(self) -> bool:
        return self._self_adjoint

    @property
    def contains_identity(self) -> bool:
        return self._has_identity

    def is_operator_system(self) -> bool:
        return self._self_adjoint and self._has_identity

    def is_full(self) -> bool:
        return self.dim == self.n * self.n

    def contains(self, a: ExactMatrix) -> bool:
        if a.shape != (self.n, self.n):
            return False
        return not reduce_row(_matrix_to_row(a), self._echelon)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcGraph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self) -> str:
        return f"NcGraph(n={self.n}, dim={self.dim})"

    def equals(self, other: "NcGraph") -> bool:
        return self == other

    # -- structure ---------------------------------------------------------

    def annihilator_rows(self) -> list[SparseRow]:
        """Linear functionals L with S = {X : L(vec X) = 0 for all L}.

        Read off the echelon basis: a coordinate is either a pivot of some
        basis row or determined by the pivots; each non-pivot coordinate c
        yields the functional X_c - sum_j basis_j[c] * X_{p_j}.
        """
        pivots = [p for p, _ in self._echelon]
        pivot_set = set(pivots)
        out: list[SparseRow] = []
        for c in range(self.n * self.n):
            if c in pivot_set:
                continue
            row: SparseRow = {c: ONE}
            for p, b in self._echelon:
                v = b.get(c)
                if v is not None:
                    row[p] = -v
            out.append(row)
        return out

    def as_graph(self) -> Optional[Graph]:
        """The graph G with S = S_G, if this span is of that form."""
        n = self.n
        for i in range(n):
            if not self.contains(matrix_unit(n, i, i)):
                return None
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if self.contains(matrix_unit(n, i, j))
        ]
        g = Graph.from_edges(n, edges)
        return g if self == NcGraph.from_graph(g) else None

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "basis": [b.to_strings() for b in self.basis]}

    @staticmethod
    def from_json_dict(d: dict) -> "NcGraph":
        n = require_int(d, "n")
        mats = [ExactMatrix.from_strings(b) for b in require_list(d, "basis")]
        return NcGraph.span_from_generators(n, mats)


def matrix_unit(n: int, i: int, j: int) -> ExactMatrix:
    e = [ZERO] * (n * n)
    e[i * n + j] = ONE
    return ExactMatrix(n, n, e)


def check_unitary(u: ExactMatrix) -> None:
    if u.rows != u.cols or u.H @ u != ExactMatrix.identity(u.rows):
        raise ValueError("matrix is not unitary")


# -- channels ---------------------------------------------------------


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map given by exact Kraus operators E_i in M_{n_out x n_in}."""

    n_in: int
    n_out: int
    kraus: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("need at least one Kraus operator")
        total = ExactMatrix.zeros(self.n_in, self.n_in)
        for e in self.kraus:
            if e.shape != (self.n_out, self.n_in):
                raise ValueError(
                    f"Kraus shape {e.shape} != ({self.n_out},{self.n_in})"
                )
            total = total + e.H @ e
        if total != ExactMatrix.identity(self.n_in):
            raise ValueError("Kraus operators do not satisfy sum E^dag E = I")

    def apply(self, a: ExactMatrix) -> ExactMatrix:
        out = ExactMatrix.zeros(self.n_out, self.n_out)
        for e in self.kraus:
            out = out + e @ a @ e.H
        return out

    def to_json_dict(self) -> dict:
        return {
            "n_in": self.n_in,
            "n_out": self.n_out,
            "kraus": [e.to_strings() for e in self.kraus],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "QuantumChannel":
        return QuantumChannel(
            require_int(d, "n_in"),
            require_int(d, "n_out"),
            tuple(ExactMatrix.from_strings(e) for e in require_list(d, "kraus")),
        )


@dataclass(frozen=True)
class ClassicalChannel:
    """Discrete memoryless channel; probs[y][x] = N(y|x), columns sum to 1."""

    inputs: int
    outputs: int
    probs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.probs) != self.outputs or any(
            len(r) != self.inputs for r in self.probs
        ):
            raise ValueError("probability matrix shape mismatch")
        for row in self.probs:
            for p in row:
                if not isinstance(p, Fraction) or p < 0:
                    raise ValueError("probabilities must be nonnegative Fractions")
        for x in range(self.inputs):
            if sum(row[x] for row in self.probs) != 1:
                raise ValueError(f"column {x} does not sum to 1")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ClassicalChannel":
        probs = tuple(tuple(Fraction(p) for p in r) for r in rows)
        return ClassicalChannel(len(probs[0]), len(probs), probs)

    def to_json_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "outputs": self.outputs,
            "probs": [[str(p) for p in row] for row in self.probs],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ClassicalChannel":
        try:
            probs = tuple(tuple(Fraction(p) for p in row) for row in d["probs"])
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed probability in 'probs': {exc}") from None
        return ClassicalChannel(require_int(d, "inputs"), require_int(d, "outputs"), probs)


def from_kraus(channel: QuantumChannel) -> NcGraph:
    """Confusability span of a quantum channel: span{E_k^dag E_l}."""
    mats = [e.H @ f for e in channel.kraus for f in channel.kraus]
    return NcGraph.span_from_generators(channel.n_in, mats)


def confusability_graph(channel: ClassicalChannel) -> Graph:
    """Inputs adjacent iff some output has positive probability under both."""
    edges = []
    for x1 in range(channel.inputs):
        for x2 in range(x1 + 1, channel.inputs):
            if any(row[x1] > 0 and row[x2] > 0 for row in channel.probs):
                edges.append((x1, x2))
    return Graph.from_edges(channel.inputs, edges)


def from_classical_channel(channel: ClassicalChannel) -> NcGraph:
    return NcGraph.from_graph(confusability_graph(channel))


# -- operations ---------------------------------------------------------


def tensor(s: NcGraph, t: NcGraph) -> NcGraph:
    mats = [a.kron(b) for a in s.basis for b in t.basis]
    return NcGraph.span_from_generators(s.n * t.n, mats)


def direct_sum_nc(s: NcGraph, t: NcGraph) -> NcGraph:
    """{A + B : A in S, B in T} as block-diagonal matrices, no cross blocks."""
    zs = ExactMatrix.zeros(s.n, s.n)
    zt = ExactMatrix.zeros(t.n, t.n)
    mats = [a.direct_sum(zt) for a in s.basis] + [zs.direct_sum(b) for b in t.basis]
    return NcGraph.span_from_generators(s.n + t.n, mats)


def conjugate_by_unitary(s: NcGraph, u: ExactMatrix) -> NcGraph:
    """U^dag S U for exact unitary U."""
    if u.shape != (s.n, s.n):
        raise ValueError("unitary dimension mismatch")
    check_unitary(u)
    uh = u.H
    return NcGraph.span_from_generators(s.n, [uh @ a @ u for a in s.basis])


# -- catalog -------------------------------------------------------------


def full_matrix_system(n: int) -> NcGraph:
    return NcGraph(n, [{k: ONE} for k in range(n * n)])


def scalar_identity_system(n: int) -> NcGraph:
    return NcGraph(n, [{i * n + i: ONE for i in range(n)}])


def diagonal_system(n: int) -> NcGraph:
    return NcGraph(n, [{i * n + i: ONE} for i in range(n)])


def constant_diagonal_system(n: int) -> NcGraph:
    """Matrices with constant diagonal and free off-diagonal entries."""
    rows: list[SparseRow] = [{i * n + i: ONE for i in range(n)}]
    rows.extend(
        {i * n + j: ONE} for i in range(n) for j in range(n) if i != j
    )
    return NcGraph(n, rows)


def corner_family(c: Fraction) -> NcGraph:
    """Benchmark family in M_3 at exact rational parameter c in (0, 1].

    Spanned by the corner units |1><3| and |3><1| together with the two
    weighted diagonals (1-c)|2><2| + |3><3| and c|2><2| + |1><1|, whose sum
    is the identity.  Its semidefinite relaxation value has the closed
    form 2 + c + 1/c (see corner_family_reference), always at least 4,
    while the exact rank bound of the family is at most 3.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("parameter must lie in (0, 1]")
    one = Fraction(1)
    g = GaussianRational
    mats = [
        matrix_unit(3, 0, 2),
        matrix_unit(3, 2, 0),
        ExactMatrix.from_rows(
            [[0, 0, 0], [0, g(one - c), 0], [0, 0, 1]]
        ),
        ExactMatrix.from_rows([[1, 0, 0], [0, g(c), 0], [0, 0, 0]]),
    ]
    return NcGraph.span_from_generators(3, mats)


def corner_family_reference(c: Fraction) -> Fraction:
    """Closed-form semidefinite relaxation value 2 + c + 1/c of corner_family."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("parameter must lie in (0, 1]")
    return 2 + c + 1 / c
