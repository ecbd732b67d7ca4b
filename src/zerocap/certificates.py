"""Machine-checkable rank certificates for the operator-span capacity bound.

The bound being certified is

    min rank(B)  over  B in M_m(S),  sum_i B_ii = I_n,

where S is a matrix span (see ncgraph).  A certificate stores exact
factors C, D with B = C^dag D, so the claimed rank bound k is evident
from the shapes and everything else is checkable in exact arithmetic.
``verify_certificate`` is the trust root: no upper bound is ever
reported without a certificate that passes it.

Besides verification this module provides the constructive toolbox —
lifting fitting matrices of classical graphs, tensor products, direct
sums, unitary conjugation, pushing certificates through cohomomorphisms
(completely positive trace-preserving compressions), compression lower
bounds from independent systems — plus a numeric-search front end that
only ever returns exactly verified output, and a tiny-scale exact
decision procedure backed by the groebner module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

import numpy as np

from .classical import (
    FittingMatrix,
    best_fitting_matrix,
    unit_diagonal_form,
    verify_fitting,
)
from .graphs import Graph, independence_number
from .exactlinalg import (
    ExactMatrix,
    GaussianRational,
    ONE,
    ZERO,
    require_int,
    require_list,
    rank_factorization,
    rationalize,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_TIME_BUDGET,
    IdealDecision,
    buchberger,
    check_cofactors,
    encode_rank_feasibility,
)
from .independence import IndependentSystem, alpha_lower_search, verify_independent
from .ncgraph import NcGraph, check_unitary, conjugate_by_unitary
from .ncgraph import direct_sum_nc as _direct_sum_span
from .ncgraph import diagonal_system
from .ncgraph import tensor as _tensor_span

#: Denominator caps tried, in order, when rounding a float factor to Q(i).
RATIONALIZE_DENOMINATORS: tuple[int, ...] = (16, 256, 10_000, 1_000_000)

#: Soft ceiling on the real-variable count accepted by the exact decider.
EXACT_DECIDE_VAR_GUIDELINE = 24


class VerificationError(ValueError):
    """A certificate failed an exact check.

    ``kind`` is a stable machine-readable code ("block-membership",
    "trace", "rank", "psd", "factor-mismatch", "shape", "empty-span",
    "kraus", "cohomomorphism"); ``where`` locates the violation when
    one index makes sense (e.g. a block pair).
    """

    def __init__(self, message: str, *, kind: str = "invalid", where=None):
        super().__init__(message)
        self.kind = kind
        self.where = where


# -- certificate types ------------------------------------------------


@dataclass(frozen=True)
class HaemersCertificate:
    """Exact witness that the rank bound of some span is at most k.

    B = C^dag D is an mn x mn matrix viewed as m x m blocks of size n.
    The factored form keeps rank(B) <= k true by shape; membership of
    every block and the block-trace condition are checked by
    ``verify_certificate`` against a concrete span.
    """

    n: int
    m: int
    k: int
    C: ExactMatrix
    D: ExactMatrix

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise ValueError("n, m, k must all be positive")
        if self.m > self.n**4:
            raise ValueError(
                f"block count m = {self.m} exceeds the sanity cap n^4 = {self.n ** 4}"
            )
        want = (self.k, self.m * self.n)
        if self.C.shape != want or self.D.shape != want:
            raise ValueError(
                f"factors must be {want[0]} x {want[1]}, "
                f"got C {self.C.shape} and D {self.D.shape}"
            )

    def matrix(self) -> ExactMatrix:
        """The certified matrix B = C^dag D."""
        return self.C.conj_transpose() @ self.D

    def block(self, b: ExactMatrix, i: int, j: int) -> ExactMatrix:
        n = self.n
        rows = range(i * n, (i + 1) * n)
        cols = range(j * n, (j + 1) * n)
        return b.submatrix(rows, cols)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "C": self.C.to_strings(),
            "D": self.D.to_strings(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HaemersCertificate":
        return cls(
            n=require_int(data, "n"),
            m=require_int(data, "m"),
            k=require_int(data, "k"),
            C=ExactMatrix.from_strings(data["C"]),
            D=ExactMatrix.from_strings(data["D"]),
        )


@dataclass(frozen=True)
class TpMapCertificate:
    """Kraus-style form of a certificate: a trace-preserving map into M_k.

    E and F hold m pairs of k x n matrices with sum_i F_i^dag E_i = I_n;
    the spanned operators F_i^dag E_j must lie in the target span.  The
    two representations convert losslessly (to_tp_map / from_tp_map).
    """

    n: int
    k: int
    E: tuple[ExactMatrix, ...]
    F: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if len(self.E) != len(self.F) or not self.E:
            raise ValueError("E and F must be equally long and nonempty")
        for mat in (*self.E, *self.F):
            if mat.shape != (self.k, self.n):
                raise ValueError(
                    f"every Kraus factor must be {self.k} x {self.n}, got {mat.shape}"
                )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "E": [mat.to_strings() for mat in self.E],
            "F": [mat.to_strings() for mat in self.F],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TpMapCertificate":
        return cls(
            n=require_int(data, "n"),
            k=require_int(data, "k"),
            E=tuple(ExactMatrix.from_strings(m) for m in require_list(data, "E")),
            F=tuple(ExactMatrix.from_strings(m) for m in require_list(data, "F")),
        )


# -- verification -----------------------------------------------------


def _product_rank(c: ExactMatrix, d: ExactMatrix) -> int:
    # rank(C^dag D) without materializing a Bareiss run on the full mn x mn
    # product: factor C^dag = P Q with P of full column rank, then
    # rank(C^dag D) = rank(Q D) and Q D has at most k rows.
    p, q = rank_factorization(c.conj_transpose())
    if q.rows == 0:
        return 0
    return (q @ d).rank()


def verify_certificate(s: NcGraph, cert: HaemersCertificate) -> int:
    """Exactly check a certificate against a span; return rank(B).

    Checks, over Q(i) with no tolerances: every block of B = C^dag D
    lies in s, the diagonal blocks sum to the identity, and
    rank(B) <= k.  Raises VerificationError naming the first violation.
    """
    if s.dim == 0:
        raise VerificationError("span has empty basis", kind="empty-span")
    if cert.n != s.n:
        raise VerificationError(
            f"certificate ambient dimension {cert.n} != span dimension {s.n}",
            kind="shape",
        )
    if not s.is_operator_system():
        warnings.warn(
            "span is not an operator system (self-adjoint with identity); "
            "the rank bound is still checked but loses its capacity meaning",
            stacklevel=2,
        )
    n, m = cert.n, cert.m
    b = cert.matrix()
    total = ExactMatrix.zeros(n, n)
    for i in range(m):
        for j in range(m):
            blk = cert.block(b, i, j)
            if not s.contains(blk):
                raise VerificationError(
                    f"block ({i}, {j}) of C^dag D lies outside the span",
                    kind="block-membership",
                    where=(i, j),
                )
            if i == j:
                total = total + blk
    if total != ExactMatrix.identity(n):
        raise VerificationError(
            "diagonal blocks of C^dag D do not sum to the identity",
            kind="trace",
        )
    rank = _product_rank(cert.C, cert.D)
    if rank > cert.k:
        raise VerificationError(
            f"rank {rank} exceeds the claimed bound k = {cert.k}", kind="rank"
        )
    return rank


def verify_xi_certificate(s: NcGraph, cert: HaemersCertificate) -> int:
    """Check a positive-semidefinite certificate (C = D, so B = C^dag C >= 0).

    The PSD feasible region sits inside the general one, so the value also
    upper-bounds the plain rank bound; returns rank(B).
    """
    if cert.C != cert.D:
        raise VerificationError(
            "positive certificate requires identical factors C = D",
            kind="factor-mismatch",
        )
    if not cert.matrix().is_psd():
        # cannot happen for C = D; kept as a cross-check of the arithmetic
        raise VerificationError("C^dag C failed the PSD check", kind="psd")
    return verify_certificate(s, cert)


def verify_tp_map(s: NcGraph, tp: TpMapCertificate) -> int:
    """Check the trace-preserving-map form of a certificate; return rank.

    Block (i, j) of C^dag D in the converted certificate is F_i^dag E_j,
    so ``verify_certificate`` checks exactly the map's conditions.
    """
    return verify_certificate(s, from_tp_map(tp))


# -- stock certificates -----------------------------------------------


def identity_certificate(n: int) -> HaemersCertificate:
    """C = D = I_n with a single block: rank n, valid for any span containing I."""
    ident = ExactMatrix.identity(n)
    return HaemersCertificate(n=n, m=1, k=n, C=ident, D=ident)


def full_matrix_certificate(n: int) -> HaemersCertificate:
    """Rank-1 certificate for the full matrix algebra M_n.

    Uses n blocks and the vector u stacking the standard basis, so
    B = u u^dag; its diagonal blocks are the diagonal matrix units and
    sum to I_n.  Also a valid PSD certificate (C = D).
    """
    row = [[ZERO] * (n * n)]
    for i in range(n):
        row[0][i * n + i] = ONE
    c = ExactMatrix.from_rows(row)
    return HaemersCertificate(n=n, m=n, k=1, C=c, D=c)


def random_certificate(
    s: NcGraph, m: int, rng: np.random.Generator, *, magnitude: int = 3
) -> HaemersCertificate:
    """A random verified certificate with m blocks drawn from the span.

    Off-diagonal blocks are random span elements with small Gaussian-rational
    coefficients; the diagonal is corrected by an equal share of
    (sum of diagonals - I), which stays inside the span because the span
    contains the identity.  k is set to the exact rank, so the result is
    tight by construction and always verifies.
    """
    if not s.contains_identity:
        raise ValueError("random certificates need the identity inside the span")
    n = s.n
    basis = s.basis

    def coeff() -> GaussianRational:
        return GaussianRational(
            Fraction(int(rng.integers(-magnitude, magnitude + 1)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-magnitude, magnitude + 1)), int(rng.integers(1, 4))),
        )

    def random_block() -> ExactMatrix:
        out = ExactMatrix.zeros(n, n)
        for mat in basis:
            out = out + mat.scale(coeff())
        return out

    blocks = [[random_block() for _ in range(m)] for _ in range(m)]
    total = ExactMatrix.zeros(n, n)
    for i in range(m):
        total = total + blocks[i][i]
    excess = (total - ExactMatrix.identity(n)).scale(
        GaussianRational(Fraction(1, m))
    )
    for i in range(m):
        blocks[i][i] = blocks[i][i] - excess

    rows: list[list[GaussianRational]] = []
    for i in range(m):
        for p in range(n):
            row: list[GaussianRational] = []
            for j in range(m):
                row.extend(blocks[i][j].row(p))
            rows.append(row)
    b = ExactMatrix.from_rows(rows)
    p_fac, q_fac = rank_factorization(b)
    cert = HaemersCertificate(
        n=n, m=m, k=q_fac.rows, C=p_fac.conj_transpose(), D=q_fac
    )
    verify_certificate(s, cert)
    return cert


# -- classical graph round trip ---------------------------------------


def lift_graph_certificate(fm: FittingMatrix) -> HaemersCertificate:
    """Turn a unit-diagonal fitting matrix into a span certificate.

    The certified matrix puts entry B_ij of the fitting matrix on the
    (i, j) matrix unit of block (i, j), so blocks land in the graph span
    and the unit diagonal turns into the block-trace condition.  Rank is
    preserved exactly.  Nonzero-diagonal inputs must be rescaled first
    (see classical.unit_diagonal_form).
    """
    if fm.variant != "unit-diagonal":
        raise VerificationError(
            "lift needs the unit-diagonal variant; apply unit_diagonal_form first",
            kind="shape",
        )
    verify_fitting(fm)
    n = fm.graph.n
    p_fac, q_fac = rank_factorization(fm.b)
    r = q_fac.rows
    c_rows = [[ZERO] * (n * n) for _ in range(r)]
    d_rows = [[ZERO] * (n * n) for _ in range(r)]
    for t in range(r):
        for i in range(n):
            c_rows[t][i * n + i] = p_fac[i, t].conj()
            d_rows[t][i * n + i] = q_fac[t, i]
    return HaemersCertificate(
        n=n, m=n, k=r, C=ExactMatrix.from_rows(c_rows), D=ExactMatrix.from_rows(d_rows)
    )


def constructed_certificate(s: NcGraph) -> tuple[HaemersCertificate, str]:
    """The lowest-rank certificate the construction library gives for s.

    Returns the certificate and how it was made: "full-algebra" (rank 1)
    when s is all of M_n, "identity" (rank n) otherwise, or
    "fitting-lift" when s is a graph span S_G and the best fitting matrix
    of G, lifted, has lower rank.  The first candidate wins a tie.  No
    search runs; the caller verifies the result against s, which fails
    only when s lacks the identity and so has no certificate at all.
    """
    if s.is_full():
        best = full_matrix_certificate(s.n), "full-algebra"
    else:
        best = identity_certificate(s.n), "identity"
    g = s.as_graph()
    if g is not None:
        rank, fm = best_fitting_matrix(g)
        if rank < best[0].k:
            best = lift_graph_certificate(unit_diagonal_form(fm)), "fitting-lift"
    return best


def project_to_graph_certificate(
    s: NcGraph, cert: HaemersCertificate
) -> FittingMatrix:
    """Compress a certificate for a graph span back to a fitting matrix.

    For each vertex i pick a block j(i) whose diagonal carries weight at
    entry (i, i) — one exists because the diagonal blocks sum to I — and
    read the compressed matrix B''_il = B_{j(i), j(l)}[i, l].  The result
    is a nonzero-diagonal fitting matrix of rank at most rank(B).
    """
    g = s.as_graph()
    verify_certificate(s, cert)
    n, m = cert.n, cert.m
    b = cert.matrix()
    pick: list[int] = []
    for i in range(n):
        for j in range(m):
            if not b[j * n + i, j * n + i].is_zero():
                pick.append(j)
                break
        else:  # pragma: no cover - impossible once the trace check passed
            raise VerificationError(
                f"no block carries diagonal weight at vertex {i}", kind="trace"
            )
    rows = [
        [b[pick[i] * n + i, pick[l] * n + l] for l in range(n)] for i in range(n)
    ]
    fm = FittingMatrix(
        graph=g, variant="nonzero-diagonal", b=ExactMatrix.from_rows(rows)
    )
    verify_fitting(fm)
    return fm


# -- constructive transformations -------------------------------------


def _permute_columns(mat: ExactMatrix, perm: Sequence[int]) -> ExactMatrix:
    return mat.submatrix(range(mat.rows), perm)


def tensor_certificate(
    s: NcGraph,
    c1: HaemersCertificate,
    t: NcGraph,
    c2: HaemersCertificate,
) -> HaemersCertificate:
    """Certificate for the tensor span from certificates of the factors.

    B is the Kronecker product of the two certified matrices with block
    structure regrouped from (blocks x blocks) x (ambient x ambient) to
    the m1*m2 blocks of size n1*n2; the rank multiplies exactly.
    """
    r1 = verify_certificate(s, c1)
    r2 = verify_certificate(t, c2)
    n1, m1, n2, m2 = c1.n, c1.m, c2.n, c2.m
    n, m = n1 * n2, m1 * m2
    # column (i1*n1+p1, i2*n2+p2) of the plain Kronecker factor belongs at
    # block (i1, i2), inner position (p1, p2)
    perm = [0] * (m * n)
    for i1 in range(m1):
        for p1 in range(n1):
            for i2 in range(m2):
                for p2 in range(n2):
                    src = (i1 * n1 + p1) * (m2 * n2) + i2 * n2 + p2
                    dst = (i1 * m2 + i2) * n + p1 * n2 + p2
                    perm[dst] = src
    c = _permute_columns(c1.C.kron(c2.C), perm)
    d = _permute_columns(c1.D.kron(c2.D), perm)
    out = HaemersCertificate(n=n, m=m, k=c1.k * c2.k, C=c, D=d)
    rank = verify_certificate(_tensor_span(s, t), out)
    if rank != r1 * r2:  # pragma: no cover - would falsify Kronecker rank
        raise RuntimeError("tensor certificate rank is not multiplicative")
    return out


def direct_sum_certificate(
    s: NcGraph,
    c1: HaemersCertificate,
    t: NcGraph,
    c2: HaemersCertificate,
) -> HaemersCertificate:
    """Certificate for the direct-sum span; ranks add exactly.

    Both inputs are padded with zero blocks to a common block count m
    (the identity condition is untouched since padding adds nothing to
    the diagonal), then the factors are stacked so every block of the
    result is diag(B1_ij, B2_ij).
    """
    r1 = verify_certificate(s, c1)
    r2 = verify_certificate(t, c2)
    n1, n2 = c1.n, c2.n
    n = n1 + n2
    m = max(c1.m, c2.m)
    k = c1.k + c2.k

    def padded_row(factor: ExactMatrix, t_row: int, own_n: int, own_m: int, left: bool):
        row: list[GaussianRational] = []
        for i in range(m):
            blockcols: list[GaussianRational] = [ZERO] * n
            if i < own_m:
                seg = [factor[t_row, i * own_n + q] for q in range(own_n)]
                if left:
                    blockcols[:own_n] = seg
                else:
                    blockcols[n1:] = seg
            row.extend(blockcols)
        return row

    c_rows = [padded_row(c1.C, t_row, n1, c1.m, True) for t_row in range(c1.k)]
    c_rows += [padded_row(c2.C, t_row, n2, c2.m, False) for t_row in range(c2.k)]
    d_rows = [padded_row(c1.D, t_row, n1, c1.m, True) for t_row in range(c1.k)]
    d_rows += [padded_row(c2.D, t_row, n2, c2.m, False) for t_row in range(c2.k)]
    out = HaemersCertificate(
        n=n, m=m, k=k, C=ExactMatrix.from_rows(c_rows), D=ExactMatrix.from_rows(d_rows)
    )
    rank = verify_certificate(_direct_sum_span(s, t), out)
    if rank != r1 + r2:  # pragma: no cover - blocks live on disjoint coordinates
        raise RuntimeError("direct-sum certificate rank is not additive")
    return out


def conjugate_certificate(
    s: NcGraph, cert: HaemersCertificate, u: ExactMatrix
) -> HaemersCertificate:
    """Transport a certificate along a unitary change of basis.

    B' = (I_m x U)^dag B (I_m x U) certifies the conjugated span with the
    same rank.
    """
    check_unitary(u)
    verify_certificate(s, cert)
    w = ExactMatrix.identity(cert.m).kron(u)
    out = HaemersCertificate(
        n=cert.n, m=cert.m, k=cert.k, C=cert.C @ w, D=cert.D @ w
    )
    verify_certificate(conjugate_by_unitary(s, u), out)
    return out


def cohomomorphism_apply(
    kraus: Sequence[ExactMatrix],
    cert: HaemersCertificate,
    *,
    source: NcGraph,
    target: NcGraph,
) -> HaemersCertificate:
    """Pull a certificate for the target span back to the source span.

    ``kraus`` presents a channel whose operators K_a map the source space
    into the target space with sum_a K_a^dag K_a = I, and which witnesses
    source <= target: K_a^dag A K_b must land in the source span for every
    basis element A of the target span.  Both conditions are checked
    exactly (the second on span generators, reporting the violating
    triple).  The composed certificate has block count m * len(kraus)
    and rank at most rank(cert).
    """
    if not kraus:
        raise ValueError("at least one Kraus operator is required")
    n_s, n_t = source.n, target.n
    for idx, op in enumerate(kraus):
        if op.shape != (n_t, n_s):
            raise VerificationError(
                f"Kraus operator {idx} must be {n_t} x {n_s}, got {op.shape}",
                kind="kraus",
                where=idx,
            )
    total = ExactMatrix.zeros(n_s, n_s)
    for op in kraus:
        total = total + (op.conj_transpose() @ op)
    if total != ExactMatrix.identity(n_s):
        raise VerificationError(
            "Kraus operators are not trace preserving "
            "(sum of K^dag K is not the identity)",
            kind="kraus",
        )
    basis = target.basis
    for a, ka in enumerate(kraus):
        ka_h = ka.conj_transpose()
        for t_idx, mat in enumerate(basis):
            mid = ka_h @ mat
            for b_idx, kb in enumerate(kraus):
                if not source.contains(mid @ kb):
                    raise VerificationError(
                        "cohomomorphism condition fails: K_a^dag A K_b leaves "
                        f"the source span at (a, basis, b) = ({a}, {t_idx}, {b_idx})",
                        kind="cohomomorphism",
                        where=(a, t_idx, b_idx),
                    )
    verify_certificate(target, cert)
    ell = len(kraus)
    m_out = cert.m * ell

    def composed(factor: ExactMatrix) -> ExactMatrix:
        rows: list[list[GaussianRational]] = []
        for t_row in range(cert.k):
            row: list[GaussianRational] = []
            for i in range(cert.m):
                block = ExactMatrix.from_rows(
                    [[factor[t_row, i * n_t + q] for q in range(n_t)]]
                )
                for op in kraus:
                    row.extend((block @ op).row(0))
            rows.append(row)
        return ExactMatrix.from_rows(rows)

    out = HaemersCertificate(
        n=n_s, m=m_out, k=cert.k, C=composed(cert.C), D=composed(cert.D)
    )
    verify_certificate(source, out)
    return out


def homomorphism_kraus(
    vertex_map: Sequence[int], n_from: int, n_to: int
) -> list[ExactMatrix]:
    """Kraus operators |phi(a)><a| induced by a vertex map between graphs.

    Suitable for cohomomorphism_apply between two graph spans whenever
    distinct non-adjacent source vertices map to distinct non-adjacent
    image vertices (the membership check inside cohomomorphism_apply
    enforces exactly this).
    """
    if len(vertex_map) != n_from:
        raise ValueError("vertex map must assign every source vertex")
    ops = []
    for a, image in enumerate(vertex_map):
        if not 0 <= image < n_to:
            raise ValueError(f"vertex {a} maps outside the target ({image})")
        rows = [[ZERO] * n_from for _ in range(n_to)]
        rows[image][a] = ONE
        ops.append(ExactMatrix.from_rows(rows))
    return ops


def _four_square(total: int) -> list[int]:
    """Nonzero parts of an exact decomposition of total into <= 4 squares."""
    if total < 1:
        raise ValueError("need a positive integer")
    if total > 10**7:
        raise ValueError(
            "norm too large for exact square decomposition; rescale the vectors"
        )
    for x in range(isqrt(total), 0, -1):
        rest_x = total - x * x
        if rest_x == 0:
            return [x]
        for y in range(isqrt(rest_x), 0, -1):
            rest_y = rest_x - y * y
            if rest_y == 0:
                return [x, y]
            for z in range(isqrt(rest_y), 0, -1):
                rest_z = rest_y - z * z
                w = isqrt(rest_z)
                if w * w == rest_z:
                    return [x, y, z] if w == 0 else [x, y, z, w]
    raise AssertionError("unreachable: every positive integer is a 4-square sum")


def independent_witness_kraus(sys_: IndependentSystem) -> list[ExactMatrix]:
    """Kraus operators embedding the diagonal span D_l below the witness span.

    Each vector psi_a yields operators c |psi_a><a| whose squared weights
    sum to 1 / ||psi_a||^2 exactly: scaling psi_a to integer entries makes
    the norm an integer N, and a square decomposition N = sum x_t^2 gives
    rational weights L x_t / N.  Pair with cohomomorphism_apply(source =
    diagonal_system(l), target = the span the witness was verified for).
    """
    ell = sys_.size
    n = sys_.n
    ops: list[ExactMatrix] = []
    for a, psi in enumerate(sys_.vectors):
        scale = lcm(*(psi[p, 0].re.denominator for p in range(n)),
                    *(psi[p, 0].im.denominator for p in range(n)))
        norm_sq = 0
        for p in range(n):
            val = psi[p, 0]
            re = val.re * scale
            im = val.im * scale
            norm_sq += re.numerator**2 + im.numerator**2
        for part in _four_square(norm_sq):
            weight = GaussianRational(Fraction(scale * part, norm_sq))
            rows = [[ZERO] * ell for _ in range(n)]
            for p in range(n):
                rows[p][a] = psi[p, 0] * weight
            ops.append(ExactMatrix.from_rows(rows))
    return ops


# -- compression lower bound ------------------------------------------


def compression_lower_bound(
    s: NcGraph, cert: HaemersCertificate, sys_: IndependentSystem
) -> int:
    """rank of the certificate compressed onto a verified independent system.

    With U collecting the witness vectors as columns, the compression
    (I_m x U)^dag B (I_m x U) splits over the witness index, and each part
    keeps nonzero trace — so its rank sits between the witness size and
    rank(B).  Returns that rank; a violation of the sandwich would be an
    internal arithmetic error, reported as RuntimeError.
    """
    rank_b = verify_certificate(s, cert)
    if not verify_independent(s, sys_):
        raise VerificationError(
            "vector system is not independent for the span", kind="independence"
        )
    n, m, ell = cert.n, cert.m, sys_.size
    u_cols = [[sys_.vectors[j][p, 0] for j in range(ell)] for p in range(n)]
    u = ExactMatrix.from_rows(u_cols)
    w = ExactMatrix.identity(m).kron(u)
    compressed = w.conj_transpose() @ cert.matrix() @ w
    rank_c = compressed.rank()
    if not ell <= rank_c <= rank_b:  # pragma: no cover - consistency guard
        raise RuntimeError(
            f"compression sandwich violated: {ell} <= {rank_c} <= {rank_b} is false"
        )
    return rank_c


# -- trace-preserving-map form ----------------------------------------


def to_tp_map(s: NcGraph, cert: HaemersCertificate) -> TpMapCertificate:
    """Repackage a verified certificate as a trace-preserving map into M_k."""
    verify_certificate(s, cert)
    n, m = cert.n, cert.m
    e_ops = []
    f_ops = []
    for i in range(m):
        cols = range(i * n, (i + 1) * n)
        f_ops.append(cert.C.submatrix(range(cert.k), cols))
        e_ops.append(cert.D.submatrix(range(cert.k), cols))
    return TpMapCertificate(n=n, k=cert.k, E=tuple(e_ops), F=tuple(f_ops))


def from_tp_map(tp: TpMapCertificate) -> HaemersCertificate:
    """Inverse repackaging; block count = number of Kraus pairs, same k."""
    c = _hstack(tp.F)
    d = _hstack(tp.E)
    return HaemersCertificate(n=tp.n, m=len(tp.E), k=tp.k, C=c, D=d)


def _hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    rows = []
    for r in range(mats[0].rows):
        row: list[GaussianRational] = []
        for mat in mats:
            row.extend(mat.row(r))
        rows.append(row)
    return ExactMatrix.from_rows(rows)


# -- numeric search ----------------------------------------------------


def _span_projector(s: NcGraph) -> np.ndarray:
    """Float orthogonal projector onto the span, from an exact Gram inverse."""
    basis = s.basis
    nn = s.n * s.n
    v_exact = ExactMatrix.from_rows(
        [[mat.vec()[coord] for mat in basis] for coord in range(nn)]
    )
    gram = v_exact.conj_transpose() @ v_exact
    gram_inv = gram.solve(ExactMatrix.identity(s.dim))
    if gram_inv is None:  # pragma: no cover - basis rows are independent
        raise RuntimeError("span basis produced a singular Gram matrix")
    v = v_exact.to_complex()
    return v @ gram_inv.to_complex() @ v.conj().T


def _residual(
    c: np.ndarray, d: np.ndarray, q: np.ndarray, n: int, m: int
) -> float:
    b = c.conj().T @ d
    res = 0.0
    trace = -np.eye(n, dtype=complex)
    for i in range(m):
        for j in range(m):
            blk = b[i * n : (i + 1) * n, j * n : (j + 1) * n]
            res += float(np.linalg.norm(q @ blk.reshape(-1)) ** 2)
            if i == j:
                trace = trace + blk
    return res + float(np.linalg.norm(trace) ** 2)


def _als_half_step(
    fixed_blocks: list[np.ndarray],
    q: np.ndarray,
    n: int,
    m: int,
    k: int,
    left_update: bool,
) -> np.ndarray:
    """Solve one least-squares half step; returns the updated factor.

    Writing B_ij = Z_i D_j with Z_i = C_i^dag, both half steps are plain
    complex least squares: the right step holds the Z_i (passed as
    fixed_blocks, n x k) and solves for D; the left step holds the D_j
    (k x n) and solves for the Z_i, conjugate-transposed back into C.
    Rows are the span-projection residual of every block plus the
    block-trace condition.
    """
    nn = n * n
    eye_n = np.eye(n)
    blocks = np.stack(fixed_blocks)
    unk = n * k
    if left_update:  # kron(I_n, D_j^T) for every j
        coef = np.einsum("ac,jdb->jabcd", eye_n, blocks).reshape(m, nn, unk)
    else:  # kron(Z_i, I_n) for every i
        coef = np.einsum("jac,bd->jabcd", blocks, eye_n).reshape(m, nn, unk)
    top = m * m * nn  # membership rows; the last nn rows are the trace
    a_mat = np.zeros((top + nn, m * unk), dtype=complex)
    # row block (i, j) holds q @ coef of the fixed block in the column block
    # of the unknown one: Z_i from D_j on the left step, D_j from Z_i on the right
    i, j = np.indices((m, m))
    unknown, fixed = (i, j) if left_update else (j, i)
    a_mat[:top].reshape(m, m, nn, m, unk)[i, j, :, unknown, :] = (q @ coef)[fixed]
    a_mat[top:].reshape(nn, m, unk)[:] = coef.transpose(1, 0, 2)
    rhs = np.zeros(top + nn, dtype=complex)
    rhs[top:] = eye_n.reshape(-1)
    sol = np.linalg.lstsq(a_mat, rhs, rcond=None)[0].reshape(m, unk)
    if left_update:
        return np.concatenate([zi.reshape(n, k).conj().T for zi in sol], axis=1)
    return np.concatenate([dj.reshape(k, n) for dj in sol], axis=1)


def _rationalize_matrix(arr: np.ndarray, cap: int) -> ExactMatrix:
    rows = []
    for r in range(arr.shape[0]):
        row = []
        for c in range(arr.shape[1]):
            val = arr[r, c]
            row.append(
                GaussianRational(
                    rationalize(float(val.real), cap),
                    rationalize(float(val.imag), cap),
                )
            )
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def _polish_factor(
    s: NcGraph, c_exact: ExactMatrix, k: int, m: int
) -> Optional[HaemersCertificate]:
    """Given an exact C, solve the (linear) feasibility for D over Q(i)."""
    n = s.n
    mn = m * n
    ch = c_exact.conj_transpose()
    ann = s.annihilator_rows()
    rows: list[list[GaussianRational]] = []
    rhs: list[GaussianRational] = []
    nv = k * mn
    for i in range(m):
        for j in range(m):
            for a_row in ann:
                row = [ZERO] * nv
                for coord, val in a_row.items():
                    p, qq = divmod(coord, n)
                    for t in range(k):
                        col = t * mn + j * n + qq
                        row[col] = row[col] + val * ch[i * n + p, t]
                rows.append(row)
                rhs.append(ZERO)
    for p in range(n):
        for qq in range(n):
            row = [ZERO] * nv
            for i in range(m):
                for t in range(k):
                    col = t * mn + i * n + qq
                    row[col] = row[col] + ch[i * n + p, t]
            rows.append(row)
            rhs.append(ONE if p == qq else ZERO)
    a_mat = ExactMatrix.from_rows(rows)
    sol = a_mat.solve(ExactMatrix.column(rhs))
    if sol is None:
        return None
    d_rows = [[sol[t * mn + c, 0] for c in range(mn)] for t in range(k)]
    cert = HaemersCertificate(
        n=n, m=m, k=k, C=c_exact, D=ExactMatrix.from_rows(d_rows)
    )
    try:
        verify_certificate(s, cert)
    except VerificationError:  # pragma: no cover - solve enforces feasibility
        return None
    return cert


def haemers_upper_search(
    s: NcGraph,
    k: int,
    m_schedule: Optional[Sequence[int]] = None,
    budget: int = 8,
    *,
    seed: int = 0,
    m_cap: Optional[int] = None,
    iterations: int = 80,
) -> Optional[HaemersCertificate]:
    """Numeric search for a rank-k certificate; only verified output escapes.

    Alternating least squares on float factors C, D of shape k x mn:
    each half step exactly minimizes the squared violation of block
    membership (orthogonal projection residual against the span) plus the
    block-trace condition.  Near-feasible points are rounded to Q(i)
    through a denominator ladder; each rounding of C is first completed
    by an exact linear solve for D (the constraints are linear in D),
    then a plain rounding of both factors is tried.  Whatever survives
    verify_certificate is returned; everything else is discarded.
    """
    if k < 1:
        raise ValueError("rank bound k must be positive")
    n = s.n
    cap = n**4 if m_cap is None else min(m_cap, n**4)
    if m_schedule is None:
        m_schedule = [1, 2, n, n * n]
    schedule = sorted({m for m in m_schedule if 1 <= m <= cap})
    if not schedule:
        raise ValueError("empty block-count schedule after applying the cap")
    proj = _span_projector(s)
    q = np.eye(n * n) - proj
    for m in schedule:
        mn = m * n
        for restart in range(budget):
            rng = np.random.default_rng(seed + 7919 * restart + 104_729 * m)
            c = rng.standard_normal((k, mn)) + 1j * rng.standard_normal((k, mn))
            d = rng.standard_normal((k, mn)) + 1j * rng.standard_normal((k, mn))
            best = np.inf
            for _ in range(iterations):
                a_blocks = [
                    c.conj().T[i * n : (i + 1) * n, :] for i in range(m)
                ]
                d = _als_half_step(a_blocks, q, n, m, k, left_update=False)
                d_blocks = [d[:, j * n : (j + 1) * n] for j in range(m)]
                c = _als_half_step(d_blocks, q, n, m, k, left_update=True)
                res = _residual(c, d, q, n, m)
                if res < 1e-26:
                    break
                if res > best * (1 - 1e-9):
                    break
                best = min(best, res)
            if _residual(c, d, q, n, m) > 1e-10:
                continue
            for denom_cap in RATIONALIZE_DENOMINATORS:
                c_exact = _rationalize_matrix(c, denom_cap)
                cert = _polish_factor(s, c_exact, k, m)
                if cert is not None:
                    return cert
                try:
                    cert = HaemersCertificate(
                        n=n, m=m, k=k, C=c_exact, D=_rationalize_matrix(d, denom_cap)
                    )
                    verify_certificate(s, cert)
                    return cert
                except VerificationError:
                    continue
    return None


# -- lower bounds -------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundReport:
    """Best exact lower bound found, with each contribution labeled."""

    value: int
    justification: str
    contributions: tuple[tuple[int, str], ...]
    witness: Optional[IndependentSystem]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "justification": self.justification,
            "contributions": [list(c) for c in self.contributions],
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def _axis_witness(s: NcGraph) -> Optional[IndependentSystem]:
    """Largest independent system made of standard basis vectors.

    e_i and e_j are independent in S exactly when every basis element
    of the span vanishes at (i, j) and (j, i), so the best axis-aligned
    witness is a maximum independent set of the pairwise conflict graph
    — exact and cheap at these sizes.  Returns None when no pair of
    axes is independent.
    """
    n = s.n
    conflicts = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if any(a[i, j] != ZERO or a[j, i] != ZERO for a in s.basis)
    ]
    size, vertices = independence_number(Graph.from_edges(n, conflicts))
    if size < 2:
        return None
    witness = IndependentSystem.standard_basis(n, vertices)
    return witness if verify_independent(s, witness) else None


def haemers_lower(
    s: NcGraph, *, budget: int = 10, seed: int = 0
) -> LowerBoundReport:
    """Max of the exact lower bounds: 1, the proper-subspace bound, witnesses.

    Every feasible certificate has rank at least 1; at least 2 when the
    span is a proper subspace of the full matrix algebra; and at least
    the size of any verified independent vector system (via the
    compression bound).  The report labels which argument won.
    """
    contributions: list[tuple[int, str]] = [
        (1, "every certificate has rank at least 1")
    ]
    if not s.is_full():
        contributions.append(
            (2, "proper subspace of the full matrix algebra")
        )
    witness = _axis_witness(s)
    start = 2 if witness is None else witness.size + 1
    for target in range(start, s.n + 1):
        found = alpha_lower_search(s, target, budget=budget, seed=seed)
        if found is None:
            break
        witness = found
    if witness is not None:
        contributions.append(
            (witness.size, f"verified independent vector system of size {witness.size}")
        )
    value, justification = max(contributions, key=lambda c: c[0])
    return LowerBoundReport(
        value=value,
        justification=justification,
        contributions=tuple(contributions),
        witness=witness,
    )


# -- exact decision at tiny scale --------------------------------------


@dataclass(frozen=True)
class ExactDecision:
    """Outcome of the polynomial-ideal feasibility decision at fixed (k, m).

    status is one of "infeasible" (exact, certified by cofactors inside
    the engine result), "feasible" (comes with a verified certificate),
    "unknown-feasible" (a common root exists but no exact certificate
    was extracted), or "unknown" (engine budget exhausted).
    """

    status: str
    certificate: Optional[HaemersCertificate]
    engine: IdealDecision


def haemers_exact_decide(
    s: NcGraph,
    k: int,
    m: int,
    *,
    encoding: str = "factor",
    degree_cap: int = DEFAULT_DEGREE_CAP,
    time_budget: float = DEFAULT_TIME_BUDGET,
    search_budget: int = 4,
    seed: int = 0,
) -> ExactDecision:
    """Decide rank-k feasibility at block count m by Groebner completion.

    Infeasibility is exact: the engine returns cofactors expressing 1 in
    the constraint ideal, re-checked here independently.  A finished
    completion without the constant proves a common complex root exists;
    the numeric search then tries to extract a verified certificate, and
    honesty demands "unknown-feasible" when it cannot.
    """
    if not 1 <= m <= s.n**4:
        raise ValueError(f"block count m = {m} must lie in [1, n^4 = {s.n ** 4}]")
    nvars = 4 * k * m * s.n
    if nvars > EXACT_DECIDE_VAR_GUIDELINE:
        warnings.warn(
            f"{nvars} real variables exceeds the guideline of "
            f"{EXACT_DECIDE_VAR_GUIDELINE}; expect timeouts",
            stacklevel=2,
        )
    system = encode_rank_feasibility(s, k, m, encoding=encoding)
    decision = buchberger(
        system.polynomials, degree_cap=degree_cap, time_budget=time_budget
    )
    if decision.status == "no-common-root":
        if not check_cofactors(system.polynomials, decision.cofactors):
            raise RuntimeError(
                "engine emitted an invalid infeasibility certificate"
            )  # pragma: no cover - buchberger re-checks internally
        return ExactDecision("infeasible", None, decision)
    if decision.status == "timeout":
        return ExactDecision("unknown", None, decision)
    cert = haemers_upper_search(
        s, k, m_schedule=[m], budget=search_budget, seed=seed
    )
    if cert is not None:
        return ExactDecision("feasible", cert, decision)
    return ExactDecision("unknown-feasible", None, decision)
