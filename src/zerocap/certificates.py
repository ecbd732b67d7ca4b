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
decision procedure backed by the groebner module.  ``haemers_bound``
chains these into the two-sided bound on H(S).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .classical import (
    FittingMatrix,
    best_fitting_matrix,
    check_fitting,
    unit_diagonal_form,
)
from .graphs import DEFAULT_VERTEX_CAP
from .exactlinalg import (
    ExactMatrix,
    GaussianRational,
    IntegerRow,
    ONE,
    column_blocks,
    hstack,
    require_int,
    require_list,
    rank_factorization,
    reduce_row,
)
from .groebner import (
    DEFAULT_TIME_BUDGET,
    IdealDecision,
    buchberger,
    check_cofactors,
    encode_rank_feasibility,
    factor_variable_count,
)
from .independence import IndependentSystem, alpha_lower_search, axis_witness, verify_independent
from .ncgraph import NcGraph, QuantumChannel, conjugate_by_unitary
from .ncgraph import direct_sum_nc as _direct_sum_span
from .ncgraph import tensor as _tensor_span

#: Soft ceiling on the real-variable count accepted by the exact decider.
EXACT_DECIDE_VAR_GUIDELINE = 24

#: Settings no caller changes: the numerator bound of random_certificate's
#: coefficients, alpha_lower_search restarts per target size in haemers_lower,
#: haemers_exact_decide's restarts.
RANDOM_COEFF_MAGNITUDE = 3
LOWER_SEARCH_BUDGET = 10
DECIDE_SEARCH_BUDGET = 4
#: Default restarts per (k, m) of haemers_upper_search, haemers_bound, nc haemers.
DEFAULT_SEARCH_BUDGET = 8


class VerificationError(ValueError):
    """A certificate failed an exact check.

    ``kind`` is a stable machine-readable code ("block-membership",
    "trace", "rank", "factor-mismatch", "shape", "empty-span",
    "cohomomorphism", "independence"); ``where`` locates the violation
    when one index makes sense (e.g. a block pair).
    """

    def __init__(self, message: str, *, kind: str = "invalid", where=None):
        super().__init__(message)
        self.kind = kind
        self.where = where


def max_block_count(n: int) -> int:
    """The sanity cap n^4 on the block count m of a certificate in M_n."""
    return n**4


# -- certificate types ------------------------------------------------


@dataclass(frozen=True)
class HaemersCertificate:
    """Exact witness that the rank bound of some span is at most k.

    B = C^dag D is an mn x mn matrix viewed as m x m blocks of size n.
    Each k x mn factor holds m blocks of size k x n side by side: block j
    is columns j*n ... (j+1)*n - 1, and block (i, j) of B is C_i^dag D_j.
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
        cap = max_block_count(self.n)
        if self.m > cap:
            raise ValueError(f"block count m = {self.m} exceeds the sanity cap n^4 = {cap}")
        want = (self.k, self.m * self.n)
        if self.C.shape != want or self.D.shape != want:
            raise ValueError(
                f"factors must be {want[0]} x {want[1]}, "
                f"got C {self.C.shape} and D {self.D.shape}"
            )

    def matrix(self) -> ExactMatrix:
        """The certified matrix B = C^dag D."""
        return self.C.conj_transpose() @ self.D

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
    # C = P Q with P the pivot columns of C and Q of full row rank, so
    # C^dag = Q^dag P^dag with Q^dag injective: rank(C^dag D) = rank(P^dag D),
    # and P^dag D has at most k rows.
    return (rank_factorization(c)[0].H @ d).rank()


def verify_certificate(s: NcGraph, cert: HaemersCertificate) -> int:
    """Exactly check a certificate against a span; return rank(B).

    Checks, over Q(i) with no tolerances: every block of B = C^dag D
    lies in s, the diagonal blocks sum to the identity, and
    rank(B) <= k, reading B once as one Z[i] row per block.  Raises
    VerificationError naming the first violation, blocks in row-major order.
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
    b, den = cert.matrix().numerators()
    # blocks[i * m + j] holds block (i, j) of B, times den
    blocks: list[IntegerRow] = [{} for _ in range(m * m)]
    for idx, x in b.items():
        (i, p), (j, q) = (divmod(r, n) for r in divmod(idx, m * n))
        blocks[i * m + j][p * n + q] = x
    for idx, row in enumerate(blocks):
        if reduce_row(row, s.integer_rows, s.scale):
            i, j = divmod(idx, m)
            raise VerificationError(
                f"block ({i}, {j}) of C^dag D lies outside the span",
                kind="block-membership",
                where=(i, j),
            )
    total = ExactMatrix.zeros(n, n)
    for i in range(m):
        total = total + ExactMatrix.from_numerators(n, n, blocks[i * m + i], den)
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

    C^dag C is PSD for every C, so the one check beyond verify_certificate
    is C = D.  The PSD feasible region sits inside the general one, so the
    value also upper-bounds the plain rank bound; returns rank(B).
    """
    if cert.C != cert.D:
        raise VerificationError(
            "positive certificate requires identical factors C = D",
            kind="factor-mismatch",
        )
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
    c = ExactMatrix.from_nonzeros(1, n * n, {i * n + i: ONE for i in range(n)})
    return HaemersCertificate(n=n, m=n, k=1, C=c, D=c)


def random_certificate(s: NcGraph, m: int, rng) -> HaemersCertificate:
    """A random verified certificate with m blocks drawn from the span.

    Off-diagonal blocks are random span elements with small Gaussian-rational
    coefficients; the diagonal is corrected by an equal share of
    (sum of diagonals - I), which stays inside the span because the span
    contains the identity.  k is set to the exact rank, so the result is
    tight by construction and always verifies.  rng is a numpy Generator.
    """
    if not s.contains_identity:
        raise ValueError("random certificates need the identity inside the span")
    n = s.n
    basis = s.basis

    def coeff() -> GaussianRational:
        mag = RANDOM_COEFF_MAGNITUDE
        return GaussianRational(
            Fraction(int(rng.integers(-mag, mag + 1)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-mag, mag + 1)), int(rng.integers(1, 4))),
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
    excess = (total - ExactMatrix.identity(n)).scale(Fraction(1, m))
    for i in range(m):
        blocks[i][i] = blocks[i][i] - excess

    b = ExactMatrix.from_rows(
        [sum((blk.row(p) for blk in blocks[i]), ()) for i in range(m) for p in range(n)]
    )
    p_fac, q_fac = rank_factorization(b)
    cert = HaemersCertificate(
        n=n, m=m, k=q_fac.rows, C=p_fac.conj_transpose(), D=q_fac
    )
    verify_certificate(s, cert)
    return cert


# -- classical graph round trip ---------------------------------------


def lift_graph_certificate(fm: FittingMatrix) -> HaemersCertificate:
    """Turn a fitting matrix into a span certificate.

    A nonzero-diagonal input is first row-scaled to unit diagonal
    (classical.unit_diagonal_form), which keeps its rank.  The certified
    matrix puts entry B_ij of the fitting matrix on the (i, j) matrix unit
    of block (i, j), so blocks land in the graph span and the unit diagonal
    turns into the block-trace condition.  Rank is preserved exactly.
    """
    check_fitting(fm)
    return _lifted(fm.graph.n, *rank_factorization(unit_diagonal_form(fm).b))


def _lifted(n: int, p_fac: ExactMatrix, q_fac: ExactMatrix) -> HaemersCertificate:
    """The lift of a unit-diagonal n x n fitting matrix factored as p_fac @ q_fac."""
    # e moves entry i of a row to column i of block i
    e = ExactMatrix.from_numerators(n, n * n, {i * (n * n + n + 1): (1, 0) for i in range(n)})
    return HaemersCertificate(n=n, m=n, k=q_fac.rows, C=p_fac.H @ e, D=q_fac @ e)


def constructed_certificate(s: NcGraph) -> tuple[HaemersCertificate, str]:
    """The lowest-rank certificate the construction library gives for s.

    Returns the certificate and how it was made: "full-algebra" (rank 1)
    when s is all of M_n, "identity" (rank n) otherwise, or
    "fitting-lift" when s is a graph span S_G and the best fitting matrix
    of G, lifted, has lower rank.  The first candidate wins a tie.  The
    fitting matrix is lifted only when its rank wins.  No search runs;
    the caller verifies the result against s, which fails only when s
    lacks the identity and so has no certificate at all.
    """
    if s.is_full():
        best = full_matrix_certificate(s.n), "full-algebra"
    else:
        best = identity_certificate(s.n), "identity"
    g = s.as_graph()
    if g is not None:
        p_fac, q_fac = rank_factorization(unit_diagonal_form(best_fitting_matrix(g)).b)
        if q_fac.rows < best[0].k:
            best = _lifted(s.n, p_fac, q_fac), "fitting-lift"
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
    if g is None:
        raise ValueError("span is not a graph span")
    verify_certificate(s, cert)
    n, b = cert.n, cert.matrix()
    nz, mn = b.numerators()[0], cert.m * n
    # row jn + i of B for the first block j with B[jn + i, jn + i] != 0
    pick = [next(j * n + i for j in range(cert.m) if (j * n + i) * (mn + 1) in nz)
            for i in range(n)]
    fm = FittingMatrix(graph=g, variant="nonzero-diagonal", b=b.submatrix(pick, pick))
    check_fitting(fm)
    return fm


# -- constructive transformations -------------------------------------


def tensor_certificate(
    s: NcGraph,
    c1: HaemersCertificate,
    t: NcGraph,
    c2: HaemersCertificate,
) -> HaemersCertificate:
    """Certificate for the tensor span from certificates of the factors.

    Block (i1, i2) of each new factor is the Kronecker product of block
    i1 and block i2 of the old ones, so block ((i1, i2), (j1, j2)) of B
    is B1_{i1 j1} x B2_{i2 j2}; the rank multiplies exactly.
    """
    r1 = verify_certificate(s, c1)
    r2 = verify_certificate(t, c2)
    n1, n2 = c1.n, c2.n

    def kron(f1: ExactMatrix, f2: ExactMatrix) -> ExactMatrix:
        blocks2 = column_blocks(f2, n2)
        return hstack([a.kron(b) for a in column_blocks(f1, n1) for b in blocks2])

    out = HaemersCertificate(
        n=n1 * n2, m=c1.m * c2.m, k=c1.k * c2.k, C=kron(c1.C, c2.C), D=kron(c1.D, c2.D)
    )
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
    m = max(c1.m, c2.m)

    def padded(c: HaemersCertificate, factor: ExactMatrix) -> list[ExactMatrix]:
        return column_blocks(factor, c.n) + [ExactMatrix.zeros(c.k, c.n)] * (m - c.m)

    def stacked(f1: ExactMatrix, f2: ExactMatrix) -> ExactMatrix:
        pairs = zip(padded(c1, f1), padded(c2, f2))
        return hstack([a.direct_sum(b) for a, b in pairs])

    out = HaemersCertificate(
        n=c1.n + c2.n, m=m, k=c1.k + c2.k, C=stacked(c1.C, c2.C), D=stacked(c1.D, c2.D)
    )
    rank = verify_certificate(_direct_sum_span(s, t), out)
    if rank != r1 + r2:  # pragma: no cover - blocks live on disjoint coordinates
        raise RuntimeError("direct-sum certificate rank is not additive")
    return out


def conjugate_certificate(
    s: NcGraph, cert: HaemersCertificate, u: ExactMatrix
) -> HaemersCertificate:
    """Transport a certificate along a unitary change of basis.

    The one-operator channel [U] of cohomomorphism_apply pulls it back to
    U^dag s U with the same block count and rank: F_i becomes F_i U.
    """
    target = conjugate_by_unitary(s, u)  # checks that u is an n x n unitary
    return cohomomorphism_apply([u], cert, source=target, target=s)


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
    basis element A of the target span.  QuantumChannel checks the Kraus
    family (ValueError); the condition is checked exactly on span
    generators, reporting the violating triple.  Unitary conjugation is
    the one-operator case (conjugate_certificate).  The composed
    certificate has block count m * len(kraus) and rank at most rank(cert).
    """
    n_out, n_in = kraus[0].shape if kraus else (target.n, source.n)
    if (n_in, n_out) != (source.n, target.n):
        raise ValueError(f"channel maps M_{n_in} -> M_{n_out}, "
                         f"but source is M_{source.n} and target M_{target.n}")
    QuantumChannel(source.n, target.n, tuple(kraus))
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

    def composed(factor: ExactMatrix) -> ExactMatrix:
        return hstack([blk @ op for blk in column_blocks(factor, target.n) for op in kraus])

    out = HaemersCertificate(
        n=source.n, m=cert.m * len(kraus), k=cert.k, C=composed(cert.C), D=composed(cert.D)
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
        ops.append(ExactMatrix.from_nonzeros(n_to, n_from, {image * n_from + a: ONE}))
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
    ops: list[ExactMatrix] = []
    for a, psi in enumerate(sys_.vectors):
        ints, _ = psi.numerators()  # L psi_a, with N = ||L psi_a||^2
        norm_sq = sum(re * re + im * im for re, im in ints.values())
        for part in _four_square(norm_sq):
            entries = {p * ell + a: (re * part, im * part) for p, (re, im) in ints.items()}
            ops.append(ExactMatrix.from_numerators(sys_.n, ell, entries, norm_sq))
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
    ell = sys_.size
    w = ExactMatrix.identity(cert.m).kron(hstack(sys_.vectors))
    rank_c = _product_rank(cert.C @ w, cert.D @ w)
    if not ell <= rank_c <= rank_b:  # pragma: no cover - consistency guard
        raise RuntimeError(
            f"compression sandwich violated: {ell} <= {rank_c} <= {rank_b} is false"
        )
    return rank_c


# -- trace-preserving-map form ----------------------------------------


def to_tp_map(s: NcGraph, cert: HaemersCertificate) -> TpMapCertificate:
    """Repackage a verified certificate as a trace-preserving map into M_k."""
    verify_certificate(s, cert)
    f_ops, e_ops = column_blocks(cert.C, cert.n), column_blocks(cert.D, cert.n)
    return TpMapCertificate(n=cert.n, k=cert.k, E=tuple(e_ops), F=tuple(f_ops))


def from_tp_map(tp: TpMapCertificate) -> HaemersCertificate:
    """Inverse repackaging; block count = number of Kraus pairs, same k."""
    c = hstack(tp.F)
    d = hstack(tp.E)
    return HaemersCertificate(n=tp.n, m=len(tp.E), k=tp.k, C=c, D=d)


# -- numeric search ----------------------------------------------------


def block_count_schedule(
    n: int, k: int, m_schedule: Optional[Sequence[int]] = None
) -> list[int]:
    """The block counts a rank-k search in M_n runs, ascending.

    m_schedule (default 1, 2, n, n^2) is cut to the sanity cap [1, n^4];
    ValueError when none is left.  Then what a proof rules out goes, so
    every m returned lies in [ceil(n/k), kn], and none may be left:

    - m with m * k < n is dropped: the diagonal blocks B_ii = C_i^dag D_i
      have rank at most k and sum to I_n, so n <= m * k.
    - m > kn is replaced by kn, which loses no certificate.  Let U =
      span{C_i} and V = span{D_j} in the k x n matrices.  Every X^dag Y with
      X in U and Y in V is a combination of the blocks C_i^dag D_j, so it
      lies in the span.  The trace condition sum_i C_i^dag D_i = I_n depends
      only on T = sum_i conj(C_i) (x) D_i, whose tensor rank r is at most
      dim U <= kn.  So T = sum_{a <= r} conj(C'_a) (x) D'_a with C'_a in U
      and D'_a in V, and the r pairs (C'_a, D'_a) form a rank-k certificate
      that zero blocks pad to kn.
    """
    if m_schedule is None:
        m_schedule = [1, 2, n, n * n]
    capped = [m for m in m_schedule if 1 <= m <= max_block_count(n)]
    if not capped:
        raise ValueError("empty block-count schedule after applying the cap")
    return sorted({min(m, k * n) for m in capped if m * k >= n})


def haemers_upper_search(
    s: NcGraph,
    k: int,
    m_schedule: Optional[Sequence[int]] = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
    *,
    seed: int = 0,
) -> Optional[HaemersCertificate]:
    """Numeric search for a rank-k certificate; only verified output escapes.

    block_count_schedule(n, k, m_schedule) gives the block counts searched,
    each in [ceil(n/k), kn]: the others carry no rank-k certificate that kn
    blocks do not.  When none is left the answer is None, a proof of
    absence, and no float work starts, so numpy is not loaded.

    For each remaining block count m, up to ``budget`` restarts run
    alternating least squares on float factors C, D of shape k x mn.  Each
    half step exactly minimizes the squared violation of block membership
    (orthogonal projection residual against the span) plus the block-trace
    condition, by solving its normal equations in closed form: an
    mkn x mkn Hermitian system kron(I_m, G) + (Z_f^dag Z_g) (x) I_n built
    from the fixed factor's blocks (see search._als_half_step), never the tall
    (m^2 n^2 + n^2)-row least-squares matrix.  A singular system gets its
    minimum-norm solution.

    The restarts of one m run together as a stacked batch, search.ALS_CHUNK
    at a time, so peak memory does not grow with the budget.  Each restart
    keeps its own seed, start point and stopping rule (residual below 1e-26,
    no relative progress of 1e-9, or search.ALS_ITERATIONS sweeps) and
    leaves the batch when it stops.  After a chunk, the near-feasible restarts are
    rounded to Q(i) in restart order through a denominator ladder, and each
    rounding of C is completed by an exact linear solve for D of
    s.certificate_conditions(m), which are linear in D.  A rounded D could
    only verify by solving that same system, so D is never rounded itself.
    The first solvable rounding is the answer a restart-by-restart loop
    gives; everything else is discarded.  It is checked here, once, by
    verify_certificate before it is returned: VerificationError if it fails.
    """
    if k < 1:
        raise ValueError("rank bound k must be positive")
    if budget < 1:
        raise ValueError(f"restart budget must be positive, got {budget}")
    schedule = block_count_schedule(s.n, k, m_schedule)
    if not schedule:
        return None
    from . import search
    cert = search.find_certificate(s, k, schedule, budget, seed)
    if cert is not None:
        verify_certificate(s, cert)
    return cert


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


def haemers_lower(s: NcGraph, *, seed: int = 0) -> LowerBoundReport:
    """Max of the exact lower bounds: 1, the proper-subspace bound, witnesses.

    Every feasible certificate has rank at least 1; at least 2 when the
    span is a proper subspace of the full matrix algebra; and at least
    the size of any verified independent vector system (via the
    compression bound).  The report labels which argument won.  On a graph
    span the axis witness is alpha(G), so only other spans search past it,
    and alpha_lower_search answers a target of n without searching when the
    span is not commutative or has dimension above n, where n independent
    vectors cannot exist; above graphs.DEFAULT_VERTEX_CAP no witness is
    sought, and a contribution of 0 says so.
    """
    contributions: list[tuple[int, str]] = [
        (1, "every certificate has rank at least 1")
    ]
    if not s.is_full():
        contributions.append(
            (2, "proper subspace of the full matrix algebra")
        )
    witness = None
    if s.n > DEFAULT_VERTEX_CAP:
        contributions.append((0, f"independent vector systems not searched: n = {s.n}"
                                 f" exceeds the vertex cap {DEFAULT_VERTEX_CAP}"))
    else:
        witness = axis_witness(s)
        if witness is not None and witness.size < 2:
            witness = None
        if s.as_graph() is None:
            start = 2 if witness is None else witness.size + 1
            for target in range(start, s.n + 1):
                found = alpha_lower_search(s, target, budget=LOWER_SEARCH_BUDGET, seed=seed)
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


# -- exact decision at tiny scale, and the two-sided bound -------------


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
    time_budget: float = DEFAULT_TIME_BUDGET,
    seed: int = 0,
) -> ExactDecision:
    """Decide rank-k feasibility at block count m by Groebner completion.

    Infeasibility is exact: the engine returns cofactors expressing 1 in
    the constraint ideal, re-checked here independently.  A finished
    completion without the constant proves a common complex root exists;
    the numeric search then tries to extract a verified certificate, and
    honesty demands "unknown-feasible" when it cannot.
    """
    cap = max_block_count(s.n)
    if not 1 <= m <= cap:
        raise ValueError(f"block count m = {m} must lie in [1, n^4 = {cap}]")
    nvars = factor_variable_count(s.n, k, m)
    if nvars > EXACT_DECIDE_VAR_GUIDELINE:
        warnings.warn(
            f"{nvars} real variables exceeds the guideline of "
            f"{EXACT_DECIDE_VAR_GUIDELINE}; expect timeouts",
            stacklevel=2,
        )
    system = encode_rank_feasibility(s, k, m, encoding=encoding)
    decision = buchberger(system.polynomials, time_budget=time_budget)
    if decision.status == "no-common-root":
        if not check_cofactors(system.polynomials, decision.cofactors):
            raise RuntimeError(
                "engine emitted an invalid infeasibility certificate"
            )  # pragma: no cover - the only re-check: buchberger never runs one
        return ExactDecision("infeasible", None, decision)
    if decision.status == "timeout":
        return ExactDecision("unknown", None, decision)
    cert = haemers_upper_search(
        s, k, m_schedule=[m], budget=DECIDE_SEARCH_BUDGET, seed=seed
    )
    if cert is not None:
        return ExactDecision("feasible", cert, decision)
    return ExactDecision("unknown-feasible", None, decision)


def haemers_bound(
    s: NcGraph,
    *,
    k_max: Optional[int] = None,
    m_schedule: Optional[Sequence[int]] = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
) -> tuple[LowerBoundReport, HaemersCertificate, str]:
    """Bound H(s) from both sides: (lower report, certificate, method).

    The lower report is haemers_lower's.  The upper bound is constructed
    before it is searched: the lowest-rank of the full-algebra certificate
    (when s is all of M_n), the identity, and for a graph span the lifted
    best fitting matrix.  The float search (haemers_upper_search over
    m_schedule with ``budget`` restarts) then runs only for k from the
    lower bound up to min(k_max, that rank - 1), k_max defaulting to n, and
    for each k at the block counts block_count_schedule(n, k, m_schedule),
    so the default schedule 1, 2, n, n^2 searches 1, 2, n, kn at most;
    its first certificate wins.  The method names what gave the upper bound:
    "search", "fitting-lift", "identity" or "full-algebra".

    The returned certificate has passed verify_certificate once: here when
    constructed, in haemers_upper_search when searched.  ValueError, before
    any other work, when s lacks the identity: the diagonal blocks of a
    certificate sum to I inside s, so none exists.  ValueError too when the
    schedule has no usable m.
    """
    if not s.contains_identity:
        raise ValueError("the span lacks the identity, so it has no certificate")
    block_count_schedule(s.n, 1, m_schedule)  # the cap check, before any work
    lower = haemers_lower(s, seed=seed)
    k_max = s.n if k_max is None else k_max
    # construct first; the search can only help below the constructed rank
    cert, method = constructed_certificate(s)
    rank = verify_certificate(s, cert)
    for k in range(lower.value, min(k_max, rank - 1) + 1):
        found = haemers_upper_search(
            s,
            k,
            m_schedule=m_schedule,
            budget=budget,
            seed=seed,
        )
        if found is not None:  # verified by haemers_upper_search
            cert, method = found, "search"
            break
    return lower, cert, method
