"""Polynomial ideals over Q: Buchberger with re-verifiable unit certificates.

The engine answers one question soundly: does a polynomial system have a
common complex root?  If Buchberger's algorithm derives a nonzero constant,
the ideal is (1) and there is no common root; the derivation is tracked as
an explicit cofactor combination sum_i h_i f_i = 1 that anyone can re-check
by plain polynomial arithmetic.  If the basis completes without a constant,
the ideal is proper, hence (Nullstellensatz) a common root exists; the
label "has-common-root-or-unknown" marks that the root itself is not
constructed — callers wanting a concrete point must extract one separately
(the certificate search does exactly that).  Resource caps give "timeout".

Rank feasibility of the block-matrix programs in this package is encoded
polynomially by encode_rank_feasibility: complex variables are split into
real and imaginary parts so the ideal lives over Q.  In the factor
encoding, a solution of the split system yields B = E * F with E, F free
complex factor matrices of inner dimension k, so feasibility of the split
system over C is equivalent to feasibility of the original program; the
no-common-root verdict is therefore an exact infeasibility proof.
"""

from __future__ import annotations

import heapq
import math
import re as _re
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactlinalg import GaussianRational, ONE, ZERO, as_scalar
from .ncgraph import NcGraph

Monomial = tuple[int, ...]

DEFAULT_DEGREE_CAP = 8
DEFAULT_TIME_BUDGET = 60.0


# -- monomials ---------------------------------------------------------


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def degrevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


# -- polynomials over Q -------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[Monomial, Fraction]] = None):
        self.nvars = nvars
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = Fraction(c)

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        m = [0] * nvars
        m[i] = 1
        return Polynomial(nvars, {tuple(m): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def term_mul(self, mon: Monomial, coeff: Fraction) -> "Polynomial":
        if coeff == 0:
            return Polynomial(self.nvars)
        return Polynomial(
            self.nvars, {mon_mul(m, mon): c * coeff for m, c in self.terms.items()}
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.nvars, {m: c * v for m, v in self.terms.items()})

    def leading(self) -> tuple[Monomial, Fraction]:
        mon = max(self.terms, key=degrevlex_key)
        return mon, self.terms[mon]

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- text format: "2*x1^2*x3 - 1/2*x2 + 1" --------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, key=degrevlex_key, reverse=True):
            c = self.terms[mon]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mon)
                if e
            ]
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    @staticmethod
    def from_text(text: str, nvars: int) -> "Polynomial":
        s = text.replace(" ", "")
        if not s or s == "0":
            return Polynomial(nvars)
        terms: dict[Monomial, Fraction] = {}
        token = _re.compile(
            r"(?P<sign>[+-]?)(?P<coeff>\d+(?:/\d+)?)?"
            r"(?P<vars>(?:\*?x\d+(?:\^\d+)?)*)"
        )
        pos = 0
        while pos < len(s):
            m = token.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at ...{s[pos:]!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if m.group("sign") == "-":
                coeff = -coeff
            mon = [0] * nvars
            for vm in _re.finditer(r"x(\d+)(?:\^(\d+))?", m.group("vars")):
                idx = int(vm.group(1)) - 1
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable x{idx + 1} out of range")
                mon[idx] += int(vm.group(2) or 1)
            key = tuple(mon)
            terms[key] = terms.get(key, Fraction(0)) + coeff
            pos = m.end()
        return Polynomial(nvars, terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def system_to_text(polys: Sequence[Polynomial]) -> str:
    return "\n".join(p.to_text() for p in polys) + "\n"


def system_from_text(text: str, nvars: int) -> list[Polynomial]:
    return [
        Polynomial.from_text(line, nvars)
        for line in text.splitlines()
        if line.strip()
    ]


# -- complex-coefficient working polynomials ----------------------------


class CPoly:
    """Polynomial with Q(i) coefficients in real variables; split() emits
    the two Q-coefficient polynomials (real and imaginary part)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[Monomial, GaussianRational]] = None):
        self.nvars = nvars
        self.terms: dict[Monomial, GaussianRational] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def constant(nvars: int, c) -> "CPoly":
        c = as_scalar(c)
        return CPoly(nvars, {(0,) * nvars: c} if not c.is_zero() else {})

    @staticmethod
    def variable(nvars: int, i: int, coeff=ONE) -> "CPoly":
        m = [0] * nvars
        m[i] = 1
        return CPoly(nvars, {tuple(m): as_scalar(coeff)})

    def __add__(self, other: "CPoly") -> "CPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return CPoly(self.nvars, out)

    def __sub__(self, other: "CPoly") -> "CPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) - c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return CPoly(self.nvars, out)

    def __mul__(self, other: "CPoly") -> "CPoly":
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                s = out.get(m, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return CPoly(self.nvars, out)

    def scale(self, c) -> "CPoly":
        c = as_scalar(c)
        return CPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def split(self) -> tuple[Polynomial, Polynomial]:
        re_terms = {m: c.re for m, c in self.terms.items() if c.re != 0}
        im_terms = {m: c.im for m, c in self.terms.items() if c.im != 0}
        return Polynomial(self.nvars, re_terms), Polynomial(self.nvars, im_terms)


# -- Buchberger ----------------------------------------------------------


@dataclass
class IdealDecision:
    """Outcome of a common-root decision.

    status: "no-common-root" | "has-common-root-or-unknown" | "timeout".
    When status is "no-common-root", cofactors is a list parallel to the
    input generators with sum_i cofactors[i] * gens[i] == 1 exactly; use
    check_cofactors to re-verify.
    """

    status: str
    basis: list[Polynomial]
    cofactors: Optional[list[Polynomial]]
    pairs_processed: int
    seconds: float


def check_cofactors(gens: Sequence[Polynomial], cofactors: Sequence[Polynomial]) -> bool:
    if len(gens) != len(cofactors):
        return False
    nvars = gens[0].nvars if gens else 0
    total = Polynomial(nvars)
    for g, h in zip(gens, cofactors):
        total = total + g * h
    return total == Polynomial.constant(nvars, 1)


def _reduce_full(
    work: Polynomial,
    rep: list[Polynomial],
    basis: list[tuple[Polynomial, list[Polynomial]]],
) -> tuple[Polynomial, list[Polynomial]]:
    """Full normal form of work modulo basis, updating its representation."""
    remainder: dict[Monomial, Fraction] = {}
    terms = dict(work.terms)
    nvars = work.nvars
    lead_cache = [g.leading() for g, _ in basis]
    while terms:
        mon = max(terms, key=degrevlex_key)
        coeff = terms[mon]
        hit = None
        for idx, (lm, lc) in enumerate(lead_cache):
            q = mon_div(mon, lm)
            if q is not None:
                hit = (idx, q, coeff / lc)
                break
        if hit is None:
            remainder[mon] = coeff
            del terms[mon]
            continue
        idx, q, factor = hit
        g, g_rep = basis[idx]
        for m, c in g.terms.items():
            mm = mon_mul(m, q)
            s = terms.get(mm, Fraction(0)) - c * factor
            if s:
                terms[mm] = s
            else:
                terms.pop(mm, None)
        for gi in range(len(rep)):
            if not g_rep[gi].is_zero():
                rep[gi] = rep[gi] - g_rep[gi].term_mul(q, factor)
    return Polynomial(nvars, remainder), rep


def buchberger(
    gens: Sequence[Polynomial],
    degree_cap: int = DEFAULT_DEGREE_CAP,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> IdealDecision:
    """Decide whether gens have a common complex root, with certificates.

    Normal pair selection in degrevlex: pairs come off a heap keyed on
    (degrevlex key of lcm, (i, j)), so the smallest lcm goes first and
    ties break on the index pair.  Product and chain criteria, cofactor
    tracking throughout.  degree_cap bounds the degree of any new basis
    polynomial and time_budget the wall clock; exceeding either yields
    status "timeout", which decides nothing.
    """
    t0 = time.monotonic()
    ngens = len(gens)
    nvars = gens[0].nvars if gens else 0
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("generators disagree on variable count")

    def unit_rep(i: int) -> list[Polynomial]:
        return [
            Polynomial.constant(nvars, 1) if j == i else Polynomial(nvars)
            for j in range(ngens)
        ]

    def decision(status, basis, cof, pairs):
        return IdealDecision(
            status=status,
            basis=[g for g, _ in basis],
            cofactors=cof,
            pairs_processed=pairs,
            seconds=time.monotonic() - t0,
        )

    basis: list[tuple[Polynomial, list[Polynomial]]] = []
    lms: list[Monomial] = []
    pairs_done = 0

    def add_to_basis(p: Polynomial, rep: list[Polynomial]):
        """Returns cofactors if p is a nonzero constant, else extends basis."""
        if p.is_zero():
            return None
        if p.is_constant():
            inv = 1 / p.constant_value()
            return [r.scale(inv) for r in rep]
        lm, lc = p.leading()
        inv = 1 / lc
        basis.append((p.scale(inv), [r.scale(inv) for r in rep]))
        lms.append(lm)
        return None

    # seed with normal forms of the generators
    for i, g in enumerate(gens):
        r, rep = _reduce_full(g, unit_rep(i), basis)
        cof = add_to_basis(r, rep)
        if cof is not None:
            return decision("no-common-root", basis, cof, pairs_done)

    # leading monomials never change once in the basis, so each pair's
    # heap entry is computed once, when the pair is created
    pending = [
        (degrevlex_key(mon_lcm(lms[i], lms[j])), (i, j))
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    ]
    heapq.heapify(pending)
    done: set[tuple[int, int]] = set()

    while pending:
        if time.monotonic() - t0 > time_budget:
            return decision("timeout", basis, None, pairs_done)
        pair = heapq.heappop(pending)[1]
        done.add(pair)
        i, j = pair
        pairs_done += 1
        li, lj = lms[i], lms[j]
        l = mon_lcm(li, lj)
        # product criterion: coprime leading monomials reduce to zero
        if l == mon_mul(li, lj):
            continue
        # chain criterion (Buchberger's second): a third element whose
        # leading monomial divides the lcm, both side pairs already handled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mon_div(l, lms[k]) is not None:
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    skip = True
                    break
        if skip:
            continue
        gi, repi = basis[i]
        gj, repj = basis[j]
        ci = gi.leading()[1]
        cj = gj.leading()[1]
        qi = mon_div(l, li)
        qj = mon_div(l, lj)
        spoly = gi.term_mul(qi, 1 / ci) - gj.term_mul(qj, 1 / cj)
        srep = [
            a.term_mul(qi, Fraction(1) / ci) - b.term_mul(qj, Fraction(1) / cj)
            for a, b in zip(repi, repj)
        ]
        r, rep = _reduce_full(spoly, srep, basis)
        if r.is_zero():
            continue
        if not r.is_constant() and r.degree() > degree_cap:
            return decision("timeout", basis, None, pairs_done)
        cof = add_to_basis(r, rep)
        if cof is not None:
            return decision("no-common-root", basis, cof, pairs_done)
        new_idx = len(basis) - 1
        new_lm = lms[new_idx]
        for t in range(new_idx):
            heapq.heappush(
                pending, (degrevlex_key(mon_lcm(lms[t], new_lm)), (t, new_idx))
            )
    return decision("has-common-root-or-unknown", basis, None, pairs_done)


# -- rank feasibility encodings ------------------------------------------


@dataclass
class EncodedSystem:
    """Polynomial system over Q whose common roots are feasible points."""

    polynomials: list[Polynomial]
    var_names: list[str]
    encoding: str


def _dedupe(polys: list[Polynomial]) -> list[Polynomial]:
    seen = set()
    out = []
    for p in polys:
        if p.is_zero():
            continue
        lm, lc = p.leading()
        monic = p.scale(1 / lc)
        fp = frozenset(monic.terms.items())
        if fp in seen:
            continue
        seen.add(fp)
        out.append(p)
    return out


def encode_rank_feasibility(
    s: NcGraph, k: int, m: int, encoding: str = "factor"
) -> EncodedSystem:
    """Encode: does there exist B in M_m(S), sum_i B_ii = I_n, rank B <= k?

    factor (default): variables are the real/imaginary parts of two k x mn
    complex factor matrices C, D with B = C^dag D; rank <= k is structural.
    minor: variables are span coordinates of each block; rank <= k is
    imposed by vanishing of all (k+1) x (k+1) minors.  Either way the
    system has a common complex root iff the program is feasible.
    """
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    if encoding == "factor":
        return _encode_factor(s, k, m)
    if encoding == "minor":
        return _encode_minor(s, k, m)
    raise ValueError(f"unknown encoding {encoding!r}")


def _split_constraints(cpolys: list[CPoly]) -> list[Polynomial]:
    out = []
    for cp in cpolys:
        re_p, im_p = cp.split()
        out.append(re_p)
        out.append(im_p)
    return _dedupe(out)


def _encode_factor(s: NcGraph, k: int, m: int) -> EncodedSystem:
    n = s.n
    width = m * n
    nvars = 4 * k * width
    names = []
    for which in ("C", "D"):
        for t in range(k):
            for col in range(width):
                names.append(f"re{which}_{t}_{col}")
                names.append(f"im{which}_{t}_{col}")

    def cvar(which: int, t: int, col: int, conj: bool) -> CPoly:
        base = 2 * (which * k * width + t * width + col)
        re = CPoly.variable(nvars, base)
        im = CPoly.variable(nvars, base + 1, GaussianRational(Fraction(0), Fraction(-1 if conj else 1)))
        return re + im

    zero = CPoly(nvars)

    def block_entry(bi: int, bj: int, p: int, q: int) -> CPoly:
        # (C_bi^dag D_bj)[p][q] = sum_t conj(C[t][bi*n+p]) * D[t][bj*n+q]
        total = zero
        for t in range(k):
            total = total + cvar(0, t, bi * n + p, True) * cvar(1, t, bj * n + q, False)
        return total

    constraints: list[CPoly] = []
    ann = s.annihilator_rows()
    for bi in range(m):
        for bj in range(m):
            entries = {}
            for row in ann:
                total = zero
                for coord, coeff in row.items():
                    p, q = divmod(coord, n)
                    if coord not in entries:
                        entries[coord] = block_entry(bi, bj, p, q)
                    total = total + entries[coord].scale(coeff)
                constraints.append(total)
    for p in range(n):
        for q in range(n):
            total = zero
            for bi in range(m):
                total = total + block_entry(bi, bi, p, q)
            if p == q:
                total = total - CPoly.constant(nvars, 1)
            constraints.append(total)
    return EncodedSystem(_split_constraints(constraints), names, "factor")


def _encode_minor(s: NcGraph, k: int, m: int) -> EncodedSystem:
    n = s.n
    d = s.dim
    size = m * n
    n_minors = math.comb(size, k + 1) ** 2 if k + 1 <= size else 0
    if n_minors > 20000:
        raise ValueError(
            f"minor encoding would need {n_minors} minors; use factor encoding"
        )
    nvars = 2 * m * m * d
    names = []
    for bi in range(m):
        for bj in range(m):
            for c in range(d):
                names.append(f"rez_{bi}_{bj}_{c}")
                names.append(f"imz_{bi}_{bj}_{c}")

    def zvar(bi: int, bj: int, c: int) -> CPoly:
        base = 2 * ((bi * m + bj) * d + c)
        return CPoly.variable(nvars, base) + CPoly.variable(
            nvars, base + 1, GaussianRational(Fraction(0), Fraction(1))
        )

    basis = s.basis
    zero = CPoly(nvars)
    entry_cache: dict[tuple[int, int], CPoly] = {}

    def entry(r: int, c: int) -> CPoly:
        if (r, c) in entry_cache:
            return entry_cache[(r, c)]
        bi, p = divmod(r, n)
        bj, q = divmod(c, n)
        total = zero
        for ci, bmat in enumerate(basis):
            coeff = bmat[p, q]
            if not coeff.is_zero():
                total = total + zvar(bi, bj, ci).scale(coeff)
        entry_cache[(r, c)] = total
        return total

    constraints: list[CPoly] = []
    for p in range(n):
        for q in range(n):
            total = zero
            for bi in range(m):
                total = total + entry(bi * n + p, bi * n + q)
            if p == q:
                total = total - CPoly.constant(nvars, 1)
            constraints.append(total)
    if k + 1 <= size:
        for rows in combinations(range(size), k + 1):
            for cols in combinations(range(size), k + 1):
                constraints.append(_det_cpoly([[entry(r, c) for c in cols] for r in rows]))
    return EncodedSystem(_split_constraints(constraints), names, "minor")


def _det_cpoly(mat: list[list[CPoly]]) -> CPoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    nvars = mat[0][0].nvars
    total = CPoly(nvars)
    for r in range(n):
        a = mat[r][0]
        if a.is_zero():
            continue
        sub = [row[1:] for i, row in enumerate(mat) if i != r]
        term = a * _det_cpoly(sub)
        total = total + term if r % 2 == 0 else total - term
    return total
