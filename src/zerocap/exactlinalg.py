"""Exact linear algebra over the Gaussian rationals Q(i).

Everything that certifies a bound in this package runs through this module:
dense rank, exact linear solves and rank factorization, which share one
fraction-free Gauss-Jordan kernel over the Gaussian integers Z[i], and a
positive semidefiniteness test by recursive Schur complements.  Scalars are
pairs of ``fractions.Fraction`` so there is no precision cap and no
rounding, ever.

Floating point enters the package only in heuristic searches and the SDP
solver; results coming from there are always re-checked here before being
reported as facts.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]


def _frac(x: Rationalish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """A number a + b*i with a, b rational, kept in lowest terms.

    Immutable and hashable.  Fraction normalizes to coprime numerator and
    positive denominator, which makes equality and the text format canonical.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = as_scalar(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = as_scalar(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return as_scalar(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = as_scalar(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = as_scalar(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return as_scalar(other) / self

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(Fraction(0))
ONE = GaussianRational(Fraction(1))


def as_scalar(x: Scalarish) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(_frac(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


# -- canonical text format ------------------------------------------
#
# "a/b" for rationals, "a/b+c/d*i" / "a/b-c/d*i" for complex values,
# whitespace free, denominator omitted when 1.  Examples: "0", "-2/3",
# "1/2-3/4*i", "0+1*i".

_FRACTION_RE = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^(?P<re>{_FRACTION_RE})?(?P<im>(?:[+-]?\d+(?:/\d+)?\*)?[+-]?i)?$"
)


def _format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_scalar(z: Scalarish) -> str:
    z = as_scalar(z)
    if z.im == 0:
        return _format_fraction(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{_format_fraction(z.re)}{sign}{_format_fraction(abs(z.im))}*i"


def parse_scalar(text: str) -> GaussianRational:
    """Parse the canonical scalar format (and mild variants like "i", "-i")."""
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {text!r}")
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    m = _SCALAR_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a scalar: {text!r}")
    # Fraction raises ZeroDivisionError on a zero denominator such as "1/0"
    try:
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_txt = m.group("im")
        if im_txt is None:
            return GaussianRational(re_part)
        body = im_txt[:-1]  # strip trailing 'i'
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            if body.endswith("*"):
                body = body[:-1]
            im_part = Fraction(body)
        return GaussianRational(re_part, im_part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar: {text!r}") from None


def require_int(data: dict, key: str) -> int:
    """data[key], which must be an integer (not a bool) in loaded JSON."""
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def require_list(data: dict, key: str) -> list:
    """data[key], which must be a JSON array in loaded JSON."""
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return value


def rationalize(x: float, max_denominator: int) -> Fraction:
    """Last continued-fraction convergent of x with denominator <= cap.

    Convergents are near-optimal approximations: the result p/q satisfies
    |x - p/q| < 1/(q * max_denominator) whenever the expansion was
    truncated.  (A semiconvergent can be marginally closer; convergent
    semantics are what the rest of the package depends on.)  Raises
    ValueError on NaN/inf or a nonpositive denominator cap.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    if not math.isfinite(x):
        raise ValueError(f"cannot rationalize non-finite value {x!r}")
    f = Fraction(x)
    p_prev, q_prev = 1, 0
    p, q = math.floor(f), 1
    rem = f - math.floor(f)
    while rem != 0:
        f = 1 / rem
        a = math.floor(f)
        rem = f - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > max_denominator:
            return Fraction(p_prev, q_prev)
    return Fraction(p, q)


# -- matrices --------------------------------------------------------


class ExactMatrix:
    """Dense matrix over Q(i), immutable after construction."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._e = tuple(entries)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Scalarish]]) -> "ExactMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        flat: list[GaussianRational] = []
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(as_scalar(x) for x in r)
        return cls(nrows, ncols, flat)

    @classmethod
    def from_strings(cls, data: list[list[str]]) -> "ExactMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix must be a list of lists of scalar strings")
        return cls.from_rows([[parse_scalar(s) for s in row] for row in data])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        e = [ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = ONE
        return cls(n, n, e)

    @classmethod
    def column(cls, entries: Sequence[Scalarish]) -> "ExactMatrix":
        return cls(len(entries), 1, [as_scalar(x) for x in entries])

    # -- access ------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_list(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_strings(self) -> list[list[str]]:
        return [[format_scalar(x) for x in self.row(i)] for i in range(self.rows)]

    def to_complex(self):
        import numpy as np

        a = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                a[i, j] = self._e[i * self.cols + j].to_complex()
        return a

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self._e)

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, z: Scalarish) -> "ExactMatrix":
        z = as_scalar(z)
        return ExactMatrix(self.rows, self.cols, [z * a for a in self._e])

    def __mul__(self, z: Scalarish) -> "ExactMatrix":
        return self.scale(z)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in @: {self.shape} x {other.shape}"
            )
        n, k, m = self.rows, self.cols, other.cols
        out = [ZERO] * (n * m)
        for i in range(n):
            rowbase = i * k
            for t in range(k):
                a = self._e[rowbase + t]
                if a.is_zero():
                    continue
                obase = t * m
                for j in range(m):
                    b = other._e[obase + j]
                    if not b.is_zero():
                        out[i * m + j] = out[i * m + j] + a * b
        return ExactMatrix(n, m, out)

    def conj_transpose(self) -> "ExactMatrix":
        out = [ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self._e[i * self.cols + j].conj()
        return ExactMatrix(self.cols, self.rows, out)

    @property
    def H(self) -> "ExactMatrix":
        return self.conj_transpose()

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; block (i,j) of the result is self[i,j] * other."""
        n, m = self.rows, self.cols
        p, q = other.rows, other.cols
        out = [ZERO] * (n * p * m * q)
        W = m * q
        for i in range(n):
            for j in range(m):
                a = self._e[i * m + j]
                if a.is_zero():
                    continue
                for r in range(p):
                    outbase = (i * p + r) * W + j * q
                    obase = r * q
                    for s in range(q):
                        out[outbase + s] = a * other._e[obase + s]
        return ExactMatrix(n * p, m * q, out)

    def direct_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        n, m = self.rows, self.cols
        p, q = other.rows, other.cols
        out = [ZERO] * ((n + p) * (m + q))
        W = m + q
        for i in range(n):
            for j in range(m):
                out[i * W + j] = self._e[i * m + j]
        for r in range(p):
            for s in range(q):
                out[(n + r) * W + (m + s)] = other._e[r * q + s]
        return ExactMatrix(n + p, m + q, out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        out = [self._e[i * self.cols + j] for i in row_idx for j in col_idx]
        return ExactMatrix(len(row_idx), len(col_idx), out)

    def vec(self) -> tuple[GaussianRational, ...]:
        """Row-major flattening, the coordinate convention used for spans."""
        return self._e

    # -- rank, solve, psd ---------------------------------------------

    def rank(self) -> int:
        """Exact rank: the pivot count of the fraction-free elimination."""
        pivots, _, _ = _fraction_free_rref(self.to_list(), self.cols)
        return len(pivots)

    def solve(self, b: "ExactMatrix") -> Optional["ExactMatrix"]:
        """One exact solution of self @ x = b, or None if inconsistent.

        Eliminates [self | b] with pivots in the columns of self only; free
        variables are set to zero.  b may have several columns.  The
        returned x satisfies self @ x == b exactly.
        """
        if b.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        m, w = self.cols, b.cols
        augmented = [self.row(i) + b.row(i) for i in range(self.rows)]
        pivots, rows, d = _fraction_free_rref(augmented, m)
        if any(v != (0, 0) for row in rows[len(pivots):] for v in row[m:]):
            return None
        x = [[ZERO] * w for _ in range(m)]
        for row, c in zip(rows, pivots):
            x[c] = [_divide(v, d) for v in row[m:]]
        return ExactMatrix.from_rows(x)

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.conj_transpose()

    def is_psd(self) -> bool:
        """Exact test: True iff self is Hermitian and positive semidefinite.

        Recursive Schur complements with symmetric pivoting.  A zero
        diagonal entry with a nonzero entry elsewhere in its row certifies
        non-PSD (the 2x2 principal minor there is negative); a zero
        diagonal entry with a zero row is removed; otherwise the first
        positive pivot is eliminated and the Schur complement recursed on.
        """
        if not self.is_hermitian():
            return False
        idx = list(range(self.rows))
        M = {(i, j): self._e[i * self.cols + j] for i in idx for j in idx}
        while idx:
            drop = []
            for i in idx:
                d = M[(i, i)]
                if d.im != 0 or d.re < 0:
                    return False
                if d.re == 0:
                    if any(not M[(i, j)].is_zero() for j in idx):
                        return False
                    drop.append(i)
            if drop:
                idx = [i for i in idx if i not in drop]
                continue
            p = idx[0]
            d = M[(p, p)]
            rest = idx[1:]
            for i in rest:
                mip = M[(i, p)]
                if mip.is_zero():
                    continue
                for j in rest:
                    M[(i, j)] = M[(i, j)] - mip * M[(p, j)] / d
            idx = rest
        return True


def rank_factorization(a: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Exact full-rank factorization a = p @ q with inner dimension rank(a).

    p collects the pivot columns of a and q the nonzero rows of the reduced
    row echelon form, so every column of a is the p-combination prescribed
    by q.  A zero matrix factors through inner dimension 0 (p is rows x 0).
    """
    n, m = a.rows, a.cols
    pivots, rows, d = _fraction_free_rref(a.to_list(), m)
    p = ExactMatrix.from_rows([[a[i, c] for c in pivots] for i in range(n)])
    if not pivots:
        return p, ExactMatrix.zeros(0, m)
    q = ExactMatrix.from_rows([[_divide(v, d) for v in row] for row in rows[: len(pivots)]])
    return p, q


# -- fraction-free elimination over Z[i] -----------------------------
#
# Gaussian integers are (re, im) pairs of Python ints.

GaussianInt = tuple[int, int]


def _integer_row(row: Sequence[GaussianRational]) -> list[GaussianInt]:
    """row scaled by the lcm of its denominators, as Gaussian integers."""
    scale = math.lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
    return [
        (x.re.numerator * (scale // x.re.denominator),
         x.im.numerator * (scale // x.im.denominator))
        for x in row
    ]


def _divide(x: GaussianInt, d: GaussianInt) -> GaussianRational:
    """x / d in Q(i), for d nonzero."""
    (xr, xi), (dr, di) = x, d
    norm = dr * dr + di * di
    return GaussianRational(
        Fraction(xr * dr + xi * di, norm), Fraction(xi * dr - xr * di, norm)
    )


def _fraction_free_rref(
    rows: Sequence[Sequence[GaussianRational]], ncols: int
) -> tuple[list[int], list[list[GaussianInt]], GaussianInt]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) over Z[i].

    Each row is first scaled to Gaussian integers; row scaling changes
    neither the row space nor the reduced row echelon form (RREF).  Pivots
    are taken in the first ncols columns only, at the first nonzero entry
    in column order.  For a pivot p every other row becomes
    (p * row - f * pivot_row) / prev, with f its entry in the pivot column
    and prev the previous pivot (1 at the start).  The division is exact
    in Z[i], since every entry stays a minor of the scaled input.

    Returns (pivots, rows, d): the pivot columns, the eliminated integer
    rows with the pivot rows first in pivot order, and the last pivot d,
    which every pivot row carries in its pivot column.  rows[t] / d is row
    t of the RREF for t < len(pivots); the other rows vanish in the first
    ncols columns.
    """
    out = [_integer_row(row) for row in rows]
    nrows = len(out)
    width = len(out[0]) if out else 0
    pivots: list[int] = []
    dr, di = 1, 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        found = next((i for i in range(r, nrows) if out[i][c] != (0, 0)), None)
        if found is None:
            continue
        out[r], out[found] = out[found], out[r]
        prow = out[r]
        pr, pi = prow[c]
        # division by prev: multiply by conj(prev), then divide by |prev|^2
        norm = dr * dr + di * di
        for i, row in enumerate(out):
            if i == r:
                continue
            fr, fi = row[c]
            # rows below the pivot are zero left of column c
            for j in range(c if i > r else 0, width):
                xr, xi = row[j]
                yr, yi = prow[j]
                ar = pr * xr - pi * xi - fr * yr + fi * yi
                ai = pr * xi + pi * xr - fr * yi - fi * yr
                row[j] = ((ar * dr + ai * di) // norm, (ai * dr - ar * di) // norm)
        pivots.append(c)
        dr, di = pr, pi
    return pivots, out, (dr, di)


# -- sparse row echelon over Q(i) ------------------------------------
#
# Used for canonicalizing spans of matrices (rows are row-major
# vectorizations).  Rows are dicts {coordinate: value}; elimination only
# touches nonzero entries, which keeps matrix-unit-heavy spans cheap.

SparseRow = dict[int, GaussianRational]


def sparse_rref(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """Reduced row echelon form of a list of sparse rows, zero rows dropped.

    Pivots are leading (smallest) coordinates, normalized to 1, eliminated
    above and below.  The result is a canonical basis of the row span:
    two spans are equal iff their sparse_rref lists are equal.
    """
    echelon: list[tuple[int, SparseRow]] = []  # (pivot coord, row), sorted
    for row in rows:
        row = reduce_row(row, echelon)
        if not row:
            continue
        piv = min(row)
        inv = ONE / row[piv]
        row = {c: v * inv for c, v in row.items()}
        for k, (p, other) in enumerate(echelon):
            if piv in other:
                f = other[piv]
                new = dict(other)
                for c, v in row.items():
                    w = new.get(c, ZERO) - f * v
                    if w.is_zero():
                        new.pop(c, None)
                    else:
                        new[c] = w
                echelon[k] = (p, new)
        echelon.append((piv, row))
        echelon.sort(key=lambda t: t[0])
    return [r for _, r in echelon]


def reduce_row(row: SparseRow, echelon: Sequence[tuple[int, SparseRow]]) -> SparseRow:
    """Remainder of row after elimination against echelon rows."""
    out = {c: v for c, v in row.items() if not v.is_zero()}
    for piv, base in echelon:
        if piv in out:
            f = out[piv]
            for c, v in base.items():
                w = out.get(c, ZERO) - f * v
                if w.is_zero():
                    out.pop(c, None)
                else:
                    out[c] = w
    return out
