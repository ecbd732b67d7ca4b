"""Exact linear algebra over the Gaussian rationals Q(i).

Everything that certifies a bound in this package runs through this module:
matrices that store their nonzero entries as Gaussian-integer (Z[i])
numerators over one denominator; rank, exact solves, rank factorization
and the canonical basis of a span of matrices, which share one
fraction-free Gauss-Jordan kernel on sparse Z[i] rows and one division by
its last pivot; a positive semidefiniteness test on the kernel's row step;
and span membership against the canonical basis.  All of it runs on Python
ints: no precision cap, no rounding.  ``GaussianRational``, a pair of
``fractions.Fraction``, is only the scalar view for text and single entries.

Floating point enters the package only in heuristic searches and the SDP
solver; results coming from there are always re-checked here before being
reported as facts.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence, Union

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
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(Fraction(0))
ONE = GaussianRational(Fraction(1))


def as_scalar(x: Scalarish) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


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


def rationalize_array(a, max_denominator: int) -> "ExactMatrix":
    """The 2-D complex array a rounded entrywise, both parts by rationalize."""
    return ExactMatrix.from_rows([
        [GaussianRational(rationalize(float(z.real), max_denominator),
                          rationalize(float(z.imag), max_denominator)) for z in row]
        for row in a
    ])


# -- matrices --------------------------------------------------------
#
# Gaussian integers are (re, im) pairs of Python ints; sparse rows are
# dicts {column or row-major index: nonzero Gaussian integer}.

GaussianInt = tuple[int, int]
IntegerRow = dict[int, GaussianInt]


def _lcm_form(values: Iterable[tuple[int, GaussianRational]]) -> tuple[IntegerRow, int]:
    """The nonzero (key, value) pairs over the lcm of their denominators, which
    is lowest terms already: the lcm's prime powers each divide a denominator."""
    nz = {k: x for k, x in values if not x.is_zero()}
    den = math.lcm(*(d for x in nz.values() for d in (x.re.denominator, x.im.denominator)))
    return {
        k: (x.re.numerator * (den // x.re.denominator),
            x.im.numerator * (den // x.im.denominator))
        for k, x in nz.items()
    }, den


def _lowest_terms(nz: IntegerRow, den: int) -> tuple[IntegerRow, int]:
    """nz / den, for den > 0, in ExactMatrix's canonical form: the gcd of den
    and every numerator cancelled, denominator 1 for the zero matrix."""
    if den == 1:
        return nz, 1
    g = math.gcd(den, *chain.from_iterable(nz.values()))
    if g == 1:
        return nz, den
    return {k: (re // g, im // g) for k, (re, im) in nz.items()}, den // g


def _over_pivot(nz: IntegerRow, d: GaussianInt) -> tuple[IntegerRow, int]:
    """nz / d = nz * conj(d) / |d|^2 in canonical form: the one division by the
    kernel's last pivot d, shared by solve, rank_factorization and sparse_rref."""
    dr, di = d
    return _lowest_terms(
        {k: (ar * dr + ai * di, ai * dr - ar * di) for k, (ar, ai) in nz.items()},
        dr * dr + di * di,
    )


def _check_indices(rows: int, cols: int, keys: dict) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative shape")
    if keys and not 0 <= min(keys) <= max(keys) < rows * cols:
        raise ValueError(f"an index lies outside a {rows} x {cols} matrix")


class ExactMatrix:
    """Matrix over Q(i) that stores only its nonzero entries; immutable.

    The entries are a dict {row-major index: (re, im)} of Z[i] numerators
    over one positive denominator, in lowest terms.  That form is canonical,
    so equality and hashing compare it directly, and all arithmetic runs on
    ints.  ``numerators`` and ``from_numerators`` give the integer form;
    ``m[i, j]``, ``nonzeros``, ``row``, ``vec`` and ``to_list`` give
    GaussianRational views and ``to_strings`` the text.
    """

    __slots__ = ("rows", "cols", "_nz", "_den")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._nz, self._den = _lcm_form(enumerate(entries))

    @classmethod
    def _of(cls, rows: int, cols: int, nz: IntegerRow, den: int) -> "ExactMatrix":
        """Trusted constructor: nz / den is in canonical form at in-range indices."""
        out = object.__new__(cls)
        out.rows = rows
        out.cols = cols
        out._nz = nz
        out._den = den
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Scalarish]]) -> "ExactMatrix":
        return cls._dense(data, as_scalar)

    @classmethod
    def from_strings(cls, data: list[list[str]]) -> "ExactMatrix":
        """Parse rows of scalar strings; the literal "0" is skipped unparsed."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix must be a list of lists of scalar strings")
        return cls._dense(data, parse_scalar, "0")

    @classmethod
    def _dense(cls, data: Sequence[Sequence], convert: Callable[..., GaussianRational],
               skip: object = None) -> "ExactMatrix":
        """The matrix of convert(x) over the rows of data; an x equal to skip
        is zero and left unconverted."""
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls._of(nrows, ncols, *_lcm_form(
            (i * ncols + j, convert(x))
            for i, r in enumerate(data) for j, x in enumerate(r) if x != skip
        ))

    @classmethod
    def from_nonzeros(
        cls, rows: int, cols: int, entries: dict[int, GaussianRational]
    ) -> "ExactMatrix":
        """Matrix with the given {row-major index: value} entries, zero elsewhere."""
        _check_indices(rows, cols, entries)
        return cls._of(rows, cols, *_lcm_form(entries.items()))

    @classmethod
    def from_numerators(
        cls, rows: int, cols: int, numerators: dict[int, GaussianInt], den: int = 1
    ) -> "ExactMatrix":
        """Matrix with entries numerators[k] / den, den > 0, zero elsewhere."""
        _check_indices(rows, cols, numerators)
        if den < 1:
            raise ValueError("the denominator must be positive")
        nz = {k: v for k, v in numerators.items() if v != (0, 0)}
        return cls._of(rows, cols, *_lowest_terms(nz, den))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls.from_numerators(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_numerators(n, n, {i * n + i: (1, 0) for i in range(n)})

    @classmethod
    def column(cls, entries: Sequence[Scalarish]) -> "ExactMatrix":
        return cls(len(entries), 1, [as_scalar(x) for x in entries])

    # -- access ------------------------------------------------------

    def numerators(self) -> tuple[IntegerRow, int]:
        """({row-major index: (re, im)}, den), the canonical form; the dict is
        shared, not to be modified."""
        return self._nz, self._den

    def _entry(self, k: int) -> GaussianRational:
        v = self._nz.get(k)
        if v is None:
            return ZERO
        return GaussianRational(Fraction(v[0], self._den), Fraction(v[1], self._den))

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._entry(i * self.cols + j)

    def nonzeros(self) -> dict[int, GaussianRational]:
        """A fresh dict {row-major index: value} of the nonzero entries."""
        return {k: self._entry(k) for k in self._nz}

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        start = i * self.cols
        return tuple(map(self._entry, range(start, start + self.cols)))

    def to_list(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_strings(self) -> list[list[str]]:
        text = {k: format_scalar(self._entry(k)) for k in self._nz}
        c = self.cols
        return [
            list(map(text.get, range(i * c, (i + 1) * c), repeat("0")))
            for i in range(self.rows)
        ]

    def to_complex(self):
        """The entries as floats; int / int rounds correctly, like float(Fraction)."""
        import numpy as np

        a = np.zeros(self.rows * self.cols, dtype=complex)
        den = self._den
        for k, (re, im) in self._nz.items():
            a[k] = complex(re / den, im / den)
        return a.reshape(self.rows, self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self._den == other._den
            and self._nz == other._nz
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, frozenset(self._nz.items())))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not self._nz

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = {k: (re * fa, im * fa) for k, (re, im) in self._nz.items()}
        for k, (br, bi) in other._nz.items():
            ar, ai = out.get(k, (0, 0))
            total = (ar + br * fb, ai + bi * fb)
            if total == (0, 0):
                del out[k]
            else:
                out[k] = total
        return ExactMatrix._of(self.rows, self.cols, *_lowest_terms(out, den))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(
            self.rows, self.cols, {k: (-re, -im) for k, (re, im) in self._nz.items()}, self._den
        )

    def scale(self, z: Scalarish) -> "ExactMatrix":
        return self.kron(ExactMatrix.from_rows([[z]]))

    def __mul__(self, z: Scalarish) -> "ExactMatrix":
        return self.scale(z)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in @: {self.shape} x {other.shape}"
            )
        k, m = self.cols, other.cols
        # the nonzeros of other, grouped by row
        other_rows: dict[int, list[tuple[int, GaussianInt]]] = {}
        for idx, b in other._nz.items():
            t, j = divmod(idx, m)
            other_rows.setdefault(t, []).append((j, b))
        out: IntegerRow = {}
        for idx, (ar, ai) in self._nz.items():
            i, t = divmod(idx, k)
            base = i * m
            for j, (br, bi) in other_rows.get(t, ()):
                key = base + j
                pr, pi = out.get(key, (0, 0))
                out[key] = (pr + ar * br - ai * bi, pi + ar * bi + ai * br)
        nz = {key: v for key, v in out.items() if v != (0, 0)}
        return ExactMatrix._of(self.rows, m, *_lowest_terms(nz, self._den * other._den))

    def conj_transpose(self) -> "ExactMatrix":
        n, m = self.rows, self.cols
        return ExactMatrix._of(
            m, n, {(k % m) * n + k // m: (re, -im) for k, (re, im) in self._nz.items()},
            self._den,
        )

    @property
    def H(self) -> "ExactMatrix":
        return self.conj_transpose()

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; block (i,j) of the result is self[i,j] * other."""
        m = self.cols
        p, q = other.rows, other.cols
        width = m * q
        # offset of other's entry (r, s) inside its block of the result
        placed = [((k // q) * width + k % q, b) for k, b in other._nz.items()]
        out: IntegerRow = {}
        for k, (ar, ai) in self._nz.items():
            i, j = divmod(k, m)
            corner = i * p * width + j * q
            for off, (br, bi) in placed:  # no zeros: Z[i] has no zero divisors
                out[corner + off] = (ar * br - ai * bi, ar * bi + ai * br)
        return ExactMatrix._of(self.rows * p, width, *_lowest_terms(out, self._den * other._den))

    def direct_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        n, m = self.rows, self.cols
        q = other.cols
        width = m + q
        den = math.lcm(self._den, other._den)  # lowest terms, as in _lcm_form
        fa, fb = den // self._den, den // other._den
        out = {(k // m) * width + k % m: (re * fa, im * fa) for k, (re, im) in self._nz.items()}
        corner = n * width + m
        for k, (re, im) in other._nz.items():
            out[corner + (k // q) * width + k % q] = (re * fb, im * fb)
        return ExactMatrix._of(n + other.rows, width, out, den)

    def submatrix(
        self, row_idx: Sequence[int], col_idx: Sequence[int]
    ) -> "ExactMatrix":
        for idx, bound in ((row_idx, self.rows), (col_idx, self.cols)):
            if any(not 0 <= x < bound for x in idx):
                raise IndexError("submatrix index out of range")
        # where each source row and column lands (an index may repeat)
        row_at: dict[int, list[int]] = {}
        for a, i in enumerate(row_idx):
            row_at.setdefault(i, []).append(a)
        col_at: dict[int, list[int]] = {}
        for b, j in enumerate(col_idx):
            col_at.setdefault(j, []).append(b)
        w = len(col_idx)
        out: IntegerRow = {}
        for k, x in self._nz.items():
            i, j = divmod(k, self.cols)
            for a in row_at.get(i, ()):
                for b in col_at.get(j, ()):
                    out[a * w + b] = x
        return ExactMatrix._of(len(row_idx), w, *_lowest_terms(out, self._den))

    def vec(self) -> tuple[GaussianRational, ...]:
        """Row-major flattening, the coordinate convention used for spans."""
        return tuple(map(self._entry, range(self.rows * self.cols)))

    # -- rank, solve, psd ---------------------------------------------

    def rank(self) -> int:
        """Exact rank: the pivot count of the fraction-free elimination."""
        pivots, _, _ = _fraction_free_rref(_integer_rows(self), self.cols)
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
        pivots, rows, d = _fraction_free_rref(_integer_rows(hstack([self, b])), m)
        # a leftover row is zero in the columns of self: any entry is in b's
        if any(rows[len(pivots):]):
            return None
        x = {
            c * w + j - m: v
            for row, c in zip(rows, pivots)
            for j, v in row.items()
            if j >= m
        }
        return ExactMatrix._of(m, w, *_over_pivot(x, d))

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.conj_transpose()

    def is_psd(self) -> bool:
        """Exact test: True iff self is Hermitian and positive semidefinite.

        Eliminates the primitive Z[i] rows with the Bareiss step, diagonal
        pivots in index order.  Each row stays a positive multiple of its
        Schur complement row, which keeps every sign and zero read here.  A
        non-real or negative diagonal entry certifies non-PSD, as does a
        zero one whose row still holds anything (a 2x2 principal minor there
        is negative); an empty row is dropped.
        """
        if not self.is_hermitian():
            return False
        rows = _integer_rows(self)
        prev = (1, 0)
        for c, prow in enumerate(rows):
            if not prow:
                continue
            p = prow.get(c, (0, 0))
            if p[1] or p[0] <= 0:
                return False
            for i in range(c + 1, len(rows)):
                f = rows[i].get(c, (0, 0))
                if f != (0, 0) or p != prev:
                    rows[i] = _bareiss_step(rows[i], prow, f, p, prev)
            prev = p
        return True


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """The matrices side by side; they share a row count."""
    width = sum(mat.cols for mat in mats)
    den = math.lcm(*(mat._den for mat in mats))  # lowest terms, as in _lcm_form
    out: IntegerRow = {}
    offset = 0
    for mat in mats:
        if mat.rows != mats[0].rows:
            raise ValueError("hstack needs equal row counts")
        f = den // mat._den
        for k, (re, im) in mat._nz.items():
            i, j = divmod(k, mat.cols)
            out[i * width + offset + j] = (re * f, im * f)
        offset += mat.cols
    return ExactMatrix._of(mats[0].rows, width, out, den)


def column_blocks(a: ExactMatrix, width: int) -> list[ExactMatrix]:
    """a cut into blocks of `width` columns, left to right (inverse of hstack)."""
    if width < 1 or a.cols % width:
        raise ValueError(f"{a.cols} columns do not split into blocks of {width}")
    parts: list[IntegerRow] = [{} for _ in range(a.cols // width)]
    for k, x in a._nz.items():
        i, j = divmod(k, a.cols)
        block, col = divmod(j, width)
        parts[block][i * width + col] = x
    return [ExactMatrix._of(a.rows, width, *_lowest_terms(part, a._den)) for part in parts]


def rank_factorization(a: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Exact full-rank factorization a = p @ q with inner dimension rank(a).

    p collects the pivot columns of a and q the nonzero rows of the reduced
    row echelon form, so every column of a is the p-combination prescribed
    by q.  A zero matrix factors through inner dimension 0 (p is rows x 0).
    """
    m = a.cols
    pivots, rows, d = _fraction_free_rref(_integer_rows(a), m)
    q = {t * m + j: v for t, row in enumerate(rows[: len(pivots)]) for j, v in row.items()}
    return a.submatrix(range(a.rows), pivots), ExactMatrix._of(len(pivots), m, *_over_pivot(q, d))


# -- fraction-free elimination over Z[i] -----------------------------


def _integer_rows(a: ExactMatrix) -> list[IntegerRow]:
    """The rows of a's numerators, each divided by the gcd of its components;
    primitive rows keep the kernel's integers small."""
    rows: list[IntegerRow] = [{} for _ in range(a.rows)]
    for k, x in a._nz.items():
        i, j = divmod(k, a.cols)
        rows[i][j] = x
    for i, row in enumerate(rows):
        g = math.gcd(*chain.from_iterable(row.values()))
        if g > 1:
            rows[i] = {j: (re // g, im // g) for j, (re, im) in row.items()}
    return rows


def _bareiss_step(row: IntegerRow, pivot_row: IntegerRow, f: GaussianInt,
                  p: GaussianInt, prev: GaussianInt) -> IntegerRow:
    """The Bareiss row update (p * row - f * pivot_row) / prev, zeros dropped,
    for f row's entry in the pivot column, p the pivot and prev the previous
    one; the caller ensures the division is exact in Z[i]."""
    (pr, pi), (fr, fi), (dr, di) = p, f, prev
    acc = {j: (pr * xr - pi * xi, pr * xi + pi * xr) for j, (xr, xi) in row.items()}
    if fr or fi:
        for j, (yr, yi) in pivot_row.items():
            ar, ai = acc.get(j, (0, 0))
            acc[j] = (ar - fr * yr + fi * yi, ai - fr * yi - fi * yr)
    # division by prev: multiply by conj(prev), then divide by |prev|^2
    norm = dr * dr + di * di
    return {
        j: ((ar * dr + ai * di) // norm, (ai * dr - ar * di) // norm)
        for j, (ar, ai) in acc.items()
        if ar or ai
    }


def _fraction_free_rref(
    rows: list[IntegerRow], ncols: int
) -> tuple[list[int], list[IntegerRow], GaussianInt]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on sparse Z[i] rows.

    The one elimination kernel of the package: rank, solve and
    rank_factorization run it on the primitive rows of a matrix, and
    sparse_rref on the row-major vectorizations of a span's generators;
    row scaling changes neither the row space nor the reduced row echelon
    form (RREF).  Pivots are taken in columns below ncols only, at the
    first nonzero entry in column order.  For a pivot p every other row
    takes the Bareiss step of _bareiss_step with prev the previous pivot (1
    at the start); a row with f = 0 is left alone when p == prev.  Every
    entry stays a minor of the input, so the division is exact in Z[i].
    The list is updated in place; the row dicts are not modified.

    Returns (pivots, rows, d): the pivot columns, the eliminated rows with
    the pivot rows first in pivot order, and the last pivot d, which every
    pivot row carries in its pivot column.  rows[t] / d is row t of the
    RREF for t < len(pivots); the other rows have no entry below ncols.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = (1, 0)
    # a column no input row touches never gets an entry
    for c in sorted({j for row in rows for j in row if j < ncols}):
        r = len(pivots)
        if r == nrows:
            break
        found = next((i for i in range(r, nrows) if c in rows[i]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row.get(c, (0, 0))
            if i != r and (f != (0, 0) or p != prev):
                rows[i] = _bareiss_step(row, prow, f, p, prev)
        pivots.append(c)
        prev = p
    return pivots, rows, prev


# -- span canonicalization -------------------------------------------
#
# Spans of matrices are rows of their row-major vectorizations, as Z[i]
# dicts {coordinate: value}, so matrix-unit-heavy spans stay cheap.


def sparse_rref(rows: Iterable[IntegerRow]) -> tuple[int, dict[int, IntegerRow]]:
    """Canonical basis of the span of sparse Z[i] rows, held in Z[i].

    The rows of the reduced row echelon form (pivots at leading coordinates,
    normalized to 1, eliminated above and below; zero rows dropped) come
    back as (s, {pivot: s * row}) in ExactMatrix's canonical form.  Two
    spans are equal iff their sparse_rref pairs are equal.  Zero entries of
    the input are ignored; the input is not modified.
    """
    rows = [{j: v for j, v in row.items() if v != (0, 0)} for row in rows]
    width = 1 + max((j for row in rows for j in row), default=-1)
    pivots, out, d = _fraction_free_rref(rows, width)
    flat, scale = _over_pivot(
        {p * width + j: v for p, row in zip(pivots, out) for j, v in row.items()}, d
    )
    basis: dict[int, IntegerRow] = {p: {} for p in pivots}
    for k, v in flat.items():
        p, j = divmod(k, width)
        basis[p][j] = v
    return scale, basis


def reduce_row(row: IntegerRow, basis: dict[int, IntegerRow], scale: int) -> IntegerRow:
    """Remainder s * x - sum_p x_p * basis[p] of x = row against sparse_rref.

    One pass over the pivots among x's coordinates suffices, since reduced
    echelon rows vanish at each other's pivots: the remainder is s times x
    minus its projection on the span, empty iff x lies in the span.
    """
    out = {j: (scale * xr, scale * xi) for j, (xr, xi) in row.items()}
    for p, (fr, fi) in row.items():
        base = basis.get(p)
        if base is None:
            continue
        for j, (yr, yi) in base.items():
            ar, ai = out.get(j, (0, 0))
            out[j] = (ar - fr * yr + fi * yi, ai - fr * yi - fi * yr)
    return {j: v for j, v in out.items() if v != (0, 0)}
