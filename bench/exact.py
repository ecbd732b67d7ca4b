"""The benchmark's own exact arithmetic over Q(i), independent of zerocap.

A Gaussian rational is a pair ``(re, im)`` of ``Fraction``; a matrix is a
list of rows of such pairs.  Inputs are written with this code and outputs
are re-checked with it, so neither depends on the program under test.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

_SCALAR = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*i)?$")


def q(re_part, im_part=0):
    return (Fraction(re_part), Fraction(im_part))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def inv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def is_zero(a):
    return a[0] == 0 and a[1] == 0


def fmt(a) -> str:
    """The canonical scalar text: "a/b" or "a/b+c/d*i"."""

    def frac(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    if a[1] == 0:
        return frac(a[0])
    sign = "+" if a[1] > 0 else "-"
    return f"{frac(a[0])}{sign}{frac(abs(a[1]))}*i"


def parse(text: str):
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"not a canonical scalar: {text!r}")
    im_part = Fraction(0)
    if m.group(2):
        im_part = Fraction(m.group(3)) * (1 if m.group(2) == "+" else -1)
    return (Fraction(m.group(1)), im_part)


def parse_matrix(rows):
    return [[parse(x) for x in row] for row in rows]


def fmt_matrix(mat):
    return [[fmt(x) for x in row] for row in mat]


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def rank(mat) -> int:
    """Exact rank by Gauss-Jordan elimination over Q(i)."""
    rows = [list(r) for r in mat if any(not is_zero(x) for x in r)]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(x, scale) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def cert_blocks(n: int, m: int, c, d):
    """Blocks (i, j) of B = C^dag D as n x n matrices, keyed by (i, j)."""
    k = len(c)
    out = {}
    for i in range(m):
        for j in range(m):
            blk = zeros(n, n)
            for p in range(n):
                for qq in range(n):
                    acc = ZERO
                    for t in range(k):
                        x = c[t][i * n + p]
                        y = d[t][j * n + qq]
                        if not is_zero(x) and not is_zero(y):
                            acc = add(acc, mul(conj(x), y))
                    blk[p][qq] = acc
            out[(i, j)] = blk
    return out


def in_span(basis, mat) -> bool:
    """Whether mat lies in the linear span of the basis matrices."""
    vecs = [[x for row in b for x in row] for b in basis]
    target = [x for row in mat for x in row]
    return rank(vecs + [target]) == rank(vecs)


def check_certificate(basis, data: dict) -> int:
    """Exact re-check of a serialized certificate; returns rank(C^dag D).

    Raises ValueError naming the first failed condition: shape, block
    membership, block trace.
    """
    n, m, k = int(data["n"]), int(data["m"]), int(data["k"])
    c, d = parse_matrix(data["C"]), parse_matrix(data["D"])
    for name, f in (("C", c), ("D", d)):
        if len(f) != k or any(len(row) != m * n for row in f):
            raise ValueError(f"{name} is not {k} x {m * n}")
    blocks = cert_blocks(n, m, c, d)
    for (i, j), blk in blocks.items():
        if not in_span(basis, blk):
            raise ValueError(f"block ({i}, {j}) lies outside the span")
    total = zeros(n, n)
    for i in range(m):
        total = [[add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(total, blocks[(i, i)])]
    if total != identity(n):
        raise ValueError("diagonal blocks do not sum to the identity")
    full = [
        [x for j in range(m) for x in blocks[(i, j)][p]] for i in range(m) for p in range(n)
    ]
    return rank(full)


def poly_eval(terms: dict, point) -> Fraction:
    """Value of a polynomial given as {exponent tuple: coefficient} at point."""
    total = Fraction(0)
    for mon, coeff in terms.items():
        val = Fraction(coeff)
        for x, e in zip(point, mon):
            if e:
                val *= x**e
        total += val
    return total


def alpha_bruteforce(n: int, edges) -> int:
    """Independence number by enumerating every independent set."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0

    def extend(start: int, blocked: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for v in range(start, n):
            if not blocked >> v & 1:
                extend(v + 1, blocked | adj[v] | 1 << v, size + 1)

    extend(0, 0, 0)
    return best


def greedy_clique_cover(edges, order) -> list[list[int]]:
    """First-fit clique cover visiting vertices in the given order.

    Any clique cover is at least as large as theta, so its size bounds
    theta from above.
    """
    adjacent = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    cliques: list[list[int]] = []
    for v in order:
        for clique in cliques:
            if all((v, w) in adjacent for w in clique):
                clique.append(v)
                break
        else:
            cliques.append([v])
    return cliques
