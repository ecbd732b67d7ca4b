"""Exact scalar and matrix arithmetic.

Oracles used here are independent of the implementation under test:
rank is cross-checked against a minor-based oracle (largest r with a
nonzero r x r subdeterminant, determinants by Laplace expansion),
is_psd against the all-principal-minors criterion and the dense Schur
complement loop over Q(i) that is_psd used to run (is_psd_reference),
sparse_rref against a Gauss-Jordan loop over Q(i) (sparse_rref_reference)
scaled into Z[i] by the lcm of its denominators (integer_basis_reference),
and reduce_row and NcGraph.contains against the Q(i) remainder that
reduce_row used to compute (reduce_row_reference).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from zerocap.exactlinalg import (
    ExactMatrix,
    GaussianRational,
    ONE,
    ZERO,
    as_scalar,
    column_blocks,
    format_scalar,
    _integer_rows,
    hstack,
    parse_scalar,
    rank_factorization,
    rationalize,
    reduce_row,
    sparse_rref,
)
from zerocap.graphs import cycle_graph
from zerocap.ncgraph import NcGraph, conjugate_by_unitary, tensor

G = GaussianRational
i_ = G(Fraction(0), Fraction(1))


# --- oracles ---------------------------------------------------------


def det_laplace(m: ExactMatrix) -> GaussianRational:
    n = m.rows
    assert n == m.cols
    if n == 0:
        return ONE
    if n == 1:
        return m[0, 0]
    total = ZERO
    cols = list(range(1, n))
    for r in range(n):
        a = m[r, 0]
        if a.is_zero():
            continue
        rows = [x for x in range(n) if x != r]
        sub = m.submatrix(rows, cols)
        term = a * det_laplace(sub)
        total = total + term if r % 2 == 0 else total - term
    return total


def rank_oracle(m: ExactMatrix) -> int:
    n, c = m.rows, m.cols
    for r in range(min(n, c), 0, -1):
        for ri in combinations(range(n), r):
            for ci in combinations(range(c), r):
                if not det_laplace(m.submatrix(ri, ci)).is_zero():
                    return r
    return 0


def psd_oracle(m: ExactMatrix) -> bool:
    # Hermitian and every principal minor >= 0.
    if m != m.conj_transpose():
        return False
    n = m.rows
    for r in range(1, n + 1):
        for idx in combinations(range(n), r):
            d = det_laplace(m.submatrix(idx, idx))
            if d.im != 0 or d.re < 0:
                return False
    return True


def rand_scalar(rng, real=False):
    num = rng.randint(-6, 6)
    den = rng.randint(1, 4)
    re = Fraction(num, den)
    if real:
        return G(re)
    return G(re, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def rand_matrix(rng, rows, cols, real=False):
    return ExactMatrix.from_rows(
        [[rand_scalar(rng, real) for _ in range(cols)] for _ in range(rows)]
    )


def rand_low_rank(rng, rows, cols, rank):
    if rank == 0:
        return ExactMatrix.zeros(rows, cols)
    return rand_matrix(rng, rows, rank) @ rand_matrix(rng, rank, cols)


def elimination_matrices(seed):
    """Complex wide, tall and square matrices of every rank, zero included."""
    rng = random.Random(seed)
    mats = [ExactMatrix.zeros(3, 4)]
    for rows, cols in [(2, 5), (5, 2), (3, 4), (4, 3), (4, 4)]:
        for _ in range(5):
            mats.append(rand_low_rank(rng, rows, cols, rng.randint(0, min(rows, cols))))
    return mats


def pivot_columns_oracle(m: ExactMatrix) -> list[int]:
    # column c is a pivot iff it is independent of the columns before it
    rows = range(m.rows)
    ranks = [rank_oracle(m.submatrix(rows, range(c))) for c in range(m.cols + 1)]
    return [c for c in range(m.cols) if ranks[c + 1] > ranks[c]]


# --- scalars ---------------------------------------------------------


def test_scalar_field_ops():
    a = G(Fraction(1, 2), Fraction(-3, 4))
    b = G(Fraction(2, 3), Fraction(5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (1 / a) == ONE if not a.is_zero() else True
    assert (a * b).conj() == a.conj() * b.conj()
    assert i_ * i_ == as_scalar(-1)
    assert a.abs2() == (a * a.conj()).re


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_scalar_format_roundtrip():
    cases = [
        (G(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
        (G(Fraction(0)), "0"),
        (G(Fraction(-2, 3)), "-2/3"),
        (G(Fraction(0), Fraction(1)), "0+1*i"),
        (G(Fraction(5)), "5"),
    ]
    for z, text in cases:
        assert format_scalar(z) == text
        assert parse_scalar(text) == z


def test_scalar_parse_variants():
    assert parse_scalar("i") == i_
    assert parse_scalar("-i") == -i_
    assert parse_scalar("3*i") == 3 * i_
    assert parse_scalar("1+i") == ONE + i_
    with pytest.raises(ValueError):
        parse_scalar("x")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_scalar_random_field_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not b.is_zero():
            assert (a / b) * b == a


def test_rationalize_convergents():
    assert rationalize(1.4142135, 100) == Fraction(99, 70)
    assert rationalize(0.3333333, 10) == Fraction(1, 3)
    assert rationalize(0.5, 100) == Fraction(1, 2)
    assert rationalize(-2.0, 10) == Fraction(-2)


def test_rationalize_quality_bound():
    rng = random.Random(5)
    for _ in range(100):
        x = rng.uniform(-10, 10)
        cap = rng.choice([1, 7, 100, 10**4])
        r = rationalize(x, cap)
        assert 1 <= r.denominator <= cap
        if r != Fraction(x):
            assert abs(Fraction(x) - r) < Fraction(1, r.denominator * cap)


def test_rationalize_errors():
    with pytest.raises(ValueError):
        rationalize(float("nan"), 10)
    with pytest.raises(ValueError):
        rationalize(float("inf"), 10)
    with pytest.raises(ValueError):
        rationalize(0.5, 0)


# --- matrix basics ---------------------------------------------------


def test_matmul_identity_and_assoc():
    rng = random.Random(1)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    c = rand_matrix(rng, 2, 5)
    assert (a @ b) @ c == a @ (b @ c)
    assert ExactMatrix.identity(3) @ a == a
    assert a @ ExactMatrix.identity(4) == a


def test_conj_transpose_involution_and_product_rule():
    rng = random.Random(2)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    assert a.H.H == a
    assert (a @ b).H == b.H @ a.H


def test_kron_bilinear_and_transpose():
    rng = random.Random(3)
    a = rand_matrix(rng, 2, 3)
    a2 = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 2)
    assert (a + a2).kron(b) == a.kron(b) + a2.kron(b)
    assert a.kron(b).H == a.H.kron(b.H)
    # mixed product rule
    c = rand_matrix(rng, 3, 2)
    d = rand_matrix(rng, 2, 4)
    assert (a @ c).kron(b @ d) == a.kron(b) @ c.kron(d)


def test_kron_block_layout():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 5], [6, 0]])
    k = a.kron(b)
    # block (i, j) equals a[i, j] * b
    assert k[0, 1] == as_scalar(5)
    assert k[1, 0] == as_scalar(6)
    assert k[0, 3] == as_scalar(10)
    assert k[3, 2] == as_scalar(24)


# --- rank ------------------------------------------------------------


def test_rank_rank_one_outer_product():
    u = ExactMatrix.column([1, i_, 2])
    b = u @ u.H
    assert b.rank() == 1
    assert rank_oracle(b) == 1


def test_rank_spec_example_psd_rank_one():
    m = ExactMatrix.from_rows([[ONE, i_], [-i_, ONE]])
    assert m.rank() == 1
    assert m.is_psd()


def test_rank_random_vs_minor_oracle():
    rng = random.Random(11)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert m.rank() == rank_oracle(m)


def test_rank_invariance_under_invertible_factors():
    rng = random.Random(13)
    for _ in range(30):
        m = rand_matrix(rng, 3, 4)
        # random invertible = permuted triangular with nonzero diagonal
        def rand_invertible(n):
            t = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            for k in range(n):
                t[k][k] = as_scalar(rng.choice([1, 2, -1, 3]))
                for j in range(k):
                    t[k][j] = ZERO
            rows = list(range(n))
            rng.shuffle(rows)
            return ExactMatrix.from_rows([t[r] for r in rows])

        p = rand_invertible(3)
        q = rand_invertible(4)
        assert (p @ m @ q).rank() == m.rank()


def test_rank_kron_and_direct_sum_multiplicativity():
    rng = random.Random(17)
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        ra, rb = a.rank(), b.rank()
        assert a.kron(b).rank() == ra * rb
        assert a.direct_sum(b).rank() == ra + rb


# --- solve -----------------------------------------------------------


def test_solve_exactness_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = rand_matrix(rng, n, m)
        x_true = rand_matrix(rng, m, 1)
        b = a @ x_true
        x = a.solve(b)
        assert x is not None
        assert a @ x == b  # exact, no tolerance


def test_solve_inconsistent_returns_none():
    a = ExactMatrix.from_rows([[1, 1], [1, 1]])
    b = ExactMatrix.column([0, 1])
    assert a.solve(b) is None


def test_solve_underdetermined_particular_solution():
    a = ExactMatrix.from_rows([[1, 1, 0]])
    b = ExactMatrix.column([2])
    x = a.solve(b)
    assert x is not None and a @ x == b


def test_solve_leftover_row_with_only_rhs_entries():
    # after elimination the third row is zero in the columns of a and keeps
    # b[2] - b[0] - b[1] on the right: consistent only when that is zero
    a = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert a.solve(ExactMatrix.column([1, i_, 1])) is None
    assert a.solve(ExactMatrix.from_rows([[1, 0], [i_, 0], [1 + i_, 1]])) is None
    x = a.solve(ExactMatrix.column([1, i_, 1 + i_]))
    assert x == ExactMatrix.column([1, i_])


def test_solve_sets_free_variables_to_zero():
    rng = random.Random(37)
    for a in elimination_matrices(37):
        x_true = rand_matrix(rng, a.cols, 2)
        b = a @ x_true
        x = a.solve(b)
        assert x is not None and a @ x == b
        pivots = pivot_columns_oracle(a)
        for c in range(a.cols):
            if c not in pivots:
                assert x.row(c) == (ZERO, ZERO)


def test_solve_inconsistent_complex_systems_return_none():
    a = ExactMatrix.from_rows([[1, i_], [i_, -1]])  # row 2 = i * row 1
    assert a.solve(ExactMatrix.column([1, 0])) is None
    assert a.solve(ExactMatrix.column([1, i_])) is not None
    rng = random.Random(41)
    for a in elimination_matrices(41):
        b = rand_matrix(rng, a.rows, 1)
        augmented = ExactMatrix.from_rows([a.row(i) + b.row(i) for i in range(a.rows)])
        consistent = rank_oracle(augmented) == rank_oracle(a)
        assert (a.solve(b) is not None) == consistent


# --- rank factorization ----------------------------------------------


def test_rank_factorization_is_the_canonical_one():
    for a in elimination_matrices(43):
        p, q = rank_factorization(a)
        r = rank_oracle(a)
        assert p.shape == (a.rows, r) and q.shape == (r, a.cols)
        assert p @ q == a
        pivots = pivot_columns_oracle(a)
        assert p == a.submatrix(range(a.rows), pivots)
        # q is in reduced row echelon form with its leading ones at the pivots
        for t, c in enumerate(pivots):
            assert all(q[t, j].is_zero() for j in range(c))
            assert [q[u, c] for u in range(r)] == [ONE if u == t else ZERO for u in range(r)]


# --- is_psd ----------------------------------------------------------


def test_psd_gram_matrices():
    rng = random.Random(23)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        g = a.H @ a
        assert g.is_psd()
        assert psd_oracle(g)


def test_psd_zero_diagonal_rules():
    assert not ExactMatrix.from_rows([[0, 1], [1, 0]]).is_psd()
    assert ExactMatrix.from_rows([[0, 0], [0, 3]]).is_psd()
    assert ExactMatrix.zeros(3, 3).is_psd()


def test_psd_rejects_non_hermitian_and_negative():
    assert not ExactMatrix.from_rows([[1, 1], [0, 1]]).is_psd()
    assert not ExactMatrix.from_rows([[-1]]).is_psd()
    m = ExactMatrix.from_rows([[1, 2], [2, 1]])  # eigenvalues 3, -1
    assert not m.is_psd()


def test_psd_random_vs_principal_minor_oracle():
    rng = random.Random(29)
    agree_psd = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            a = rand_matrix(rng, rng.randint(1, 3), n)
            m = a.H @ a
        else:
            m = rand_matrix(rng, n, n)
            m = m + m.H  # Hermitian but often indefinite
        got = m.is_psd()
        assert got == psd_oracle(m)
        agree_psd += got
    assert 0 < agree_psd < 60  # both outcomes exercised


def test_psd_schur_hits_zero_diagonal_midway():
    # rank-1 PSD whose Schur complement develops a zero diagonal entry
    u = ExactMatrix.column([1, 1, i_])
    b = u @ u.H
    assert b.is_psd()
    v = ExactMatrix.column([1, -1, 0])
    m = b + v @ v.H
    assert m.is_psd() and psd_oracle(m)


def is_psd_reference(m: ExactMatrix, events=None) -> bool:
    """The dense Schur-complement loop over Q(i) that is_psd used to run.

    events, when given, collects "zero-row" and "zero-dropped" for the zero
    diagonal entries met after the first pivot.
    """
    if not m.is_hermitian():
        return False
    idx = list(range(m.rows))
    M = {(i, j): m[i, j] for i in idx for j in idx}
    pivoted = False
    while idx:
        drop = []
        for i in idx:
            d = M[(i, i)]
            if d.im != 0 or d.re < 0:
                return False
            if d.re == 0:
                if any(not M[(i, j)].is_zero() for j in idx):
                    if pivoted and events is not None:
                        events.add("zero-row")
                    return False
                drop.append(i)
        if drop:
            if pivoted and events is not None:
                events.add("zero-dropped")
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
        pivoted = True
    return True


def random_hermitian(rng):
    """Sparse or dense, real or complex: a Gram matrix (PSD, rank-deficient
    when it has fewer factor rows than columns), a Gram matrix with one
    diagonal entry lowered or with one off-diagonal pair bumped (which
    leaves a zero Schur diagonal entry next to a nonzero one when the Gram
    matrix is singular), or B + B^H (mostly indefinite)."""
    n = rng.randint(1, 6)
    density = rng.choice([0.2, 0.5, 1.0])
    real = rng.random() < 0.4

    def entries(rows):
        return [
            [rand_scalar(rng, real) if rng.random() < density else ZERO for _ in range(n)]
            for _ in range(rows)
        ]

    kind = rng.choice(["gram", "gram", "lowered", "bumped", "sum"])
    if kind == "sum":
        b = ExactMatrix.from_rows(entries(n))
        return b + b.H
    k = rng.randint(1, n)
    a = ExactMatrix.from_rows(entries(k))
    g = a.H @ a
    if kind == "lowered":
        j = rng.randrange(n)
        cut = g[j, j] * as_scalar(rng.choice([Fraction(1, 2), 1, 1, 2]))
        g = g - ExactMatrix.from_nonzeros(n, n, {j * n + j: cut})
    if kind == "bumped" and n > 1:
        a, b = rng.sample(range(n), 2)
        z = rand_scalar(rng, real) or ONE
        g = g + ExactMatrix.from_nonzeros(n, n, {a * n + b: z, b * n + a: z.conj()})
    return g


def test_psd_matches_the_schur_reference_and_the_minor_oracle():
    rng = random.Random(20261019)
    events = set()
    outcomes = []
    for _ in range(400):
        m = random_hermitian(rng)
        got = m.is_psd()
        assert got == is_psd_reference(m, events)
        if m.rows <= 4:
            assert got == psd_oracle(m)
        outcomes.append(got)
    assert 100 < sum(outcomes) < 300  # both outcomes, many times
    assert events == {"zero-row", "zero-dropped"}  # zero diagonals midway


def test_psd_on_the_lifted_pentagon_square_factor():
    from zerocap.certificates import constructed_certificate

    c5 = NcGraph.from_graph(cycle_graph(5))
    cert, method = constructed_certificate(tensor(c5, c5))
    g = cert.C.H @ cert.C
    assert method == "fitting-lift" and g.shape == (625, 625)
    assert g.is_psd()
    assert not (-g).is_psd()
    # zero the diagonal entry of a row that holds more: a negative 2x2 minor
    nz = g.nonzeros()
    p = next(k // 625 for k in nz if k // 625 != k % 625)
    del nz[p * 626]
    assert not ExactMatrix.from_nonzeros(625, 625, nz).is_psd()


# --- sparse echelon ---------------------------------------------------


def numerator_row(row):
    """A sparse Q(i) row as the Z[i] numerators of the 1-row matrix it makes."""
    return ExactMatrix.from_nonzeros(1, 1 + max(row, default=-1), row).numerators()[0]


def test_sparse_rref_canonical_for_equal_spans():
    rows = [
        {0: ONE, 2: i_},
        {1: as_scalar(2)},
    ]
    # random invertible combinations of the same rows
    mixed = [
        {k: v * 3 for k, v in rows[0].items()},
        {
            k: rows[0].get(k, ZERO) + rows[1].get(k, ZERO)
            for k in set(rows[0]) | set(rows[1])
        },
    ]
    assert sparse_rref(map(numerator_row, rows)) == sparse_rref(map(numerator_row, mixed))


def test_sparse_rref_reduce_membership():
    scale, basis = sparse_rref([{0: (1, 0), 1: (1, 0)}, {2: (1, 0)}])
    inside = {0: (2, 0), 1: (2, 0), 2: (0, 1)}
    outside = {0: (1, 0)}
    assert reduce_row(inside, basis, scale) == {}
    assert reduce_row(outside, basis, scale) != {}


def reduce_row_reference(row, echelon):
    """The Q(i) remainder that reduce_row used to compute: row eliminated
    against the (pivot, row) pairs of a reduced echelon form, in order."""
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


def sparse_rref_reference(rows):
    """The Gauss-Jordan loop over Q(i) that sparse_rref used to run itself."""
    echelon = []  # (pivot coord, row), sorted
    for row in rows:
        row = reduce_row_reference(row, echelon)
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


def integer_basis_reference(canon):
    """(s, {pivot: s * row}) for the rows of sparse_rref_reference, with s > 0
    the lcm of all their denominators and the pivot a row's leading coordinate."""
    scale = math.lcm(*(d for row in canon for x in row.values()
                       for d in (x.re.denominator, x.im.denominator)))
    return scale, {
        min(row): {j: ((x.re * scale).numerator, (x.im * scale).numerator)
                   for j, x in row.items()}
        for row in canon
    }


def random_span_rows(rng):
    """Generators of a random span: zero-heavy or dense, complex-rational,
    with dependent, repeated and all-zero generators mixed in."""
    width = rng.randint(1, 12)
    density = rng.choice([0.1, 0.3, 1.0])
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = {}
        for c in range(width):
            if rng.random() < density:
                row[c] = rand_scalar(rng, real=rng.random() < 0.3)
        rows.append(row)
    for _ in range(rng.randint(0, 3)):  # combinations of earlier rows
        combo = {}
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            f = rand_scalar(rng)
            for c, v in row.items():
                combo[c] = combo.get(c, ZERO) + f * v
        rows.append(combo)  # may hold explicit zeros where terms cancel
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
    rows += [{}, {rng.randrange(width): ZERO}][: rng.randint(0, 2)]
    rng.shuffle(rows)
    return rows


def test_sparse_rref_matches_the_q_i_reference():
    rng = random.Random(1011)
    seen_ranks = set()
    for _ in range(120):
        rows = random_span_rows(rng)
        ints = [numerator_row(row) for row in rows]
        before = [dict(row) for row in ints]
        got = sparse_rref(ints)
        assert got == integer_basis_reference(sparse_rref_reference(rows))
        assert ints == before  # the generators are not modified
        seen_ranks.add(len(got[1]))
    assert seen_ranks >= set(range(7))


# --- sparse storage against a dense reference -------------------------

SPARSE_POOL = [
    G(Fraction(a, b), Fraction(c)) for a in (-1, 1, 2) for b in (1, 2) for c in (-1, 0, 1)
]


def zero_heavy(rng, rows, cols):
    """Dense list-of-lists with about seven entries in ten zero.

    The small value pool makes sums cancel to zero now and then, so the
    arithmetic has to drop entries it creates as well as skip absent ones.
    """
    return [
        [rng.choice(SPARSE_POOL) if rng.random() < 0.3 else ZERO for _ in range(cols)]
        for _ in range(rows)
    ]


def assert_matches(mat, ref, rows, cols):
    assert mat.shape == (rows, cols)
    assert mat.to_list() == ref
    assert [mat.row(i) for i in range(rows)] == [tuple(r) for r in ref]
    assert mat.vec() == tuple(x for r in ref for x in r)
    assert mat.to_strings() == [[format_scalar(x) for x in r] for r in ref]
    assert mat.nonzeros() == {
        i * cols + j: x
        for i, r in enumerate(ref)
        for j, x in enumerate(r)
        if not x.is_zero()
    }
    assert mat.is_zero() == all(x.is_zero() for r in ref for x in r)
    for i in range(rows):
        for j in range(cols):
            assert mat[i, j] == ref[i][j]
    want = [[complex(float(x.re), float(x.im)) for x in r] for r in ref]
    assert mat.to_complex().tolist() == want
    # canonical form: a positive denominator sharing no factor with the numerators
    nz, den = mat.numerators()
    assert den > 0 and math.gcd(den, *(x for v in nz.values() for x in v)) == 1
    assert (0, 0) not in nz.values()
    assert ExactMatrix.from_numerators(rows, cols, nz, den) == mat


def test_sparse_operations_match_a_dense_reference():
    rng = random.Random(20261018)
    for _ in range(60):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a_ref, b_ref = zero_heavy(rng, n, k), zero_heavy(rng, n, k)
        c_ref = zero_heavy(rng, k, m)
        a, b = ExactMatrix.from_rows(a_ref), ExactMatrix(n, k, [x for r in b_ref for x in r])
        c = ExactMatrix.from_strings([[format_scalar(x) for x in r] for r in c_ref])
        assert_matches(a, a_ref, n, k)
        assert_matches(b, b_ref, n, k)
        assert_matches(c, c_ref, k, m)
        z = rng.choice(SPARSE_POOL + [ZERO])

        assert_matches(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a_ref, b_ref)], n, k)
        assert_matches(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a_ref, b_ref)], n, k)
        assert_matches(-a, [[-x for x in r] for r in a_ref], n, k)
        assert_matches(a.scale(z), [[z * x for x in r] for r in a_ref], n, k)
        product = [
            [sum((a_ref[i][t] * c_ref[t][j] for t in range(k)), ZERO) for j in range(m)]
            for i in range(n)
        ]
        assert_matches(a @ c, product, n, m)
        assert_matches(a.conj_transpose(), [[a_ref[i][j].conj() for i in range(n)]
                                            for j in range(k)], k, n)
        kron = [
            [a_ref[i][j] * c_ref[r][s] for j in range(k) for s in range(m)]
            for i in range(n) for r in range(k)
        ]
        assert_matches(a.kron(c), kron, n * k, k * m)
        dsum = [r + [ZERO] * m for r in a_ref] + [[ZERO] * k + r for r in c_ref]
        assert_matches(a.direct_sum(c), dsum, n + k, k + m)
        row_idx = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
        col_idx = [rng.randrange(k) for _ in range(rng.randint(0, 3))]
        assert_matches(a.submatrix(row_idx, col_idx),
                       [[a_ref[i][j] for j in col_idx] for i in row_idx],
                       len(row_idx), len(col_idx))
        stacked = hstack([a, b, -a])
        assert_matches(stacked, [r + s + [-x for x in r] for r, s in zip(a_ref, b_ref)],
                       n, 3 * k)
        assert column_blocks(stacked, k) == [a, b, -a]

        assert (a == b) == (a_ref == b_ref)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a == ExactMatrix.from_nonzeros(n, k, a.nonzeros())
        w = rng.choice([d for d in range(1, k + 1) if k % d == 0])
        third = Fraction(1, 3)
        for same in (a + b - b, hstack(column_blocks(a, w)), a.scale(3).scale(third)):
            assert same == a and hash(same) == hash(a)
            assert same.numerators() == a.numerators()


def test_kernel_rows_are_primitive():
    # Row scaling changes neither rank, solve nor the RREF, but the kernel's
    # integers grow with its input's.  Handing it the rows over the whole
    # matrix's common denominator instead of primitive rows made the failing
    # search haemers_upper_search(NcGraph.from_graph(cycle_graph(5)), 3,
    # m_schedule=[2], budget=8) take 143 s instead of 4.6 s (2-core machine).
    rng = random.Random(1521)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = ExactMatrix.from_rows(zero_heavy(rng, rows, cols)).scale(rand_scalar(rng) or ONE)
        a = a + ExactMatrix.from_rows([[rand_scalar(rng, real=True)] * cols] * rows)
        kernel_rows = _integer_rows(a)
        assert len(kernel_rows) == rows
        for i, row in enumerate(kernel_rows):
            assert math.gcd(*(x for v in row.values() for x in v)) == (1 if row else 0)
            assert (0, 0) not in row.values()
            # a positive rational multiple of row i of a
            ref = {j: x for j, x in enumerate(a.row(i)) if not x.is_zero()}
            assert set(row) == set(ref)
            if ref:
                j0 = min(ref)
                c = G(*row[j0]) / ref[j0]
                assert c.im == 0 and c.re > 0
                assert all(G(*row[j]) == c * x for j, x in ref.items())


def test_sparse_storage_ignores_how_zeros_were_written():
    ref = [[ZERO, G(Fraction(1, 2), Fraction(-1))], [ZERO, ZERO], [ONE, ZERO]]
    from_scalars = ExactMatrix.from_rows(ref)
    flat = ExactMatrix(3, 2, [x for r in ref for x in r])
    texts = ExactMatrix.from_strings(
        [["0", "1/2-1*i"], ["0/3", "-0"], ["1", "0+0*i"]]
    )
    assert from_scalars == flat == texts
    assert hash(from_scalars) == hash(flat) == hash(texts)
    assert texts.nonzeros() == {1: ref[0][1], 4: ONE}
    assert texts.to_strings() == [["0", "1/2-1*i"], ["0", "0"], ["1", "0"]]


def test_sparse_arithmetic_stores_no_zeros():
    rng = random.Random(7)
    x = ExactMatrix.from_rows(zero_heavy(rng, 4, 5))
    assert (x - x).nonzeros() == {} and x - x == ExactMatrix.zeros(4, 5)
    assert (x + (-x)).nonzeros() == {}
    for zero in (0, Fraction(0), ZERO):
        assert x.scale(zero).nonzeros() == {} and x.scale(zero) == ExactMatrix.zeros(4, 5)
    assert (x @ ExactMatrix.zeros(5, 2)).nonzeros() == {}
    assert ExactMatrix.from_nonzeros(2, 2, {0: ZERO, 3: ONE}).nonzeros() == {3: ONE}
    with pytest.raises(ValueError):
        ExactMatrix.from_nonzeros(2, 2, {4: ONE})


@pytest.mark.parametrize(
    "data",
    [[[0, "1"]], [["1", "0"], ["1"]], [["1"], "0"], [["1/0", "0"]], "0", [["0", None]]],
    ids=["int-zero", "ragged", "row-not-a-list", "zero-denominator", "not-a-list", "none"],
)
def test_from_strings_rejections(data):
    with pytest.raises(ValueError):
        ExactMatrix.from_strings(data)


# --- span membership against the Q(i) remainder -------------------------


def random_unitary(rng, n):
    """A product of rotations [[3/5, 4i/5], [4i/5, 3/5]] on random coordinate
    pairs and a diagonal of powers of i: exact, complex and dense."""
    u = ExactMatrix.from_nonzeros(
        n, n, {j * n + j: [ONE, i_, -ONE, -i_][rng.randrange(4)] for j in range(n)}
    )
    for _ in range(2 * n):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        r = {j * n + j: ONE for j in range(n) if j not in (a, b)}
        r[a * n + a] = r[b * n + b] = as_scalar(Fraction(3, 5))
        r[a * n + b] = r[b * n + a] = G(Fraction(0), Fraction(4, 5))
        u = u @ ExactMatrix.from_nonzeros(n, n, r)
    return u


def test_membership_matches_the_q_i_remainder():
    rng = random.Random(1519)
    members = outsiders = conjugated = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        gens = [
            ExactMatrix.from_rows(zero_heavy(rng, n, n) if rng.random() < 0.5
                                  else [[rand_scalar(rng) for _ in range(n)] for _ in range(n)])
            for _ in range(rng.randint(0, n * n))
        ]
        s = NcGraph.span_from_generators(n, gens)
        if rng.random() < 0.5:
            s = conjugate_by_unitary(s, random_unitary(rng, n))
            conjugated += 1
        canon = [b.nonzeros() for b in s.basis]
        echelon = [(min(r), r) for r in canon]
        scale, basis = integer_basis_reference(canon)
        assert basis == s.integer_rows
        probes = [rand_matrix(rng, n, n), ExactMatrix.zeros(n, n)]
        for _ in range(2):
            combo = ExactMatrix.zeros(n, n)
            for b in s.basis:
                combo = combo + b.scale(rand_scalar(rng))
            probes.append(combo)
        for x in probes:
            nz = x.nonzeros()
            want = reduce_row_reference(nz, echelon)
            got = reduce_row(x.numerators()[0], basis, scale)
            # the Z[i] remainder is s * t times the Q(i) one, t the scale of x
            t = math.lcm(*(d for v in nz.values() for d in (v.re.denominator, v.im.denominator)))
            assert got == {c: (v.re * scale * t, v.im * scale * t) for c, v in want.items()}
            assert s.contains(x) == (not want)
            members += not want
            outsiders += bool(want)
    assert members > 200 and outsiders > 50 and conjugated > 50
