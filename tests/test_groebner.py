"""Buchberger engine and rank-feasibility encodings.

Frozen expectations were derived by hand before the implementation ran:
the scalar-identity factor encoding at (k=1, m=1) was expanded on paper
(variable count, constraint list after deduplication), and the small
cofactor identities were computed manually.
"""

import random
from fractions import Fraction

import pytest

from zerocap.groebner import (
    CPoly,
    IdealDecision,
    Polynomial,
    buchberger,
    check_cofactors,
    degrevlex_key,
    encode_rank_feasibility,
    mon_div,
    mon_lcm,
    mon_mul,
    system_from_text,
    system_to_text,
)
from zerocap.ncgraph import (
    diagonal_system,
    full_matrix_system,
    scalar_identity_system,
)


def P(text: str, nvars: int) -> Polynomial:
    return Polynomial.from_text(text, nvars)


# -- polynomial arithmetic and text format ------------------------------


def test_arithmetic_basics():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x + one) * (x + one) == x * x + x.scale(2) + one
    assert p.degree() == 2
    assert not p.is_constant()
    assert Polynomial.constant(2, Fraction(3, 4)).is_constant()


def test_text_format_exact():
    p = P("2*x1^2*x3 - 1/2*x2 + 1", 3)
    assert p.to_text() == "2*x1^2*x3 - 1/2*x2 + 1"
    assert Polynomial(3).to_text() == "0"
    assert Polynomial.from_text("0", 3).is_zero()
    assert P("-x1", 1).to_text() == "-x1"
    assert P("x1 - x1", 1).is_zero()


def test_text_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mon = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[mon] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Polynomial(nvars, terms)
        assert Polynomial.from_text(p.to_text(), nvars) == p


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.from_text("x1 $ x2", 2)
    with pytest.raises(ValueError):
        Polynomial.from_text("x5", 2)


def test_system_text_roundtrip():
    polys = [P("x1*x2 - 1", 2), P("x1^2 - x2", 2)]
    text = system_to_text(polys)
    assert system_from_text(text, 2) == polys


def test_degrevlex_order_frozen():
    # degree-2 monomials in three variables, descending; the position of
    # x1*x3 below x2^2 is what separates degrevlex from plain deglex
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(mons, key=degrevlex_key, reverse=True) == mons


def test_monomial_helpers():
    assert mon_mul((1, 2), (0, 1)) == (1, 3)
    assert mon_div((1, 3), (0, 1)) == (1, 2)
    assert mon_div((1, 0), (0, 1)) is None
    assert mon_lcm((2, 0), (1, 1)) == (2, 1)


# -- CPoly splitting -----------------------------------------------------


def test_cpoly_split():
    # (x1 + i*x2) * (x1 - i*x2) = x1^2 + x2^2, purely real
    from zerocap.exactlinalg import parse_scalar

    a = CPoly.variable(2, 0) + CPoly.variable(2, 1, parse_scalar("i"))
    b = CPoly.variable(2, 0) + CPoly.variable(2, 1, parse_scalar("-i"))
    re, im = (a * b).split()
    assert re == P("x1^2 + x2^2", 2)
    assert im.is_zero()
    re2, im2 = a.split()
    assert re2 == P("x1", 2)
    assert im2 == P("x2", 2)


# -- buchberger ----------------------------------------------------------


def test_unit_ideal_with_cofactors():
    gens = [P("x1^2", 1), P("x1 + 1", 1)]
    dec = buchberger(gens)
    assert dec.status == "no-common-root"
    assert check_cofactors(gens, dec.cofactors)
    # hand-derived representation: 1*x^2 + (1 - x)*(x + 1) = 1
    assert dec.cofactors == [P("1", 1), P("1 - x1", 1)]


def test_linear_contradiction():
    gens = [P("x1 + x2", 2), P("x1 - x2", 2), P("x1 + 1", 2)]
    dec = buchberger(gens)
    assert dec.status == "no-common-root"
    assert check_cofactors(gens, dec.cofactors)


def test_complex_root_exists_despite_no_real_one():
    # the circle x^2 + y^2 = 1 and the line x + y = 2 miss each other in
    # the real plane but meet at complex points, so the ideal is proper
    gens = [P("x1^2 + x2^2 - 1", 2), P("x1 + x2 - 2", 2)]
    dec = buchberger(gens)
    assert dec.status == "has-common-root-or-unknown"
    assert dec.cofactors is None
    assert len(dec.basis) >= 2


def test_common_root_univariate():
    dec = buchberger([P("x1^2 - 1", 1), P("x1 - 1", 1)])
    assert dec.status == "has-common-root-or-unknown"


def test_constant_generator_shortcut():
    gens = [P("x1", 1), P("3", 1)]
    dec = buchberger(gens)
    assert dec.status == "no-common-root"
    assert check_cofactors(gens, dec.cofactors)
    assert dec.cofactors[1] == Polynomial.constant(1, Fraction(1, 3))


def test_degree_cap_triggers_timeout():
    gens = [P("x1*x2 - 1", 2), P("x1^2 - x2", 2)]
    assert buchberger(gens, degree_cap=1).status == "timeout"
    assert buchberger(gens).status == "has-common-root-or-unknown"


def test_time_budget_triggers_timeout():
    gens = [P("x1*x2 - 1", 2), P("x1^2 - x2", 2)]
    assert buchberger(gens, time_budget=0.0).status == "timeout"


def test_empty_and_zero_generators():
    assert buchberger([]).status == "has-common-root-or-unknown"
    dec = buchberger([Polynomial(2), P("x1", 2)])
    assert dec.status == "has-common-root-or-unknown"


def test_check_cofactors_rejects_wrong_combination():
    gens = [P("x1^2", 1), P("x1 + 1", 1)]
    assert not check_cofactors(gens, [P("1", 1), P("1", 1)])
    assert not check_cofactors(gens, [P("1", 1)])


def test_determinism():
    gens = [P("x1^2 + x2^2 - 1", 2), P("x1*x2 - 1", 2), P("x1 + x2", 2)]
    d1 = buchberger(gens)
    d2 = buchberger(gens)
    assert d1.status == d2.status
    assert d1.basis == d2.basis


# -- rank feasibility encodings ------------------------------------------


def test_factor_encoding_frozen_counts():
    # hand expansion for span{I_2}, k=1, m=1: eight real variables; the
    # seven complex constraints (three annihilator, four trace entries)
    # split into fourteen real polynomials, and deduplication removes the
    # two repeated off-diagonal pairs, leaving ten
    enc = encode_rank_feasibility(scalar_identity_system(2), k=1, m=1)
    assert enc.encoding == "factor"
    assert len(enc.var_names) == 8
    assert len(enc.polynomials) == 10
    assert all(p.nvars == 8 for p in enc.polynomials)
    assert all(p.degree() <= 2 for p in enc.polynomials)


def test_factor_encoding_infeasible_has_certificate():
    # a rank-1 B cannot satisfy B = I_2, and Buchberger proves it
    enc = encode_rank_feasibility(scalar_identity_system(2), k=1, m=1)
    dec = buchberger(enc.polynomials)
    assert dec.status == "no-common-root"
    assert check_cofactors(enc.polynomials, dec.cofactors)


def test_factor_encoding_diagonal_infeasible():
    enc = encode_rank_feasibility(diagonal_system(2), k=1, m=1)
    dec = buchberger(enc.polynomials)
    assert dec.status == "no-common-root"
    assert check_cofactors(enc.polynomials, dec.cofactors)


def test_factor_encoding_feasible_completes():
    # the full 1x1 matrix algebra admits B = [1] at rank 1
    enc = encode_rank_feasibility(full_matrix_system(1), k=1, m=1)
    dec = buchberger(enc.polynomials)
    assert dec.status == "has-common-root-or-unknown"


def test_factor_encoding_k0():
    # k = 0 forces B = 0, contradicting the trace condition outright
    enc = encode_rank_feasibility(scalar_identity_system(2), k=0, m=1)
    dec = buchberger(enc.polynomials)
    assert dec.status == "no-common-root"


def test_minor_encoding_frozen_counts():
    # span{I_2}, k=1, m=1 in span coordinates: one complex variable z,
    # trace gives re(z)=1, im(z)=0, and the single 2x2 minor det(z*I)=z^2
    # splits into two more polynomials
    enc = encode_rank_feasibility(scalar_identity_system(2), k=1, m=1, encoding="minor")
    assert enc.encoding == "minor"
    assert len(enc.var_names) == 2
    assert len(enc.polynomials) == 4
    dec = buchberger(enc.polynomials)
    assert dec.status == "no-common-root"
    assert check_cofactors(enc.polynomials, dec.cofactors)


def test_minor_encoding_guard():
    with pytest.raises(ValueError):
        encode_rank_feasibility(full_matrix_system(3), k=4, m=4, encoding="minor")


def test_encoding_validation():
    s = scalar_identity_system(2)
    with pytest.raises(ValueError):
        encode_rank_feasibility(s, k=-1, m=1)
    with pytest.raises(ValueError):
        encode_rank_feasibility(s, k=1, m=0)
    with pytest.raises(ValueError):
        encode_rank_feasibility(s, k=1, m=1, encoding="banana")


def test_encoding_deterministic():
    s = diagonal_system(2)
    a = encode_rank_feasibility(s, k=1, m=2)
    b = encode_rank_feasibility(s, k=1, m=2)
    assert system_to_text(a.polynomials) == system_to_text(b.polynomials)
    assert a.var_names == b.var_names
