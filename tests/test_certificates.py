"""Rank certificates: verification, transformations, search, exact decision."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from zerocap.certificates import (
    HaemersCertificate,
    TpMapCertificate,
    VerificationError,
    cohomomorphism_apply,
    compression_lower_bound,
    conjugate_certificate,
    constructed_certificate,
    direct_sum_certificate,
    from_tp_map,
    full_matrix_certificate,
    haemers_exact_decide,
    haemers_lower,
    haemers_upper_search,
    homomorphism_kraus,
    identity_certificate,
    independent_witness_kraus,
    lift_graph_certificate,
    project_to_graph_certificate,
    random_certificate,
    tensor_certificate,
    to_tp_map,
    verify_certificate,
    verify_tp_map,
    verify_xi_certificate,
)
from zerocap.certificates import _four_square
import zerocap.certificates as certificates_module
import zerocap.search as search_module
from zerocap.classical import (
    FittingMatrix,
    gram_fitting_matrix,
    pentagon_representation,
    random_fitting_matrix,
    unit_diagonal_form,
    verify_fitting,
)
from zerocap.exactlinalg import (
    ExactMatrix,
    GaussianRational,
    column_blocks,
    parse_scalar,
    rank_factorization,
)
from zerocap.graphs import complete_graph, cycle_graph, empty_graph, independence_number, strong_product
from zerocap.independence import IndependentSystem, verify_independent
from zerocap.ncgraph import (
    NcGraph,
    conjugate_by_unitary,
    constant_diagonal_system,
    corner_family,
    corner_family_reference,
    diagonal_system,
    direct_sum_nc,
    full_matrix_system,
    scalar_identity_system,
    tensor,
)


def rational_unit(rng, m):
    """Exact unit vector in Q(i)^m via the rational sphere parametrization.

    For any rational g, the vector (2 g, 1 - |g|^2) / (1 + |g|^2) has
    exact norm 1; entries of g are drawn with small random numerators.
    """
    g = [
        GaussianRational(
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
        )
        for _ in range(m - 1)
    ]
    norm = sum((x.abs2() for x in g), Fraction(0))
    scale = GaussianRational(1 / (1 + norm))
    out = [x * GaussianRational(Fraction(2)) * scale for x in g]
    out.append(GaussianRational(1 - norm) * scale)
    assert sum((x.abs2() for x in out), Fraction(0)) == 1
    return out


# -- types ----------------------------------------------------------------


def test_certificate_validation():
    with pytest.raises(ValueError):
        HaemersCertificate(n=2, m=1, k=1, C=ExactMatrix.zeros(1, 3), D=ExactMatrix.zeros(1, 2))
    with pytest.raises(ValueError, match="sanity cap"):
        HaemersCertificate(n=1, m=2, k=1, C=ExactMatrix.zeros(1, 2), D=ExactMatrix.zeros(1, 2))
    with pytest.raises(ValueError):
        HaemersCertificate(n=2, m=1, k=0, C=ExactMatrix.zeros(0, 2), D=ExactMatrix.zeros(0, 2))


def test_certificate_json_round_trip():
    cert = full_matrix_certificate(3)
    data = json.loads(json.dumps(cert.to_json_dict()))
    assert HaemersCertificate.from_json_dict(data) == cert


def test_tp_map_json_round_trip():
    tp = to_tp_map(full_matrix_system(2), full_matrix_certificate(2))
    data = json.loads(json.dumps(tp.to_json_dict()))
    assert TpMapCertificate.from_json_dict(data) == tp


# -- verify_certificate ----------------------------------------------------


def test_full_matrix_algebra_rank_one():
    for n in range(1, 5):
        cert = full_matrix_certificate(n)
        assert cert.m == n and cert.k == 1
        assert verify_certificate(full_matrix_system(n), cert) == 1


def test_scalar_identity_span_rank_n():
    for n in range(1, 5):
        assert verify_certificate(scalar_identity_system(n), identity_certificate(n)) == n


def test_diagonal_span_rank_n():
    for n in range(1, 5):
        assert verify_certificate(diagonal_system(n), identity_certificate(n)) == n


def test_constant_diagonal_span_rank_two():
    # identity certificate is tight here: the span is a proper subspace of
    # M_2, so rank 1 is impossible, and B = I_2 gives exactly 2
    assert verify_certificate(constant_diagonal_system(2), identity_certificate(2)) == 2


def test_corner_family_rank_three_beats_reference():
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        rank = verify_certificate(corner_family(c), identity_certificate(3))
        assert rank == 3
        assert corner_family_reference(c) >= 4 > rank


def test_trace_violation_detected():
    doubled = ExactMatrix.identity(2).scale(2)
    cert = HaemersCertificate(n=2, m=1, k=2, C=ExactMatrix.identity(2), D=doubled)
    with pytest.raises(VerificationError) as err:
        verify_certificate(scalar_identity_system(2), cert)
    assert err.value.kind == "trace"


def test_membership_violation_reports_block():
    # B = E_00 is not a multiple of the identity
    bad = ExactMatrix.from_strings([["1", "0"], ["0", "0"]])
    cert = HaemersCertificate(n=2, m=1, k=2, C=ExactMatrix.identity(2), D=bad)
    with pytest.raises(VerificationError) as err:
        verify_certificate(scalar_identity_system(2), cert)
    assert err.value.kind == "block-membership"
    assert err.value.where == (0, 0)


def test_ambient_dimension_mismatch():
    with pytest.raises(VerificationError):
        verify_certificate(scalar_identity_system(3), identity_certificate(2))


def test_non_operator_system_warns():
    offdiag = NcGraph(2, [{1: (1, 0)}])  # span of a single off-diagonal unit
    cert = HaemersCertificate(
        n=2, m=1, k=1,
        C=ExactMatrix.from_strings([["1", "0"]]),
        D=ExactMatrix.from_strings([["0", "1"]]),
    )
    with pytest.warns(UserWarning, match="not an operator system"):
        with pytest.raises(VerificationError):
            verify_certificate(offdiag, cert)


def test_rank_matches_float_oracle_on_random_certificates():
    rng = np.random.default_rng(11)
    for s in (scalar_identity_system(2), diagonal_system(3), constant_diagonal_system(3)):
        for m in (1, 2):
            cert = random_certificate(s, m, rng)
            exact = verify_certificate(s, cert)
            numeric = np.linalg.matrix_rank(cert.matrix().to_complex(), tol=1e-9)
            assert exact == numeric == cert.k


def _block_loop_verify(s, cert):
    """The verifier before B was read once as Z[i] rows, kept as an oracle.

    It cuts C^dag D into m^2 n x n ExactMatrix blocks, tests each with
    NcGraph.contains, sums the diagonal blocks as an ExactMatrix and takes
    the rank of Q D for C^dag = P Q, the rank factorization of the tall
    mn x k matrix C^dag.
    """
    if s.dim == 0:
        raise VerificationError("span has empty basis", kind="empty-span")
    if cert.n != s.n:
        raise VerificationError(
            f"certificate ambient dimension {cert.n} != span dimension {s.n}",
            kind="shape",
        )
    n = cert.n
    total = ExactMatrix.zeros(n, n)
    for i, c_i in enumerate(column_blocks(cert.C, n)):
        for j, blk in enumerate(column_blocks(c_i.conj_transpose() @ cert.D, n)):
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
            "diagonal blocks of C^dag D do not sum to the identity", kind="trace"
        )
    _, q = rank_factorization(cert.C.conj_transpose())
    rank = 0 if q.rows == 0 else (q @ cert.D).rank()
    if rank > cert.k:
        raise VerificationError(
            f"rank {rank} exceeds the claimed bound k = {cert.k}", kind="rank"
        )
    return rank


def _outcome(verify, s, cert):
    try:
        return ("ok", verify(s, cert))
    except VerificationError as exc:
        return (exc.kind, exc.where, str(exc))


def _single_entry_mutations(cert):
    """cert with one entry of C or D raised by 1, raised by i, or set to 0."""
    steps = (
        lambda x: x + 1,
        lambda x: x + GaussianRational(0, 1),
        lambda x: GaussianRational(0),
    )
    for name in ("C", "D"):
        factor = getattr(cert, name)
        entries = factor.nonzeros()
        for idx in range(factor.rows * factor.cols):
            old = entries.get(idx, GaussianRational(0))
            for step in steps:
                new = step(old)
                if new != old:
                    changed = ExactMatrix.from_nonzeros(
                        factor.rows, factor.cols, {**entries, idx: new}
                    )
                    yield replace(cert, **{name: changed})


def test_verifier_agrees_with_the_block_loop_on_every_single_entry_mutation():
    rng = np.random.default_rng(3)
    pentagon = unit_diagonal_form(
        gram_fitting_matrix(cycle_graph(5), pentagon_representation())
    )
    cases = [
        (diagonal_system(3), identity_certificate(3)),
        (full_matrix_system(2), full_matrix_certificate(2)),
        (NcGraph.from_graph(cycle_graph(5)), lift_graph_certificate(pentagon)),
    ]
    # the spans above are closed under transposition; a complex rotation of
    # the diagonal span is not, so it tells block (i, j) from its transpose
    i45 = GaussianRational(0, Fraction(4, 5))
    rotated = conjugate_by_unitary(
        diagonal_system(2), ExactMatrix.from_rows([[Fraction(3, 5), i45], [i45, Fraction(3, 5)]])
    )
    for s in (
        scalar_identity_system(2), diagonal_system(3), constant_diagonal_system(3), rotated
    ):
        cases += [(s, random_certificate(s, m, rng)) for m in (1, 2)]
    # rank 1 at k = 2: one factor has a zero row, so the rank must come
    # from C^dag D, not from C or D alone
    u = ExactMatrix.from_rows([[1, 0, 0, 1], [0, 0, 0, 0]])
    v = ExactMatrix.from_rows([[1, 0, 0, 1], [1, 0, 0, 0]])
    for c, d in ((u, v), (v, u)):
        cases.append((full_matrix_system(2), HaemersCertificate(n=2, m=2, k=2, C=c, D=d)))
    kinds = set()
    for s, cert in cases:
        assert _outcome(verify_certificate, s, cert)[0] == "ok"
        for mutated in (cert, *_single_entry_mutations(cert)):
            new = _outcome(verify_certificate, s, mutated)
            assert new == _outcome(_block_loop_verify, s, mutated)
            kinds.add(new[0])
    # rank(C^dag D) <= k holds by shape, so no mutation reaches the rank check
    assert kinds == {"ok", "block-membership", "trace"}


# -- verify_xi_certificate ---------------------------------------------------


def test_xi_requires_equal_factors():
    cert = HaemersCertificate(
        n=2, m=1, k=2, C=ExactMatrix.identity(2), D=ExactMatrix.identity(2).scale(-1)
    )
    with pytest.raises(VerificationError) as err:
        verify_xi_certificate(scalar_identity_system(2), cert)
    assert err.value.kind == "factor-mismatch"


def test_xi_diagonal_identity():
    for n in (1, 2, 3, 4):
        assert verify_xi_certificate(diagonal_system(n), identity_certificate(n)) == n


def test_xi_full_matrix_rank_one():
    # the block-basis vector gives a PSD rank-1 certificate for M_2
    assert verify_xi_certificate(full_matrix_system(2), full_matrix_certificate(2)) == 1


def test_xi_scalar_identity_rank_at_least_n():
    # every PSD certificate for a span of identity multiples is a Kronecker
    # product (PSD m x m) x I_n with unit trace, so its rank is a positive
    # multiple of n; exercised on random exact unit vectors
    rng = np.random.default_rng(23)
    for n in (2, 3):
        s = scalar_identity_system(n)
        for m in (2, 3, 4):
            mu = rational_unit(rng, m)
            ident = ExactMatrix.identity(n)
            blocks = [ident.scale(x) for x in mu]
            rows = []
            for r in range(n):
                row = []
                for blk in blocks:
                    row.extend(blk.row(r))
                rows.append(row)
            c = ExactMatrix.from_rows(rows)
            cert = HaemersCertificate(n=n, m=m, k=n, C=c, D=c)
            rank = verify_xi_certificate(s, cert)
            assert rank >= n
            # a PSD certificate is in particular a plain certificate
            assert verify_certificate(s, cert) == rank


# -- lift / project ----------------------------------------------------------


def test_lift_all_ones_is_rank_one():
    n = 4
    ones = ExactMatrix.from_strings([["1"] * n for _ in range(n)])
    fm = FittingMatrix(graph=complete_graph(n), variant="unit-diagonal", b=ones)
    cert = lift_graph_certificate(fm)
    assert cert.m == n and cert.k == 1
    # the span of a complete graph is the full matrix algebra
    s = NcGraph.from_graph(complete_graph(n))
    assert s.is_full()
    assert verify_certificate(s, cert) == 1


def test_lift_identity_for_empty_graph():
    n = 3
    fm = FittingMatrix(graph=empty_graph(n), variant="unit-diagonal", b=ExactMatrix.identity(n))
    cert = lift_graph_certificate(fm)
    assert verify_certificate(diagonal_system(n), cert) == n


def test_lift_gives_both_variants_the_same_certificate():
    fm = gram_fitting_matrix(cycle_graph(5), pentagon_representation())
    assert fm.variant == "nonzero-diagonal"
    unit = unit_diagonal_form(fm)
    assert unit.b != fm.b
    assert lift_graph_certificate(fm) == lift_graph_certificate(unit)


def test_lift_pentagon_gram():
    fm = unit_diagonal_form(gram_fitting_matrix(cycle_graph(5), pentagon_representation()))
    cert = lift_graph_certificate(fm)
    assert verify_certificate(NcGraph.from_graph(cycle_graph(5)), cert) == 3


def test_project_round_trip_never_increases_rank():
    g = cycle_graph(5)
    s = NcGraph.from_graph(g)
    rng = random.Random(3)
    for _ in range(5):
        fm = random_fitting_matrix(g, rng, "unit-diagonal")
        before = verify_fitting(fm)
        projected = project_to_graph_certificate(s, lift_graph_certificate(fm))
        assert projected.variant == "nonzero-diagonal"
        assert verify_fitting(projected) <= before


# -- tensor / direct sum / conjugation ----------------------------------------


def test_tensor_scalar_identity_ranks_multiply():
    s = scalar_identity_system(2)
    cert = tensor_certificate(s, identity_certificate(2), s, identity_certificate(2))
    assert cert.n == 4 and cert.m == 1
    assert verify_certificate(tensor(s, s), cert) == 4


def test_tensor_full_matrix_gives_rank_one_for_m4():
    m2 = full_matrix_system(2)
    cert = tensor_certificate(m2, full_matrix_certificate(2), m2, full_matrix_certificate(2))
    # tensor of full algebras is the full algebra, so the certificate also
    # verifies directly against M_4
    assert verify_certificate(full_matrix_system(4), cert) == 1


def test_tensor_corner_family_with_diagonal():
    sg = corner_family(Fraction(1, 2))
    d2 = diagonal_system(2)
    cert = tensor_certificate(sg, identity_certificate(3), d2, identity_certificate(2))
    assert verify_certificate(tensor(sg, d2), cert) == 6


def test_tensor_random_certificates_multiply():
    rng = np.random.default_rng(7)
    s, t = diagonal_system(2), constant_diagonal_system(2)
    c1 = random_certificate(s, 2, rng)
    c2 = random_certificate(t, 1, rng)
    out = tensor_certificate(s, c1, t, c2)
    assert verify_certificate(tensor(s, t), out) == c1.k * c2.k


def test_direct_sum_examples():
    ci2, ci3 = scalar_identity_system(2), scalar_identity_system(3)
    cert = direct_sum_certificate(ci2, identity_certificate(2), ci3, identity_certificate(3))
    assert verify_certificate(direct_sum_nc(ci2, ci3), cert) == 5

    m2 = full_matrix_system(2)
    cert = direct_sum_certificate(m2, full_matrix_certificate(2), m2, full_matrix_certificate(2))
    assert verify_certificate(direct_sum_nc(m2, m2), cert) == 2


def test_direct_sum_diagonals_recover_bigger_diagonal():
    d2, d3 = diagonal_system(2), diagonal_system(3)
    assert direct_sum_nc(d2, d3) == diagonal_system(5)
    cert = direct_sum_certificate(d2, identity_certificate(2), d3, identity_certificate(3))
    assert verify_certificate(diagonal_system(5), cert) == 5


def test_direct_sum_pads_uneven_block_counts():
    rng = np.random.default_rng(19)
    s, t = scalar_identity_system(2), diagonal_system(2)
    c1 = random_certificate(s, 1, rng)
    c2 = random_certificate(t, 3, rng)
    out = direct_sum_certificate(s, c1, t, c2)
    assert out.m == 3
    assert verify_certificate(direct_sum_nc(s, t), out) == c1.k + c2.k


def test_conjugate_by_permutation_and_phase():
    ci3 = scalar_identity_system(3)
    perm = ExactMatrix.from_strings([["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]])
    cert = conjugate_certificate(ci3, identity_certificate(3), perm)
    assert verify_certificate(conjugate_by_unitary(ci3, perm), cert) == 3

    s2 = constant_diagonal_system(2)
    phase = ExactMatrix.from_strings([["i", "0"], ["0", "1"]])
    cert = conjugate_certificate(s2, identity_certificate(2), phase)
    assert verify_certificate(conjugate_by_unitary(s2, phase), cert) == 2
    # conjugating back restores the original factors exactly
    back = conjugate_certificate(conjugate_by_unitary(s2, phase), cert, phase.conj_transpose())
    assert back == identity_certificate(2)


def test_conjugate_rejects_non_unitary():
    with pytest.raises(ValueError):
        conjugate_certificate(
            scalar_identity_system(2), identity_certificate(2), ExactMatrix.identity(2).scale(2)
        )


# -- cohomomorphisms -----------------------------------------------------------


def test_cohomomorphism_identity():
    sg = corner_family(Fraction(1, 2))
    cert = cohomomorphism_apply(
        [ExactMatrix.identity(3)], identity_certificate(3), source=sg, target=sg
    )
    assert cert.m == 1
    assert verify_certificate(sg, cert) == 3


def test_vertex_map_embeds_small_diagonal():
    for n in (3, 4):
        kraus = homomorphism_kraus([0, 1], 2, n)
        cert = cohomomorphism_apply(
            kraus, identity_certificate(n), source=diagonal_system(2), target=diagonal_system(n)
        )
        rank = verify_certificate(diagonal_system(2), cert)
        assert 2 <= rank <= n


def test_cohomomorphism_violation_reports_triple():
    # collapsing both vertices breaks the condition for the diagonal span
    kraus = homomorphism_kraus([0, 0], 2, 3)
    with pytest.raises(VerificationError) as err:
        cohomomorphism_apply(
            kraus, identity_certificate(3), source=diagonal_system(2), target=diagonal_system(3)
        )
    assert err.value.kind == "cohomomorphism"
    assert len(err.value.where) == 3


def test_witness_kraus_unit_norm_vectors():
    s = NcGraph.from_graph(cycle_graph(5))
    wit = IndependentSystem.standard_basis(5, [1, 3])
    kraus = independent_witness_kraus(wit)
    assert len(kraus) == 2  # unit vectors need a single operator each
    fm = unit_diagonal_form(gram_fitting_matrix(cycle_graph(5), pentagon_representation()))
    cert = cohomomorphism_apply(
        kraus, lift_graph_certificate(fm), source=diagonal_system(2), target=s
    )
    assert verify_certificate(diagonal_system(2), cert) >= 2


def test_witness_kraus_scaled_and_complex_vectors():
    d3 = diagonal_system(3)
    wit = IndependentSystem.from_columns([
        ExactMatrix.column([parse_scalar("2"), parse_scalar("0"), parse_scalar("0")]),
        ExactMatrix.column([parse_scalar("0"), parse_scalar("1/3"), parse_scalar("0")]),
        ExactMatrix.column([parse_scalar("0"), parse_scalar("0"), parse_scalar("1+i")]),
    ])
    assert verify_independent(d3, wit)
    kraus = independent_witness_kraus(wit)
    cert = cohomomorphism_apply(kraus, identity_certificate(3), source=d3, target=d3)
    assert verify_certificate(d3, cert) == 3


def test_witness_kraus_rotated_span():
    rot = ExactMatrix.from_strings([["3/5", "4/5"], ["-4/5", "3/5"]])
    rotated = conjugate_by_unitary(diagonal_system(2), rot)
    wit = IndependentSystem.from_columns([
        ExactMatrix.column([parse_scalar("3/5"), parse_scalar("4/5")]),
        ExactMatrix.column([parse_scalar("-4/5"), parse_scalar("3/5")]),
    ])
    assert verify_independent(rotated, wit)
    kraus = independent_witness_kraus(wit)
    cert = conjugate_certificate(diagonal_system(2), identity_certificate(2), rot)
    out = cohomomorphism_apply(kraus, cert, source=diagonal_system(2), target=rotated)
    assert verify_certificate(diagonal_system(2), out) == 2


def test_four_square_decompositions_are_exact():
    for total in list(range(1, 61)) + [9999, 123456]:
        parts = _four_square(total)
        assert 1 <= len(parts) <= 4
        assert all(p > 0 for p in parts)
        assert sum(p * p for p in parts) == total


# -- compression lower bound ----------------------------------------------------


def test_compression_diagonal_standard_basis():
    got = compression_lower_bound(
        diagonal_system(3), identity_certificate(3), IndependentSystem.standard_basis(3, [0, 1, 2])
    )
    assert got == 3


def test_compression_pentagon_span():
    s = NcGraph.from_graph(cycle_graph(5))
    fm = unit_diagonal_form(gram_fitting_matrix(cycle_graph(5), pentagon_representation()))
    cert = lift_graph_certificate(fm)
    got = compression_lower_bound(s, cert, IndependentSystem.standard_basis(5, [1, 3]))
    assert 2 <= got <= 3


def test_compression_pentagon_strong_square():
    # the 25-vertex strong square has independence number 5; compressing any
    # verified certificate onto that witness must report at least 5
    g = cycle_graph(5)
    s = NcGraph.from_graph(g)
    fm = unit_diagonal_form(gram_fitting_matrix(g, pentagon_representation()))
    cert = tensor_certificate(s, lift_graph_certificate(fm), s, lift_graph_certificate(fm))
    size, witness = independence_number(strong_product(g, g))
    assert size == 5
    sys_ = IndependentSystem.standard_basis(25, sorted(witness))
    got = compression_lower_bound(tensor(s, s), cert, sys_)
    assert 5 <= got <= 9


def test_compression_rejects_dependent_vectors():
    with pytest.raises(VerificationError):
        compression_lower_bound(
            full_matrix_system(2),
            full_matrix_certificate(2),
            IndependentSystem.standard_basis(2, [0, 1]),
        )


# -- trace-preserving-map form ----------------------------------------------------


def test_tp_map_identity_certificate():
    tp = to_tp_map(scalar_identity_system(2), identity_certificate(2))
    assert len(tp.E) == 1
    assert tp.E[0] == ExactMatrix.identity(2)
    assert tp.F[0] == ExactMatrix.identity(2)
    assert verify_tp_map(scalar_identity_system(2), tp) == 2


def test_tp_map_rank_one_is_a_functional():
    tp = to_tp_map(full_matrix_system(3), full_matrix_certificate(3))
    assert tp.k == 1
    assert all(e.rows == 1 for e in tp.E)
    assert verify_tp_map(full_matrix_system(3), tp) == 1


def test_tp_round_trip_preserves_k():
    rng = np.random.default_rng(31)
    for s in (scalar_identity_system(2), constant_diagonal_system(2), diagonal_system(3)):
        cert = random_certificate(s, 2, rng)
        back = from_tp_map(to_tp_map(s, cert))
        assert back == cert
        assert back.k == cert.k


def test_tp_map_detects_bad_trace():
    ident = ExactMatrix.identity(2)
    tp = TpMapCertificate(n=2, k=2, E=(ident.scale(2),), F=(ident,))
    with pytest.raises(VerificationError) as err:
        verify_tp_map(scalar_identity_system(2), tp)
    assert err.value.kind == "trace"


def test_tp_map_checks_membership_before_trace():
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    tp = TpMapCertificate(n=2, k=2, E=(swap,), F=(ExactMatrix.identity(2),))
    with pytest.raises(VerificationError) as err:
        verify_tp_map(diagonal_system(2), tp)
    assert err.value.kind == "block-membership"
    assert err.value.where == (0, 0)


# -- numeric search -----------------------------------------------------------------


def test_search_finds_rank_one_for_full_algebra():
    for n in (2, 3):
        s = full_matrix_system(n)
        cert = haemers_upper_search(s, 1, seed=5)
        assert cert is not None
        assert verify_certificate(s, cert) == 1


def test_search_finds_identity_for_corner_family():
    s = corner_family(Fraction(1, 2))
    cert = haemers_upper_search(s, 3, m_schedule=[1], seed=1)
    assert cert is not None
    assert cert.m == 1
    assert verify_certificate(s, cert) == 3


def test_search_returns_nothing_when_infeasible():
    assert haemers_upper_search(scalar_identity_system(2), 1, budget=3, seed=2) is None


def test_search_is_reproducible():
    s = full_matrix_system(2)
    a = haemers_upper_search(s, 1, seed=9)
    b = haemers_upper_search(s, 1, seed=9)
    assert a == b


def _als_half_step_loop(fixed_blocks, q, n, m, k, left_update):
    """The dense lstsq half step that _als_half_step replaced, kept as its oracle."""
    nn = n * n
    eye_n = np.eye(n)
    if left_update:
        unk = n * k
        coef = [np.kron(eye_n, blk.T) for blk in fixed_blocks]
    else:
        unk = k * n
        coef = [np.kron(blk, eye_n) for blk in fixed_blocks]
    rows = m * m * nn + nn
    a_mat = np.zeros((rows, m * unk), dtype=complex)
    rhs = np.zeros(rows, dtype=complex)
    r = 0
    for i in range(m):
        for j in range(m):
            block, col = (coef[j], i) if left_update else (coef[i], j)
            a_mat[r : r + nn, col * unk : (col + 1) * unk] = q @ block
            r += nn
    for i in range(m):
        a_mat[r : r + nn, i * unk : (i + 1) * unk] = coef[i]
    rhs[r : r + nn] = eye_n.reshape(-1)
    sol = np.linalg.lstsq(a_mat, rhs, rcond=None)[0]
    if left_update:
        z = [sol[i * unk : (i + 1) * unk].reshape(n, k) for i in range(m)]
        return np.concatenate([zi.conj().T for zi in z], axis=1)
    return np.concatenate(
        [sol[j * unk : (j + 1) * unk].reshape(k, n) for j in range(m)], axis=1
    )


def _residual_loop(c, d, q, n, m):
    """The per-block residual loop _residual replaced, kept as its oracle."""
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


def _batch_with_a_rank_deficient_restart(rng, n, m, k, left_update):
    """Fixed blocks of three restarts; in the last, row 1 of every D_j (left)
    or column 1 of every Z_i (right) repeats row/column 0 when k > 1."""
    shape = (k, n) if left_update else (n, k)
    batch = [
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        for _ in range(3)
    ]
    if k > 1:
        for blk in batch[-1]:
            if left_update:
                blk[1] = blk[0]
            else:
                blk[:, 1] = blk[:, 0]
    return batch


@pytest.mark.parametrize(
    "n, m, k", [(3, 1, 2), (3, 2, 2), (5, 2, 3), (5, 1, 3), (2, 4, 1), (3, 3, 3)]
)
def test_als_half_step_matches_the_block_loop(n, m, k):
    span = {
        2: diagonal_system(2),
        3: corner_family(Fraction(1, 2)),
        5: NcGraph.from_graph(cycle_graph(5)),
    }[n]
    q = np.eye(n * n) - search_module._span_projector(span)
    rng = np.random.default_rng(100 * n + 10 * m + k)
    for left_update in (False, True):
        batch = _batch_with_a_rank_deficient_restart(rng, n, m, k, left_update)
        # the fixed factor: D = [D_1 ... D_m] on the left step, C with
        # C_i = Z_i^dag on the right step
        factors = np.stack(
            [
                np.concatenate(blocks if left_update else [z.conj().T for z in blocks], axis=1)
                for blocks in batch
            ]
        )
        got = search_module._als_half_step(factors, q.reshape(n, n, n, n), left_update)
        assert got.shape == (len(batch), k, m * n)
        for blocks, sol in zip(batch, got):
            want = _als_half_step_loop(blocks, q, n, m, k, left_update)
            assert np.allclose(sol, want, rtol=1e-9, atol=1e-12)
        # the updated factor against the held one, in the order of the search
        c, d = (got, factors) if left_update else (factors, got)
        res = search_module._residual(c, d, q, m)
        assert np.allclose(
            res, [_residual_loop(ci, di, q, n, m) for ci, di in zip(c, d)], rtol=1e-9, atol=1e-12
        )


def test_search_certificate_is_pinned():
    cert = haemers_upper_search(
        corner_family(Fraction(1, 2)), 3, m_schedule=[1], seed=0
    )
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert cert.C.to_strings()[0] == ["-8/9-3/10*i", "-15/16+29/15*i", "-4/5-4/13*i"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e92143c0e81cda23ba4c31d00a15e6c5116084d7a1415b4d947fefe74c109da3"
    )


def _digest(cert):
    if cert is None:
        return None
    return hashlib.sha256(json.dumps(cert.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_search_answers_are_pinned():
    # The answer is the first restart, in order, whose rounding verifies.
    # full_matrix_system(2) at budget 20 fails every restart of m = 1 (three
    # chunks) before m = 2, where every restart verifies.
    corner = corner_family(Fraction(1, 2))
    cases = [
        *[(full_matrix_system(n), 1, {"seed": seed}) for n in (2, 3) for seed in range(5)],
        *[(corner, 3, {"m_schedule": [1], "seed": seed}) for seed in range(3)],
        (full_matrix_system(2), 1, {"budget": 20, "seed": 3}),
        (corner, 2, {"m_schedule": [1], "budget": 20}),
    ]
    got = [_digest(haemers_upper_search(s, k, **kwargs)) for s, k, kwargs in cases]
    assert got == [
        "d79b898a9e59880c5c162aac05c42d4020e793019db203191c6e71e431d3660c",
        "cac177918aa2cb1d5aa9650054a64d4a9135a82b33a6ecdbf89dd26c72578916",
        "36b84454ec58c5bd6f35074127923660d451ba4e7f644f88d5560acc3e224020",
        "2facc8fd2e55cbff881adbb16085b5786704a0fdf8ceaada57efaa10c4dc50c3",
        "26cc6a3d3c32b21e982f4262bf378d87f505efbd9fc0a47536b1f3589196c5cf",
        "7285a5ec79edc2b955d686dc3b21b81768b595119c4c308d14b32faed20689b1",
        "7fca5e61467681bd8431418bc79dd17d70c4fd92fab364cca8d8f27d0062f17a",
        "9e63743d2990a581903bac0fb97bc69e1ebda461be1249811d7c085db1883456",
        "d73769f3a1d76dbb265305fd20dbead08a830bb2991f5891c04ab4b5484d1f1f",
        "7d345fc20011750fa6a9dcd40c4713dfb8dfa9005a6d657730f8a7b85c6404b6",
        "e92143c0e81cda23ba4c31d00a15e6c5116084d7a1415b4d947fefe74c109da3",
        "974b6c06e5fc6b76d25769d26498f57cbb5071d99d38c24f313ac26f9ab796e6",
        "1a8a58076a54d669973f49394a2c8267fec0f78137f4ca3e7915dc6d37d02329",
        "2facc8fd2e55cbff881adbb16085b5786704a0fdf8ceaada57efaa10c4dc50c3",
        None,
    ]


def test_search_at_m_equal_n_squared_on_the_pentagon_span_returns():
    # 25 blocks of M_5: each half step is a 250 x 250 normal system
    c5 = NcGraph.from_graph(cycle_graph(5))
    assert haemers_upper_search(c5, 2, m_schedule=[25], budget=1) is None


def test_transform_certificates_are_pinned():
    rng = np.random.default_rng(11)
    d2, c2, ci2 = diagonal_system(2), constant_diagonal_system(2), scalar_identity_system(2)
    a = random_certificate(d2, 2, rng)
    b = random_certificate(c2, 3, rng)
    e = random_certificate(ci2, 1, rng)
    phase = ExactMatrix.from_strings([["0", "i"], ["1", "0"]])
    d3 = diagonal_system(3)
    outs = [
        tensor_certificate(d2, a, c2, b),
        tensor_certificate(c2, b, ci2, e),
        direct_sum_certificate(d2, a, c2, b),
        direct_sum_certificate(ci2, e, d2, a),
        conjugate_certificate(c2, b, phase),
        cohomomorphism_apply(
            homomorphism_kraus([2, 0], 2, 3),
            random_certificate(d3, 2, rng),
            source=d2,
            target=d3,
        ),
        to_tp_map(d2, a),
        to_tp_map(c2, b),
    ]
    text = json.dumps([out.to_json_dict() for out in outs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d58f8c162ba9bb9640e6a6a6782912980e42d7ffddca9860d1cdcbe2e14c26b"
    )


def test_constructed_certificate_picks_the_lowest_rank():
    c5 = NcGraph.from_graph(cycle_graph(5))
    cases = [
        (c5, "fitting-lift", 3, 5),
        # as_graph() sees S_C5 + S_C5 and S_C5 x S_C5; greedy clique covers of 6 and 9
        (direct_sum_nc(c5, c5), "fitting-lift", 6, 10),
        (tensor(c5, c5), "fitting-lift", 9, 25),
        (corner_family(Fraction(1, 2)), "identity", 3, 1),
        (full_matrix_system(2), "full-algebra", 1, 2),
        (NcGraph.from_graph(complete_graph(3)), "full-algebra", 1, 3),
        # the lifted identity fitting matrix ties with the identity: first wins
        (NcGraph.from_graph(empty_graph(3)), "identity", 3, 1),
    ]
    for s, method, rank, m in cases:
        cert, how = constructed_certificate(s)
        assert how == method
        assert (cert.k, cert.m) == (rank, m)
        assert verify_certificate(s, cert) == rank


def test_constructed_certificate_of_the_pentagon_span_is_pinned():
    cert, how = constructed_certificate(NcGraph.from_graph(cycle_graph(5)))
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert how == "fitting-lift"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8db4748e2b7a5a891b05fd10a8628fc554c0f866cc383521ce8e353ce90fb641"
    )


def test_search_validates_inputs():
    with pytest.raises(ValueError):
        haemers_upper_search(full_matrix_system(2), 0)
    with pytest.raises(ValueError):
        haemers_upper_search(full_matrix_system(2), 1, m_schedule=[0])
    for budget in (0, -1):
        with pytest.raises(ValueError, match="restart budget"):
            haemers_upper_search(full_matrix_system(2), 1, budget=budget)


# -- lower bounds --------------------------------------------------------------------


def test_lower_bound_full_algebra_is_one():
    report = haemers_lower(full_matrix_system(2))
    assert report.value == 1
    assert report.witness is None


def test_lower_bound_proper_subspace_is_two():
    report = haemers_lower(scalar_identity_system(2))
    assert report.value == 2
    assert "subspace" in report.justification


def test_lower_bound_diagonal_witness():
    report = haemers_lower(diagonal_system(4))
    assert report.value == 4
    assert report.witness is not None and report.witness.size == 4
    assert verify_independent(diagonal_system(4), report.witness)
    labels = [c[1] for c in report.contributions]
    assert any("independent" in text for text in labels)


# -- exact decision -------------------------------------------------------------------


# The pair counts and basis sizes pin the S-pair order: the order decides
# which S-polynomials get reduced and when the chain criterion fires.


def test_decide_scalar_identity_infeasible():
    for m, pairs, basis_size in ((1, 11, 10), (2, 215, 42)):
        decision = haemers_exact_decide(scalar_identity_system(2), 1, m)
        assert decision.status == "infeasible"
        assert decision.engine.status == "no-common-root"
        assert decision.engine.pairs_processed == pairs
        assert len(decision.engine.basis) == basis_size


def test_decide_diagonal_infeasible():
    for m, pairs, basis_size in ((1, 11, 10), (2, 141, 26)):
        decision = haemers_exact_decide(diagonal_system(2), 1, m)
        assert decision.status == "infeasible"
        assert decision.engine.pairs_processed == pairs
        assert len(decision.engine.basis) == basis_size


def test_decide_full_matrix_feasible_with_certificate():
    decision = haemers_exact_decide(full_matrix_system(2), 1, 2)
    assert decision.status == "feasible"
    assert decision.engine.pairs_processed == 3486
    assert decision.certificate is not None
    assert verify_certificate(full_matrix_system(2), decision.certificate) == 1


def test_decide_rejects_block_count_before_running_the_engine(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("buchberger must not run")

    monkeypatch.setattr(certificates_module, "buchberger", engine)
    for m in (0, 2):
        with pytest.raises(ValueError, match="block count"):
            haemers_exact_decide(full_matrix_system(1), 1, m)


def test_decide_times_out_to_unknown():
    decision = haemers_exact_decide(diagonal_system(2), 1, 1, time_budget=0.0)
    assert decision.status == "unknown"
    assert decision.certificate is None


def test_decide_warns_above_variable_guideline():
    with pytest.warns(UserWarning, match="guideline"):
        decision = haemers_exact_decide(diagonal_system(2), 2, 2, time_budget=0.01)
    assert decision.status in ("unknown", "unknown-feasible", "feasible")


def test_lower_bound_reports_are_pinned():
    c5 = NcGraph.from_graph(cycle_graph(5))
    spans = [
        c5,
        NcGraph.from_graph(cycle_graph(7)),
        direct_sum_nc(c5, c5),
        tensor(c5, c5),
        corner_family(Fraction(1, 2)),
    ]
    got = [
        hashlib.sha256(
            json.dumps(haemers_lower(s, seed=0).to_json_dict(), sort_keys=True).encode()
        ).hexdigest()
        for s in spans
    ]
    assert got == [
        "1b9d0c296003e419a2839844f4919b961aac9ab029dbf792374c56e4a6b7f732",
        "cd2c6c35a567a7649c1ec1f903337dbbf9d18641353429fce28bc047bbfdab32",
        "a945311d4f64ef8fdf1f8b73bcec702c2d42c62671a60a83d30973b6abb1d981",
        "85445cccde52ad25ea29c25a6dade01816e7829cf70b4b136ef620ed975dda1c",
        "a1e2abcc3e325c78b815e3fece698e26e40c1c18bad3e7920d8bf51ce62b2f07",
    ]


def test_lower_bound_of_a_graph_span_stops_at_the_axis_witness(monkeypatch):
    calls = []
    monkeypatch.setattr(
        certificates_module, "alpha_lower_search", lambda *a, **kw: calls.append(a)
    )
    c5 = NcGraph.from_graph(cycle_graph(5))
    assert haemers_lower(tensor(c5, c5)).value == 5
    assert haemers_lower(NcGraph.from_graph(complete_graph(3))).value == 1
    assert calls == []


def test_lower_bound_above_the_vertex_cap_skips_the_witnesses():
    report = haemers_lower(NcGraph.from_graph(cycle_graph(65)))
    assert report.value == 2 and report.witness is None
    assert report.contributions[-1] == (
        0, "independent vector systems not searched: n = 65 exceeds the vertex cap 64"
    )
