"""End-to-end checks that exercise every bound pipeline on known targets.

Each check re-derives a published-value-sized result from scratch — exact
independence numbers, theta within stated tolerances, certificate-backed
rank bounds, transform laws on random stock, and the exact decision
engine — and reports one pass/fail line.  The CLI exposes the suite as
``selftest paper`` and the acceptance tests run the same functions, so a
green suite here is the whole artifact's health check.

Checks are pure functions of the seed.  ``run_all`` can fan them out over
a process pool; result order is always the registry order.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .certificates import (
    HaemersCertificate,
    cohomomorphism_apply,
    compression_lower_bound,
    conjugate_certificate,
    direct_sum_certificate,
    from_tp_map,
    full_matrix_certificate,
    haemers_exact_decide,
    haemers_lower,
    haemers_upper_search,
    identity_certificate,
    independent_witness_kraus,
    lift_graph_certificate,
    max_block_count,
    project_to_graph_certificate,
    random_certificate,
    tensor_certificate,
    to_tp_map,
    verify_certificate,
    verify_tp_map,
)
from .classical import (
    bounds_report,
    random_fitting_matrix,
    verify_fitting,
)
from .exactlinalg import ExactMatrix
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    independence_number,
    random_graph,
    shannon_lower,
    strong_product,
)
from .groebner import check_cofactors, encode_rank_feasibility
from .independence import IndependentSystem, verify_independent
from .ncgraph import (
    NcGraph,
    conjugate_by_unitary,
    constant_diagonal_system,
    corner_family,
    corner_family_reference,
    diagonal_system,
    direct_sum_nc,
    full_matrix_system,
    scalar_identity_system,
)
from .theta import DEFAULT_TOL, lovasz_theta

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """One acceptance line: a stable name, a verdict, and the evidence."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _alpha_bruteforce(g: Graph) -> int:
    """Independent oracle: enumerate independent sets by recursive extension.

    No clique cover, no visit-order heuristic — nothing shared with the
    production branch and bound beyond the adjacency masks.
    """
    adj = g.adjacency_masks()
    best = 0

    def extend(start: int, chosen_adj: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for v in range(start, g.n):
            if not (chosen_adj >> v) & 1:
                extend(v + 1, chosen_adj | adj[v], size + 1)

    extend(0, 0, 0)
    return best


# -- the ten checks ------------------------------------------------------


def check_classical_anchors(seed: int = 0) -> CheckResult:
    """Pentagon independence numbers and the square-root capacity bound."""
    c5 = cycle_graph(5)
    a1 = independence_number(c5)[0]
    square = strong_product(c5, c5)
    t0 = time.monotonic()
    brute = _alpha_bruteforce(square)
    brute_seconds = time.monotonic() - t0
    a2 = independence_number(square)[0]
    low = shannon_lower(c5, 2)
    ok = (
        a1 == 2
        and a2 == 5
        and brute == 5
        and brute_seconds < 1.0
        and abs(low - math.sqrt(5.0)) < 1e-9
    )
    detail = (
        f"alpha(C5)={a1}, alpha(C5 boxtimes C5)={a2} "
        f"(brute force agrees: {brute} in {brute_seconds:.2f}s), "
        f"alpha(square)^(1/2)={low:.9f} vs sqrt(5)={math.sqrt(5.0):.9f}"
    )
    return CheckResult("classical-anchors", ok, detail)


def check_lovasz_theta(seed: int = 0) -> CheckResult:
    """Theta anchors plus alpha <= theta on random graphs."""
    problems: list[str] = []
    t5 = lovasz_theta(cycle_graph(5), tol=DEFAULT_TOL).value
    if abs(t5 - 2.2360680) > 1e-4:
        problems.append(f"theta(C5)={t5!r}")
    for n in range(1, 11):
        tk = lovasz_theta(complete_graph(n)).value
        if abs(tk - 1.0) > 1e-6:
            problems.append(f"theta(K{n})={tk!r}")
        te = lovasz_theta(empty_graph(n)).value
        if abs(te - n) > 1e-5:
            problems.append(f"theta(empty {n})={te!r}")
    rng = random.Random(seed)
    for _ in range(50):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        alpha = independence_number(g)[0]
        th = lovasz_theta(g, tol=1e-6).value
        if alpha > th + 1e-4:
            problems.append(f"alpha {alpha} > theta {th} on n={g.n}")
    detail = (
        f"theta(C5)={t5:.7f}; cliques and empty graphs to n=10 in tolerance; "
        "alpha <= theta on 50 random graphs (n <= 12)"
        if not problems
        else "; ".join(problems)
    )
    return CheckResult("lovasz-theta", not problems, detail)


def check_small_system_values(seed: int = 0) -> CheckResult:
    """Certificate-backed exact values on the catalog operator systems."""
    problems: list[str] = []

    # full algebra: the rank-1 block certificate closes the bound at 1
    for n in range(1, 5):
        rank = verify_certificate(full_matrix_system(n), full_matrix_certificate(n))
        if rank != 1:
            problems.append(f"full algebra n={n}: rank {rank} != 1")

    # scalar span: identity block above, orthonormal-witness bound below
    for n in range(1, 5):
        s = scalar_identity_system(n)
        upper = verify_certificate(s, identity_certificate(n))
        lower = haemers_lower(s, seed=seed)
        if upper != n or lower.value != n:
            problems.append(f"scalar span n={n}: got [{lower.value}, {upper}]")
    for m in (1, 2):
        decision = haemers_exact_decide(scalar_identity_system(2), 1, m, seed=seed)
        if decision.status != "infeasible":
            problems.append(f"scalar span n=2: rank 1 at m={m} not refuted")

    # diagonal span: chain the 1-dimensional certificate by direct sums
    summand = diagonal_system(1)
    chain_sys = summand
    chain_cert = identity_certificate(1)
    for n in range(2, 5):
        chain_cert = direct_sum_certificate(
            chain_sys, chain_cert, summand, identity_certificate(1)
        )
        chain_sys = direct_sum_nc(chain_sys, summand)
        if chain_sys != diagonal_system(n):
            problems.append(f"direct-sum chain at n={n} is not the diagonal span")
        upper = verify_certificate(diagonal_system(n), chain_cert)
        lower = haemers_lower(diagonal_system(n), seed=seed)
        if upper != n or lower.value != n:
            problems.append(f"diagonal span n={n}: got [{lower.value}, {upper}]")

    # constant-diagonal 2x2 span: the identity is feasible, fullness fails
    s2 = constant_diagonal_system(2)
    upper = verify_certificate(s2, identity_certificate(2))
    lower = haemers_lower(s2, seed=seed)
    if upper != 2 or lower.value != 2:
        problems.append(f"constant-diagonal span: got [{lower.value}, {upper}]")

    # corner family: rank 3 beats the semidefinite comparison value (>= 4)
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        s = corner_family(c)
        cert = haemers_upper_search(s, 3, m_schedule=[1], seed=seed)
        reference = corner_family_reference(c)
        if cert is None:
            problems.append(f"corner family c={c}: no rank-3 certificate found")
        elif verify_certificate(s, cert) > 3:
            problems.append(f"corner family c={c}: rank above 3")
        if not reference >= 4:
            problems.append(f"corner family c={c}: reference {reference} below 4")
    detail = (
        "full algebra = 1, scalar span = n, diagonal span = n (n <= 4), "
        "constant-diagonal 2x2 span = 2, corner family <= 3 < 4 <= 2+c+1/c"
        if not problems
        else "; ".join(problems)
    )
    return CheckResult("small-system-values", not problems, detail)


def check_graph_embedding_consistency(seed: int = 0) -> CheckResult:
    """Lift and project round the graph embedding without rank growth."""
    rng = random.Random(seed)
    problems: list[str] = []
    for trial in range(50):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.random(), rng)
        fm = random_fitting_matrix(g, rng, variant="unit-diagonal")
        base_rank = verify_fitting(fm)
        s = NcGraph.from_graph(g)
        cert = lift_graph_certificate(fm)
        lifted_rank = verify_certificate(s, cert)
        if lifted_rank > base_rank:
            problems.append(f"trial {trial}: lift grew rank {base_rank}->{lifted_rank}")
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        u = ExactMatrix.from_numerators(n, n, {perm[j] * n + j: (1, 0) for j in range(n)})
        rotated = conjugate_certificate(s, cert, u)
        back = project_to_graph_certificate(conjugate_by_unitary(s, u), rotated)
        back_rank = verify_fitting(back)
        if back_rank > lifted_rank:
            problems.append(
                f"trial {trial}: project grew rank {lifted_rank}->{back_rank}"
            )
    detail = (
        "50 random graphs (n <= 6): lift and permuted project both verified, "
        "rank never increased"
        if not problems
        else "; ".join(problems[:4])
    )
    return CheckResult("graph-embedding-consistency", not problems, detail)


def _random_small_system(rng: random.Random) -> NcGraph:
    kind = rng.choice(["full", "scalar", "diagonal", "graph", "constant"])
    if kind == "constant":
        return constant_diagonal_system(2)
    n = rng.choice([1, 1, 2, 2, 2, 3])
    if kind == "full":
        return full_matrix_system(n)
    if kind == "scalar":
        return scalar_identity_system(n)
    if kind == "diagonal":
        return diagonal_system(n)
    return NcGraph.from_graph(random_graph(n, rng.random(), rng))


def _random_cert(
    s: NcGraph, rng: random.Random, np_rng: np.random.Generator, m_max: int
) -> HaemersCertificate:
    return random_certificate(s, rng.randint(1, min(m_max, max_block_count(s.n))), np_rng)


def check_product_and_sum_certificates(seed: int = 0) -> CheckResult:
    """Tensor multiplies and direct sum adds rank, constructively, 100 times."""
    import numpy as np
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    problems: list[str] = []
    for trial in range(100):
        s = _random_small_system(rng)
        t = _random_small_system(rng)
        cs = _random_cert(s, rng, np_rng, 3)
        ct = _random_cert(t, rng, np_rng, 3)
        rs, rt = verify_certificate(s, cs), verify_certificate(t, ct)
        prod = tensor_certificate(s, cs, t, ct)
        if prod.k != rs * rt:
            problems.append(f"trial {trial}: tensor rank {prod.k} != {rs}*{rt}")
        total = direct_sum_certificate(s, cs, t, ct)
        if total.k != rs + rt:
            problems.append(f"trial {trial}: sum rank {total.k} != {rs}+{rt}")
    detail = (
        "100 random certificate pairs (n <= 3, m <= 3): tensor rank exactly "
        "multiplicative, direct-sum rank exactly additive, all outputs verified"
        if not problems
        else "; ".join(problems[:4])
    )
    return CheckResult("product-and-sum-certificates", not problems, detail)


def check_compression_sandwich(seed: int = 0) -> CheckResult:
    """Witness size never exceeds certificate rank, on 100 random pairs."""
    import numpy as np
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    problems: list[str] = []
    for trial in range(100):
        family = rng.choice(["diagonal", "graph", "corner"])
        if family == "diagonal":
            n = rng.randint(2, 4)
            s = diagonal_system(n)
            size = rng.randint(1, n)
            witness = IndependentSystem.standard_basis(
                n, rng.sample(range(n), size)
            )
        elif family == "graph":
            n = rng.randint(2, 5)
            g = random_graph(n, rng.random(), rng)
            s = NcGraph.from_graph(g)
            independent = independence_number(g)[1]
            size = rng.randint(1, len(independent))
            witness = IndependentSystem.standard_basis(
                n, rng.sample(independent, size)
            )
        else:
            s = corner_family(Fraction(rng.randint(1, 9), 10))
            cols = IndependentSystem.standard_basis(3, [0, 1]).vectors
            witness = IndependentSystem.from_columns(cols[: rng.randint(1, 2)])
        if not verify_independent(s, witness):
            problems.append(f"trial {trial}: witness is not independent")
            continue
        cert = _random_cert(s, rng, np_rng, 2)
        rank = verify_certificate(s, cert)
        try:
            compressed = compression_lower_bound(s, cert, witness)
        except RuntimeError as exc:  # sandwich violation — must never happen
            problems.append(f"trial {trial}: {exc}")
            continue
        if not witness.size <= compressed <= rank:
            problems.append(
                f"trial {trial}: {witness.size} <= {compressed} <= {rank} fails"
            )
    detail = (
        "100 random (certificate, witness) pairs over diagonal, graph, and "
        "corner-family spans: witness size <= compressed rank <= rank held"
        if not problems
        else "; ".join(problems[:4])
    )
    return CheckResult("compression-sandwich", not problems, detail)


def check_channel_form_round_trip(seed: int = 0) -> CheckResult:
    """Certificates convert to trace-preserving map form and back, intact."""
    import numpy as np
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    problems: list[str] = []
    for trial in range(50):
        s = _random_small_system(rng)
        cert = _random_cert(s, rng, np_rng, 3)
        rank = verify_certificate(s, cert)
        tp = to_tp_map(s, cert)
        tp_rank = verify_tp_map(s, tp)
        back = from_tp_map(tp)
        if back != cert:
            problems.append(f"trial {trial}: round trip changed the certificate")
        if tp_rank != rank or back.k != cert.k:
            problems.append(f"trial {trial}: rank/k drifted ({rank}->{tp_rank})")
    detail = (
        "50 random certificates: map form verified at the same rank and "
        "converted back bit-for-bit"
        if not problems
        else "; ".join(problems[:4])
    )
    return CheckResult("channel-form-round-trip", not problems, detail)


def check_order_monotonicity(seed: int = 0) -> CheckResult:
    """A diagonal witness inside S pushes its size through as a lower bound."""
    problems: list[str] = []
    cases: list[tuple[str, NcGraph, IndependentSystem]] = [
        ("diagonal-4", diagonal_system(4), IndependentSystem.standard_basis(4, range(4))),
        (
            "pentagon",
            NcGraph.from_graph(cycle_graph(5)),
            IndependentSystem.standard_basis(5, [0, 2]),
        ),
        (
            "corner-1/2",
            corner_family(Fraction(1, 2)),
            IndependentSystem.standard_basis(3, [0, 1]),
        ),
    ]
    for label, s, witness in cases:
        if not verify_independent(s, witness):
            problems.append(f"{label}: witness rejected")
            continue
        size = witness.size
        cert = identity_certificate(s.n)
        kraus = independent_witness_kraus(witness)
        pushed = cohomomorphism_apply(
            kraus, cert, source=diagonal_system(size), target=s
        )
        pushed_rank = verify_certificate(diagonal_system(size), pushed)
        floor = compression_lower_bound(
            diagonal_system(size),
            pushed,
            IndependentSystem.standard_basis(size, range(size)),
        )
        lower = haemers_lower(s, seed=seed)
        if not size <= floor <= pushed_rank:
            problems.append(f"{label}: pushed rank {pushed_rank} below {size}")
        if lower.value < size:
            problems.append(f"{label}: reported lower {lower.value} < {size}")
    detail = (
        "diagonal witnesses of sizes 4, 2, 2 pushed through the channel order "
        "and matched the reported lower bounds"
        if not problems
        else "; ".join(problems)
    )
    return CheckResult("order-monotonicity", not problems, detail)


def check_exact_decision_engine(seed: int = 0) -> CheckResult:
    """Groebner refutations carry cofactors; feasibility agrees with search."""
    problems: list[str] = []
    refuted = []
    for s, label in (
        (scalar_identity_system(2), "scalar-2"),
        (diagonal_system(2), "diagonal-2"),
    ):
        for m in (1, 2):
            t0 = time.monotonic()
            decision = haemers_exact_decide(s, 1, m, seed=seed)
            seconds = time.monotonic() - t0
            if decision.status != "infeasible":
                problems.append(f"{label} m={m}: status {decision.status}")
                continue
            system = encode_rank_feasibility(s, 1, m, encoding="factor")
            if not check_cofactors(system.polynomials, decision.engine.cofactors):
                problems.append(f"{label} m={m}: cofactor combination is not 1")
            refuted.append(f"{label} m={m} in {seconds:.1f}s")
    full = full_matrix_system(2)
    t0 = time.monotonic()
    decision = haemers_exact_decide(full, 1, 2, seed=seed)
    full_cost = (
        f"{decision.engine.pairs_processed} S-pairs in "
        f"{time.monotonic() - t0:.1f}s of the 60s budget"
    )
    searched = haemers_upper_search(full, 1, m_schedule=[2], seed=seed)
    if decision.status != "feasible":
        problems.append(f"full algebra: decide status {decision.status} ({full_cost})")
    elif verify_certificate(full, decision.certificate) != 1:
        problems.append("full algebra: extracted certificate rank is not 1")
    if searched is None:
        problems.append("full algebra: numeric search disagreed (found nothing)")
    detail = (
        f"rank 1 refuted with verified cofactors ({', '.join(refuted)}); "
        f"full 2x2 algebra decided feasible ({full_cost}) with a verified rank-1 "
        "certificate, agreeing with the numeric search"
        if not problems
        else "; ".join(problems)
    )
    return CheckResult("exact-decision-engine", not problems, detail)


def check_pentagon_sandwich(seed: int = 0) -> CheckResult:
    """The pentagon bound closes at 3 by sandwich, desk-scale and honest."""
    report = bounds_report(cycle_graph(5))
    fitting_rank = verify_fitting(report.fitting)
    ok = (
        report.alpha == 2
        and abs(report.theta - math.sqrt(5.0)) < 1e-4
        and report.haemers_lower == 3
        and report.haemers_upper == 3
        and fitting_rank == 3
        and report.consistent
    )
    detail = (
        f"alpha=2, theta={report.theta:.6f}, ceil(sqrt(alpha(square)))=3 <= bound "
        "<= 3 = verified rank of the Gram fitting matrix of the pentagon "
        "representation; no exact engine run at full block range; strong-square "
        "and strongly-regular improvements are out of scope"
    )
    return CheckResult("pentagon-sandwich", ok, detail)


# -- registry ------------------------------------------------------------


CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = (
    ("classical-anchors", check_classical_anchors),
    ("lovasz-theta", check_lovasz_theta),
    ("small-system-values", check_small_system_values),
    ("graph-embedding-consistency", check_graph_embedding_consistency),
    ("product-and-sum-certificates", check_product_and_sum_certificates),
    ("compression-sandwich", check_compression_sandwich),
    ("channel-form-round-trip", check_channel_form_round_trip),
    ("order-monotonicity", check_order_monotonicity),
    ("exact-decision-engine", check_exact_decision_engine),
    ("pentagon-sandwich", check_pentagon_sandwich),
)


def _run_indexed(index: int, seed: int) -> CheckResult:
    return CHECKS[index][1](seed)


def run_check(name: str, seed: int = 0) -> CheckResult:
    for check_name, fn in CHECKS:
        if check_name == name:
            return fn(seed)
    raise KeyError(f"no check named {name!r}")


def run_all(seed: int = 0, jobs: int = 1) -> list[CheckResult]:
    """Run every check; with jobs > 1, fan out over a process pool of at
    most one worker per check.

    Results always come back in registry order, whatever the completion
    order, so output stays deterministic.
    """
    if jobs <= 1:
        return [fn(seed) for _, fn in CHECKS]
    from concurrent.futures import ProcessPoolExecutor  # loaded only for --jobs > 1

    with ProcessPoolExecutor(max_workers=min(jobs, len(CHECKS))) as pool:
        futures = [pool.submit(_run_indexed, i, seed) for i in range(len(CHECKS))]
        return [f.result() for f in futures]
