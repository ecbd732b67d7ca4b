"""Theta solver: known closed forms, sandwich bounds, witness feasibility."""

import math
import random

import numpy as np
import pytest

from zerocap.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    independence_number,
    random_graph,
    strong_product,
)
from zerocap.theta import lovasz_theta


def check_witness(g, sol, tol):
    t = sol.witness
    n = g.n
    assert t.shape == (n, n)
    for i in range(n):
        assert abs(t[i, i]) <= tol
        for j in range(n):
            if g.has_edge(i, j):
                assert abs(t[i, j]) <= tol
    eigs = np.linalg.eigvalsh(np.eye(n) + 0.5 * (t + t.T))
    assert eigs.min() >= -tol
    # the witness realizes the value
    assert abs(eigs.max() - sol.value) <= max(50 * tol, 1e-5)


def test_theta_c5():
    sol = lovasz_theta(cycle_graph(5))
    assert sol.converged
    assert abs(sol.value - math.sqrt(5)) < 1e-4
    check_witness(cycle_graph(5), sol, 1e-6)


def test_theta_complete_graphs():
    for n in range(1, 11):
        sol = lovasz_theta(complete_graph(n) if n > 1 else empty_graph(1))
        assert abs(sol.value - 1.0) < 1e-6, n


def test_theta_empty_graphs():
    for n in range(1, 11):
        sol = lovasz_theta(empty_graph(n))
        assert abs(sol.value - n) < 1e-5, n
        check_witness(empty_graph(n), sol, 1e-6)


def test_theta_bounds_fields():
    sol = lovasz_theta(cycle_graph(5))
    assert sol.lower_bound <= sol.value <= sol.upper_bound
    assert sol.duality_gap == pytest.approx(sol.upper_bound - sol.lower_bound)
    assert sol.duality_gap <= 1e-7
    assert sol.iterations > 0


def test_theta_sandwich_alpha_random():
    rng = random.Random(12345)
    for _ in range(25):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        alpha, _ = independence_number(g)
        sol = lovasz_theta(g)
        assert sol.converged
        assert alpha <= sol.value + 1e-6
        assert sol.value <= g.n + 1e-6
        check_witness(g, sol, 1e-6)


def test_theta_complement_product_relation():
    # theta(G boxtimes H) <= theta(G) * theta(H) (+ tolerance)
    rng = random.Random(99)
    for _ in range(5):
        g = random_graph(rng.randint(2, 4), rng.random(), rng)
        h = random_graph(rng.randint(2, 4), rng.random(), rng)
        tg = lovasz_theta(g).value
        th = lovasz_theta(h).value
        tp = lovasz_theta(strong_product(g, h)).value
        assert tp <= tg * th + 1e-5


def theta_cycle(n):
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def g40():
    return random_graph(40, 0.5, random.Random(1))


def test_theta_iteration_cap_reports_honestly(monkeypatch):
    monkeypatch.setattr("zerocap.theta.DEFAULT_MAX_ITER", 3)
    sol = lovasz_theta(cycle_graph(7))
    assert not sol.converged
    assert sol.upper_bound >= sol.lower_bound
    # upper bound is still a valid bound on theta(C7) = 7 cos(pi/7)/(1 + cos(pi/7))
    assert sol.upper_bound >= theta_cycle(7) - 1e-9
    # the bracket holds at every iteration cap, not only once converged
    known = [(cycle_graph(n), theta_cycle(n)) for n in (5, 7, 9)]
    known += [(complete_graph(6), 1.0), (empty_graph(6), 6.0)]
    for g, true in known:
        for cap in range(41):
            monkeypatch.setattr("zerocap.theta.DEFAULT_MAX_ITER", cap)
            sol = lovasz_theta(g)
            assert sol.iterations <= cap
            assert sol.lower_bound <= true <= sol.upper_bound, (g.n, cap)


def test_theta_on_a_random_40_vertex_graph():
    g = g40()
    sol = lovasz_theta(g)
    assert sol.converged
    # Work guard, counted in iterations rather than seconds so that it holds
    # on any machine: a slide back to a slow solver fails here.
    assert sol.iterations <= 40
    check_witness(g, sol, 1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_theta_stops_at_the_last_checked_bracket_on_breakdown(monkeypatch):
    solve, calls = np.linalg.solve, []

    def breaks_after_three_iterations(a, b):
        calls.append(1)
        return solve(a, b) * (np.nan if len(calls) > 6 else 1.0)

    monkeypatch.setattr(np.linalg, "solve", breaks_after_three_iterations)
    sol = lovasz_theta(cycle_graph(5))
    assert not sol.converged and sol.iterations == 3
    assert sol.lower_bound <= math.sqrt(5) <= sol.upper_bound


def test_theta_survives_a_tolerance_below_float_precision():
    for g in (cycle_graph(5), g40()):
        sol = lovasz_theta(g, tol=1e-13)
        assert sol.lower_bound <= sol.upper_bound
        assert sol.converged == (sol.duality_gap <= 1e-13)


def test_theta_c7_closed_form():
    sol = lovasz_theta(cycle_graph(7))
    assert abs(sol.value - theta_cycle(7)) < 1e-5
