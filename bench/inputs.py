"""Seeded inputs of the three workloads, written with the benchmark's own code.

    python3 bench/inputs.py --workload certify --seed 3 --out DIR

remakes the input files of one run and prints the manifest the run checks
against.  Nothing here imports zerocap: spans, certificates and graphs are
built from first principles and written in the program's file formats, so a
change to the program's constructors cannot change what it is fed.  Every
expected value in the manifest (ranks, rejection kinds) follows from how an
input was built, never from a run of the program.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

import exact as X
import floatcheck

PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))

#: Random certificate stock of ``certify``: (span kind, n, block count m, PSD).
#: Shapes are fixed so that every seed asks for the same amount of work.
STOCK_SLOTS = (
    ("graph", 5, 5, True),
    ("graph", 4, 5, False),
    ("graph", 3, 3, True),
    ("corner", 3, 2, False),
    ("scalar", 2, 2, True),
    ("diagonal", 4, 3, False),
    ("full", 2, 3, True),
)

#: The ``decide`` instances: (span name, block count m, encoding), all at rank 1.
DECIDE_INSTANCES = (
    ("scalar2", 1, "factor"),
    ("scalar2", 2, "factor"),
    ("diagonal2", 1, "factor"),
    ("diagonal2", 2, "factor"),
    ("constdiag2", 1, "factor"),
    ("constdiag2", 2, "factor"),
    ("scalar3", 1, "factor"),
    ("path3", 1, "factor"),
    ("corner-1_2", 1, "factor"),
    ("scalar2", 3, "minor"),
)

CORNER_PARAMETERS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

G40_VERTICES = 40
G40_EDGES = 390  # half of the 780 pairs
# Theta's Newton path length depends on the graph (71 to 156 steps on four
# draws of G(40, 390)), so the seed relabels the vertices of one fixed draw:
# every seed gets a different input file and the same amount of work.
G40_BASE_SEED = "g40"


# -- matrices and spans ------------------------------------------------------


def matrix_unit(n: int, i: int, j: int):
    out = X.zeros(n, n)
    out[i][j] = X.ONE
    return out


def diag(values):
    n = len(values)
    out = X.zeros(n, n)
    for i, v in enumerate(values):
        out[i][i] = X.q(v)
    return out


def cycle_edges(n: int):
    return [(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)]


def strong_product_edges(n1: int, e1, n2: int, e2):
    adj1 = {(i, i) for i in range(n1)} | set(e1) | {(j, i) for i, j in e1}
    adj2 = {(i, i) for i in range(n2)} | set(e2) | {(j, i) for i, j in e2}
    edges = []
    for a in range(n1 * n2):
        for b in range(a + 1, n1 * n2):
            if (a // n2, b // n2) in adj1 and (a % n2, b % n2) in adj2:
                edges.append((a, b))
    return edges


def graph_span(n: int, edges):
    basis = [matrix_unit(n, i, i) for i in range(n)]
    for i, j in edges:
        basis += [matrix_unit(n, i, j), matrix_unit(n, j, i)]
    return basis


def corner_span(c: Fraction):
    return [
        matrix_unit(3, 0, 2),
        matrix_unit(3, 2, 0),
        diag([0, 1 - c, 1]),
        diag([1, c, 0]),
    ]


def named_span(kind: str, n: int, rng: random.Random):
    """(basis, edges or None) of a catalog span built here."""
    if kind == "graph":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        return graph_span(n, edges), edges
    if kind == "corner":
        return corner_span(Fraction(rng.randint(1, 9), 10)), None
    if kind == "scalar":
        return [X.identity(n)], None
    if kind == "diagonal":
        return [matrix_unit(n, i, i) for i in range(n)], None
    if kind == "full":
        return [matrix_unit(n, i, j) for i in range(n) for j in range(n)], None
    raise ValueError(kind)


DECIDE_SPANS = {
    "scalar2": lambda: [X.identity(2)],
    "diagonal2": lambda: [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)],
    "constdiag2": lambda: [X.identity(2), matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)],
    "scalar3": lambda: [X.identity(3)],
    "path3": lambda: graph_span(3, [(0, 1), (1, 2)]),
    "corner-1_2": lambda: corner_span(Fraction(1, 2)),
}


# -- certificates ------------------------------------------------------------


def unit_phase(rng: random.Random):
    """A Gaussian rational of modulus 1 from a Pythagorean triple."""
    a, b, c = rng.choice(PYTHAGOREAN)
    re_part, im_part = Fraction(a, c), Fraction(b, c)
    if rng.random() < 0.5:
        re_part, im_part = im_part, re_part
    return (re_part * rng.choice((1, -1)), im_part * rng.choice((1, -1)))


def small_scalar(rng: random.Random):
    """A nonzero Gaussian rational with small numerators and denominators."""
    while True:
        z = X.q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if not X.is_zero(z):
            return z


def lifted_clique_certificate(rng: random.Random, n: int, edges, psd: bool):
    """Lift of a rank-r fitting matrix built from a random clique cover.

    Vertices of one clique share a coordinate; B_vw = x_v / x_w inside a
    clique and 0 across cliques, so B fits the graph, has unit diagonal and
    rank r.  Block (v, w) of the lift carries B_vw at entry (v, w).  With
    |x_v| = 1 the two factors coincide, which makes the certificate PSD.
    """
    order = list(range(n))
    rng.shuffle(order)
    cliques = X.greedy_clique_cover(edges, order)
    k = len(cliques)
    c, d = X.zeros(k, n * n), X.zeros(k, n * n)
    for t, clique in enumerate(cliques):
        for v in clique:
            x = unit_phase(rng) if psd else small_scalar(rng)
            c[t][v * n + v] = X.conj(x)
            d[t][v * n + v] = X.conj(x) if psd else X.inv(x)
    return c, d


def start_certificate(kind: str, n: int, rng: random.Random, edges, psd: bool):
    """Factors (C, D) and block count of a certificate known to have full rank k."""
    if kind == "graph":
        c, d = lifted_clique_certificate(rng, n, edges, psd)
        return c, d, n
    if kind == "full":
        row = [X.ZERO] * (n * n)
        for i in range(n):
            row[i * n + i] = X.ONE
        return [list(row)], [list(row)], n
    return X.identity(n), X.identity(n), 1


def split_block(rng: random.Random, n: int, m: int, c, d, psd: bool):
    """Split block i in two; the diagonal sum and the rank are unchanged."""
    i = rng.randrange(m)
    if psd:
        a, b, h = rng.choice(PYTHAGOREAN)
        wc = wd = (X.q(Fraction(a, h)), X.q(Fraction(b, h)))
    else:
        lam = Fraction(rng.randint(1, 6), 7)
        wc = (X.ONE, X.ONE)
        wd = (X.q(lam), X.q(1 - lam))

    def split(factor, weights):
        out = []
        for row in factor:
            block = row[i * n : (i + 1) * n]
            new = list(row)
            new[i * n : (i + 1) * n] = [X.mul(weights[0], x) for x in block]
            out.append(new + [X.mul(weights[1], x) for x in block])
        return out

    return split(c, wc), split(d, wd)


def mix(rng: random.Random, c, d, psd: bool, steps: int = 4):
    """Change the factors without changing C^dag D.

    PSD factors get a rational rotation and a phase (a unitary, applied to
    both, keeping C = D); other factors get an elementary row operation on C
    and its inverse adjoint on D.
    """
    c = [list(r) for r in c]
    d = [list(r) for r in d]
    k = len(c)
    if k < 2:
        return c, d
    for _ in range(steps):
        p, s = rng.sample(range(k), 2)
        if psd:
            a, b, h = rng.choice(PYTHAGOREAN)
            co, si = X.q(Fraction(a, h)), X.q(Fraction(b, h))
            phase = unit_phase(rng)
            for f in (c, d):
                rp, rs = f[p], f[s]
                f[p] = [X.mul(phase, X.sub(X.mul(co, x), X.mul(si, y))) for x, y in zip(rp, rs)]
                f[s] = [X.add(X.mul(si, x), X.mul(co, y)) for x, y in zip(rp, rs)]
        else:
            a = small_scalar(rng)
            c[p] = [X.add(x, X.mul(a, y)) for x, y in zip(c[p], c[s])]
            d[s] = [X.sub(y, X.mul(X.conj(a), x)) for x, y in zip(d[p], d[s])]
    return c, d


def corrupt(rng: random.Random, n: int, m: int, c, d, frame, want: str):
    """A corrupted copy and the kind the verifier must reject it with.

    ``want`` is "block-membership" (one entry of C in block 0 changes, so some
    block (0, j) leaves the span) or "trace" (D doubles: blocks stay in the
    span, the diagonal sums to 2I).  The kind is confirmed by a float check.
    """
    if want == "block-membership":
        for _ in range(64):
            t, col = rng.randrange(len(c)), rng.randrange(n)
            bad_c = [list(r) for r in c]
            bad_c[t][col] = X.add(bad_c[t][col], small_scalar(rng))
            kind = floatcheck.implied_kind(floatcheck.check(
                frame, n, m, floatcheck.to_array(bad_c), floatcheck.to_array(d)))
            if kind == want:
                return bad_c, d, kind
    bad_d = [[X.mul(X.q(2), x) for x in row] for row in d]
    kind = floatcheck.implied_kind(floatcheck.check(
        frame, n, m, floatcheck.to_array(c), floatcheck.to_array(bad_d)))
    assert kind == "trace", kind
    return c, bad_d, kind


def rational_unitary(rng: random.Random, n: int):
    """Permutation, rational rotations and phases: an exact unitary over Q(i)."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[X.ONE if perm[j] == i else X.ZERO for j in range(n)] for i in range(n)]
    u, _ = mix(rng, u, u, psd=True, steps=3)
    return u


# -- file formats -------------------------------------------------------------


def span_json(n: int, basis) -> dict:
    return {"n": n, "basis": [X.fmt_matrix(b) for b in basis]}


def cert_json(n: int, m: int, c, d) -> dict:
    return {"n": n, "m": m, "k": len(c), "C": X.fmt_matrix(c), "D": X.fmt_matrix(d)}


def tpmap_json(n: int, m: int, c, d) -> dict:
    def blocks(f):
        return [X.fmt_matrix([row[i * n : (i + 1) * n] for row in f]) for i in range(m)]

    return {"n": n, "k": len(c), "E": blocks(d), "F": blocks(c)}


def graph_text(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {i + 1} {j + 1}" for i, j in edges]
    return "\n".join(lines) + "\n"


def _write(out: Path, name: str, payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    (out / name).write_text(text)
    return name


# -- workloads ------------------------------------------------------------------


def _certify_item(out: Path, rng: random.Random, label: str, n: int, m: int, basis,
                  c, d, rank: int, want: str) -> dict:
    frame = floatcheck.span_frame([floatcheck.to_array(b) for b in basis])
    bad_c, bad_d, kind = corrupt(rng, n, m, c, d, frame, want)
    return {
        "label": label,
        "n": n,
        "m": m,
        "rank": rank,
        "psd": c == d,
        "span": _write(out, f"{label}-span.json", span_json(n, basis)),
        "cert": _write(out, f"{label}-cert.json", cert_json(n, m, c, d)),
        "tpmap": _write(out, f"{label}-tpmap.json", tpmap_json(n, m, c, d)),
        "bad": _write(out, f"{label}-bad.json", cert_json(n, m, bad_c, bad_d)),
        "bad_kind": kind,
    }


def make_certify(out: Path, rng: random.Random) -> dict:
    # C5 x C5: the product of a unit-vector orthogonal representation of C5
    # in Q^3 is one of C5 x C5 in Q^9, and its lift is a rank-9 PSD
    # certificate with 25 blocks, the lifted tensor of two C5 certificates.
    c5 = cycle_edges(5)
    rep = [(1, 0, 0), (Fraction(3, 5), Fraction(4, 5), 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)]
    n = 25
    vectors = [[Fraction(a) * Fraction(b) for a in rep[v // 5] for b in rep[v % 5]]
               for v in range(n)]
    big = X.zeros(9, n * n)
    for v, vec in enumerate(vectors):
        for t, x in enumerate(vec):
            big[t][v * n + v] = X.q(x)
    items = [_certify_item(out, rng, "c5xc5", n, n,
                           graph_span(n, strong_product_edges(5, c5, 5, c5)),
                           big, big, 9, "block-membership")]
    for idx, (kind, sn, m_target, psd) in enumerate(STOCK_SLOTS):
        basis, edges = named_span(kind, sn, rng)
        c, d, m = start_certificate(kind, sn, rng, edges, psd)
        while m < m_target:
            c, d = split_block(rng, sn, m, c, d, psd)
            m += 1
        c, d = mix(rng, c, d, psd)
        full = kind == "full"
        want = "trace" if full or idx % 2 else "block-membership"
        items.append(_certify_item(out, rng, f"stock{idx}", sn, m, basis, c, d,
                                   len(c), want))
    # transform operands: indices into items (0 is C5 x C5)
    unitary = rational_unitary(rng, 3)
    bad_span = json.loads((out / items[5]["span"]).read_text())
    bad_span["n"] = None
    bad_cert = json.loads((out / items[5]["cert"]).read_text())
    bad_cert["C"][0][0] = "1/0"
    return {
        "items": items,
        "tensor": [5, 4],
        "dsum": [3, 7],
        "conjugate": [4, _write(out, "unitary.json", X.fmt_matrix(unitary))],
        "roundtrip": 2,
        "cli_verify": [[3, "cert", "psd"], [5, "tpmap", "auto"]],
        "cli_tpmap": 6,
        "malformed": [
            [_write(out, "bad-null-n-span.json", bad_span), items[5]["cert"]],
            [_write(out, "bad-array-span.json", [bad_span["basis"]]), items[5]["cert"]],
            [items[5]["span"], _write(out, "bad-scalar-cert.json", bad_cert)],
        ],
    }


def make_decide(out: Path, rng: random.Random) -> dict:
    spans = {}
    for name, build in DECIDE_SPANS.items():
        basis = build()
        spans[name] = {"file": _write(out, f"{name}.json", span_json(len(basis[0]), basis)),
                       "n": len(basis[0]), "dim": len(basis)}
    return {
        "spans": spans,
        "instances": [list(inst) for inst in DECIDE_INSTANCES],
        "point_seed": rng.randrange(2**31),
    }


def make_bounds(out: Path, rng: random.Random) -> dict:
    pairs = [(i, j) for i in range(G40_VERTICES) for j in range(i + 1, G40_VERTICES)]
    label = list(range(G40_VERTICES))
    rng.shuffle(label)
    g40 = sorted(
        (min(label[i], label[j]), max(label[i], label[j]))
        for i, j in random.Random(G40_BASE_SEED).sample(pairs, G40_EDGES)
    )
    graphs = {}
    for name, n, edges in (("c5", 5, cycle_edges(5)), ("c7", 7, cycle_edges(7)),
                           ("g40", G40_VERTICES, g40)):
        graphs[name] = {"file": _write(out, f"{name}.dimacs", graph_text(n, edges)),
                        "n": n, "edges": edges}
    corners = []
    for c in CORNER_PARAMETERS:
        name = f"corner-{c.numerator}_{c.denominator}.json"
        corners.append({"c": str(c), "file": _write(out, name, span_json(3, corner_span(c)))})
    return {
        "graphs": graphs,
        "corners": corners,
        "pentagon": _write(out, "pentagon.json", span_json(5, graph_span(5, cycle_edges(5)))),
    }


MAKERS = {"certify": make_certify, "decide": make_decide, "bounds": make_bounds}


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one run into ``out`` and return their manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = MAKERS[workload](out, rng)
    manifest["workload"] = workload
    manifest["seed"] = seed
    _write(out, "manifest.json", manifest)
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MAKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = make_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps(manifest, indent=1, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
