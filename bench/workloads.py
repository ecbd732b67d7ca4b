"""The three workloads: a fixed query list per pass, and checks of every answer.

Each workload object is built once per run from the loaded inputs.  Its
``ops`` lists the same calls for every pass, keyed by name; ``check``
takes their outcomes and compares them with values computed apart from the program
(the benchmark's own exact or float code, or properties the method must
have) and returns the problems found.  Program functions are looked up on
their modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import exact as X
import floatcheck


def attempt(fn):
    """("ok", value) or ("raised", exception) of one program call."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - every outcome is checked by kind
        return ("raised", exc)


def run_cli(zc, argv: list[str]) -> dict:
    """One in-process ``zerocap`` command with its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome = attempt(lambda: zc.cli.main(argv))
    return {"outcome": outcome, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_ok(res: dict) -> bool:
    return res["outcome"] == ("ok", 0)


def clean_usage_error(res: dict) -> bool:
    """The malformed-input contract: exit 2 and exactly one ``error:`` line."""
    lines = res["stderr"].splitlines()
    return res["outcome"] == ("ok", 2) and len(lines) == 1 and lines[0].startswith("error:")


def _kind(outcome):
    if outcome[0] == "raised":
        return getattr(outcome[1], "kind", type(outcome[1]).__name__)
    return None


def _own_basis(path: Path):
    return [X.parse_matrix(b) for b in json.loads(path.read_text())["basis"]]


def _float_basis(path: Path):
    return [floatcheck.strings_to_array(b) for b in json.loads(path.read_text())["basis"]]


def _float_factors(data: dict):
    return floatcheck.strings_to_array(data["C"]), floatcheck.strings_to_array(data["D"])


class Certify:
    """Exact core: re-check stored certificates, reject corrupted ones, derive new ones."""

    def __init__(self, zc, work: Path, manifest: dict, objs: dict) -> None:
        self.zc, self.work, self.manifest, self.objs = zc, work, manifest, objs
        self.items = manifest["items"]
        self.first_texts: dict[str, str] = {}
        out = work / "out"
        out.mkdir(exist_ok=True)
        mf = manifest
        self.cli_valid = []
        for idx, which, kind in mf["cli_verify"]:
            item = self.items[idx]
            argv = ["nc", "verify-cert", str(work / item["span"]), str(work / item[which]),
                    "--kind", kind]
            self.cli_valid.append((argv, item["rank"]))
        tp_item = self.items[mf["cli_tpmap"]]
        self.tpmap_out = out / "tpmap-out.json"
        self.cli_tpmap = ["nc", "transform", "tpmap", str(work / tp_item["span"]),
                          str(work / tp_item["cert"]), "-o", str(self.tpmap_out)]
        self.cli_malformed = [["nc", "verify-cert", str(work / s), str(work / c)]
                              for s, c in mf["malformed"]]

    def prepare(self) -> list[str]:
        """Float re-check of every stored certificate against its known rank."""
        problems = []
        self.bases = {}
        for idx, item in enumerate(self.items):
            basis = _float_basis(self.work / item["span"])
            self.bases[idx] = basis
            frame = floatcheck.span_frame(basis)
            for key, want in (("cert", None), ("bad", item["bad_kind"])):
                data = json.loads((self.work / item[key]).read_text())
                res = floatcheck.check(frame, item["n"], item["m"], *_float_factors(data))
                if floatcheck.implied_kind(res) != want:
                    problems.append(f"{item['label']} {key}: float check gives "
                                    f"{floatcheck.implied_kind(res)}, built as {want}")
                if key == "cert" and res["rank"] != item["rank"]:
                    problems.append(f"{item['label']}: SVD rank {res['rank']} != "
                                    f"built rank {item['rank']}")
        return problems

    def ops(self) -> list:
        """(key, call) of every operation of one pass, in order."""
        cm = self.zc.certificates
        objs = self.objs["items"]
        ops = []
        for idx, obj in enumerate(objs):
            forms = [("factor", cm.verify_certificate, obj["cert"]),
                     ("tpmap", cm.verify_tp_map, obj["tpmap"]),
                     ("bad", cm.verify_certificate, obj["bad"])]
            if idx:  # the 625 x 625 PSD test of C5 x C5 alone would take 3 s
                forms.append(("psd", cm.verify_xi_certificate, obj["cert"]))
            ops += [((idx, form), lambda fn=fn, s=obj["span"], c=c: attempt(lambda: fn(s, c)))
                    for form, fn, c in forms]

        def derive(fn):
            def call():
                out = fn()
                return out, json.dumps(out.to_json_dict())
            return lambda: attempt(call)

        mf = self.manifest
        a, b = (objs[i] for i in mf["tensor"])
        ops.append(("tensor", derive(
            lambda: cm.tensor_certificate(a["span"], a["cert"], b["span"], b["cert"]))))
        c, d = (objs[i] for i in mf["dsum"])
        ops.append(("dsum", derive(
            lambda: cm.direct_sum_certificate(c["span"], c["cert"], d["span"], d["cert"]))))
        e = objs[mf["conjugate"][0]]
        ops.append(("conjugate", derive(
            lambda: cm.conjugate_certificate(e["span"], e["cert"], self.objs["unitary"]))))
        f = objs[mf["roundtrip"]]
        ops.append(("roundtrip", derive(
            lambda: cm.from_tp_map(cm.to_tp_map(f["span"], f["cert"])))))
        zc = self.zc
        ops += [(("cli_valid", i), lambda a=argv: run_cli(zc, a))
                for i, (argv, _) in enumerate(self.cli_valid)]
        ops.append(("cli_tpmap", lambda: run_cli(zc, self.cli_tpmap)))
        ops += [(("cli_malformed", i), lambda a=argv: run_cli(zc, a))
                for i, argv in enumerate(self.cli_malformed)]
        return ops

    def failed(self, res: dict) -> int:
        return sum(not clean_usage_error(res[("cli_malformed", i)])
                   for i in range(len(self.cli_malformed)))

    def check(self, res: dict) -> list[str]:
        problems = []
        for idx, item in enumerate(self.items):
            rec = {form: res[(idx, form)] for form in ("factor", "tpmap", "bad", "psd")
                   if (idx, form) in res}
            label, rank = item["label"], item["rank"]
            for form in ("factor", "tpmap"):
                if rec[form] != ("ok", rank):
                    problems.append(f"{label} {form}: {rec[form]} != rank {rank}")
            if "psd" in rec and item["psd"] and rec["psd"] != ("ok", rank):
                problems.append(f"{label} psd: {rec['psd']} != rank {rank}")
            if "psd" in rec and not item["psd"] and _kind(rec["psd"]) != "factor-mismatch":
                problems.append(f"{label} psd: {rec['psd']} is not a factor-mismatch")
            if _kind(rec["bad"]) != item["bad_kind"]:
                problems.append(f"{label} corrupted: {rec['bad']} != {item['bad_kind']}")
        problems += self._check_transforms(res)
        for i, (argv, rank) in enumerate(self.cli_valid):
            r = res[("cli_valid", i)]
            if not cli_ok(r) or r["stdout"].strip() != f"rank {rank}, OK":
                problems.append(f"{' '.join(argv[:2])}: {r['outcome']} {r['stdout']!r}")
        r = res["cli_tpmap"]
        if not cli_ok(r):
            problems.append(f"nc transform tpmap: {r['outcome']} {r['stderr']!r}")
        else:
            problems += self._check_tpmap_file()
        return problems

    def _check_transforms(self, res: dict) -> list[str]:
        problems = []
        mf = self.manifest
        items = self.items
        expect_k = {
            "tensor": items[mf["tensor"][0]]["rank"] * items[mf["tensor"][1]]["rank"],
            "dsum": items[mf["dsum"][0]]["rank"] + items[mf["dsum"][1]]["rank"],
            "conjugate": items[mf["conjugate"][0]]["rank"],
            "roundtrip": items[mf["roundtrip"]]["rank"],
        }
        for name, k in expect_k.items():
            outcome = res[name]
            if outcome[0] != "ok":
                problems.append(f"{name}: raised {outcome[1]!r}")
                continue
            cert, text = outcome[1]
            if cert.k != k:
                problems.append(f"{name}: k = {cert.k}, the rank law gives {k}")
            if name in self.first_texts:
                if text != self.first_texts[name]:
                    problems.append(f"{name}: output differs from the first pass")
                continue
            self.first_texts[name] = text
            problems += self._float_check_transform(name, json.loads(text), k)
        return problems

    def _float_check_transform(self, name: str, data: dict, k: int) -> list[str]:
        mf = self.manifest
        if name == "tensor":
            i, j = mf["tensor"]
            basis = [np.kron(a, b) for a in self.bases[i] for b in self.bases[j]]
        elif name == "dsum":
            i, j = mf["dsum"]
            n1, n2 = self.items[i]["n"], self.items[j]["n"]
            basis = [np.block([[a, np.zeros((n1, n2))], [np.zeros((n2, n1)), np.zeros((n2, n2))]])
                     for a in self.bases[i]]
            basis += [np.block([[np.zeros((n1, n1)), np.zeros((n1, n2))], [np.zeros((n2, n1)), b]])
                      for b in self.bases[j]]
        elif name == "conjugate":
            u = floatcheck.strings_to_array(
                json.loads((self.work / mf["conjugate"][1]).read_text()))
            basis = [u.conj().T @ a @ u for a in self.bases[mf["conjugate"][0]]]
        else:
            basis = self.bases[mf["roundtrip"]]
            original = json.loads((self.work / self.items[mf["roundtrip"]]["cert"]).read_text())
            if {key: data[key] for key in original} != original:
                return ["roundtrip: map form did not return the identical certificate"]
        res = floatcheck.check(floatcheck.span_frame(basis), data["n"], data["m"],
                               *_float_factors(data))
        if not (res["member"] and res["trace"] and res["rank"] == k):
            return [f"{name}: float check {res}, expected rank {k}"]
        return []

    def _check_tpmap_file(self) -> list[str]:
        text = self.tpmap_out.read_text()
        if "cli_tpmap" in self.first_texts:
            if text != self.first_texts["cli_tpmap"]:
                return ["nc transform tpmap: output differs from the first pass"]
            return []
        self.first_texts["cli_tpmap"] = text
        item = self.items[self.manifest["cli_tpmap"]]
        data = json.loads(text)
        c = np.concatenate([floatcheck.strings_to_array(f) for f in data["F"]], axis=1)
        d = np.concatenate([floatcheck.strings_to_array(e) for e in data["E"]], axis=1)
        idx = self.manifest["cli_tpmap"]
        res = floatcheck.check(floatcheck.span_frame(self.bases[idx]), item["n"],
                               len(data["E"]), c, d)
        if not (res["member"] and res["trace"] and res["rank"] == item["rank"]):
            return [f"nc transform tpmap output: float check {res}"]
        return []


class Decide:
    """Buchberger refutations of rank 1 on tiny proper subspaces."""

    def __init__(self, zc, work: Path, manifest: dict, objs: dict) -> None:
        self.zc, self.manifest, self.spans = zc, manifest, objs
        self.instances = [tuple(inst) for inst in manifest["instances"]]
        self.passes_checked = 0

    def prepare(self) -> list[str]:
        """Generators of each system and random rational points to test them at."""
        problems = []
        rng = random.Random(self.manifest["point_seed"])
        self.gens, self.points = [], []
        for name, m, encoding in self.instances:
            span = self.manifest["spans"][name]
            if span["dim"] >= span["n"] ** 2:
                problems.append(f"{name}: not a proper subspace, rank 1 may be feasible")
            system = self.zc.groebner.encode_rank_feasibility(self.spans[name], 1, m,
                                                              encoding=encoding)
            nvars = system.polynomials[0].nvars
            self.gens.append([p.terms for p in system.polynomials])
            self.points.append([
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars)]
                for _ in range(3)
            ])
        return problems

    def ops(self) -> list:
        cm = self.zc.certificates
        return [
            (i, lambda s=self.spans[name], m=m, enc=enc: attempt(
                lambda: cm.haemers_exact_decide(s, 1, m, encoding=enc)))
            for i, (name, m, enc) in enumerate(self.instances)
        ]

    def failed(self, res) -> int:
        return 0

    def check(self, res) -> list[str]:
        """Verdict infeasible, and sum h_i g_i = 1 at random rational points.

        The first pass is tested at three points per instance, later passes
        at one, in turn.
        """
        problems = []
        first = self.passes_checked == 0
        which = range(3) if first else [self.passes_checked % 3]
        self.passes_checked += 1
        for i, ((name, m, enc), gens, points) in enumerate(zip(self.instances, self.gens,
                                                               self.points)):
            outcome = res[i]
            label = f"{name} m={m} {enc}"
            if outcome[0] != "ok" or outcome[1].status != "infeasible":
                problems.append(f"{label}: {outcome}")
                continue
            cofactors = outcome[1].engine.cofactors
            if len(cofactors) != len(gens):
                problems.append(f"{label}: {len(cofactors)} cofactors for {len(gens)} generators")
                continue
            for p in which:
                total = sum(X.poly_eval(h.terms, points[p]) * X.poly_eval(g, points[p])
                            for h, g in zip(cofactors, gens))
                if total != 1:
                    problems.append(f"{label}: sum h_i g_i = {total} at point {p}")
        return problems


def _theta_cycle(n: int) -> float:
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


class Bounds:
    """The commands a user runs for a bound: graph report, theta, nc haemers."""

    THETA_TOL = 1e-6

    def __init__(self, zc, work: Path, manifest: dict, objs: dict) -> None:
        self.zc, self.work, self.manifest, self.objs = zc, work, manifest, objs
        out = work / "out"
        out.mkdir(exist_ok=True)
        graphs = manifest["graphs"]
        self.reports = [
            (name, ["graph", "report", str(work / graphs[name]["file"]), "--cert-dir",
                    str(out), "--json"])
            for name in ("c5", "c7")
        ]
        self.haemers = []
        for corner in manifest["corners"]:
            self.haemers.append(("corner " + corner["c"], corner["file"],
                                 ["--m-schedule", "1,2"]))
        self.haemers.append(("pentagon", manifest["pentagon"],
                             ["--m-schedule", "1,2", "--budget", "2", "--k-max", "3"]))
        self.haemers = [
            (label, span, ["nc", "haemers", str(work / span), "--json", "--cert-out",
                           str(out / f"{Path(span).stem}-cert.json")] + extra)
            for label, span, extra in self.haemers
        ]

    def prepare(self) -> list[str]:
        g = self.manifest["graphs"]
        self.alpha = {name: X.alpha_bruteforce(v["n"], v["edges"]) for name, v in g.items()}
        self.cover = len(X.greedy_clique_cover(g["g40"]["edges"], range(g["g40"]["n"])))
        self.bases = {span: _own_basis(self.work / span) for _, span, _ in self.haemers}
        return []

    def ops(self) -> list:
        zc = self.zc
        g40 = self.objs["graphs"]["g40"]
        return (
            [(("report", i), lambda a=argv: run_cli(zc, a))
             for i, (_, argv) in enumerate(self.reports)]
            + [("theta", lambda: attempt(lambda: zc.theta.lovasz_theta(g40)))]
            + [(("haemers", i), lambda a=argv: run_cli(zc, a))
               for i, (_, _, argv) in enumerate(self.haemers)]
        )

    def failed(self, res) -> int:
        return 0

    def check(self, res: dict) -> list[str]:
        problems = []
        for i, (name, _) in enumerate(self.reports):
            problems += self._check_report(name, res[("report", i)])
        outcome = res["theta"]
        if outcome[0] != "ok":
            problems.append(f"theta G(40): raised {outcome[1]!r}")
        else:
            sol = outcome[1]
            if not (self.alpha["g40"] <= sol.value + self.THETA_TOL
                    and sol.value <= self.cover + self.THETA_TOL
                    and sol.lower_bound <= sol.value <= sol.upper_bound):
                problems.append(f"theta G(40) = {sol.value} outside alpha {self.alpha['g40']}"
                                f" .. clique cover {self.cover}")
        for i, (label, span, _) in enumerate(self.haemers):
            problems += self._check_haemers(label, span, res[("haemers", i)])
        return problems

    def _check_report(self, name: str, r: dict) -> list[str]:
        if not cli_ok(r):
            return [f"graph report {name}: {r['outcome']} {r['stderr']!r}"]
        payload = json.loads(r["stdout"])
        rows = {row[0]: row[1:] for row in payload["rows"]}
        n = self.manifest["graphs"][name]["n"]
        problems = []
        alpha, theta = rows["alpha"][0], rows["theta"][0]
        lower, upper, xi = rows["haemers-lower"][0], rows["haemers-upper"][0], rows["xi-upper"][0]
        if alpha != self.alpha[name]:
            problems.append(f"{name}: alpha {alpha} != brute force {self.alpha[name]}")
        if abs(theta - _theta_cycle(n)) > self.THETA_TOL:
            problems.append(f"{name}: theta {theta} != {_theta_cycle(n)}")
        if not (alpha <= lower <= upper <= xi) or payload["consistency"] != "pass":
            problems.append(f"{name}: bounds out of order {alpha} {lower} {upper} {xi}")
        fitting = json.loads(Path(rows["haemers-upper"][1].split(":", 1)[1]).read_text())
        b = X.parse_matrix(fitting["B"])
        adjacent = {tuple(e) for e in fitting["graph"]["edges"]}
        for i in range(n):
            for j in range(n):
                non_edge = i != j and (min(i, j), max(i, j)) not in adjacent
                if (i == j or non_edge) and (i == j) == X.is_zero(b[i][j]):
                    problems.append(f"{name}: fitting entry ({i}, {j}) breaks the zero pattern")
        if X.rank(b) != upper:
            problems.append(f"{name}: fitting rank {X.rank(b)} != reported {upper}")
        rep = json.loads(Path(rows["xi-upper"][1].split(":", 1)[1]).read_text())
        vecs = [[X.parse(x) for x in v] for v in rep["vectors"]]
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in adjacent:
                    inner = X.ZERO
                    for x, y in zip(vecs[i], vecs[j]):
                        inner = X.add(inner, X.mul(X.conj(x), y))
                    if not X.is_zero(inner):
                        problems.append(f"{name}: vectors {i}, {j} not orthogonal")
        if any(len(v) != xi for v in vecs):
            problems.append(f"{name}: representation dimension != xi-upper {xi}")
        return problems

    def _check_haemers(self, label: str, span: str, r: dict) -> list[str]:
        if not cli_ok(r):
            return [f"nc haemers {label}: {r['outcome']} {r['stderr']!r}"]
        payload = json.loads(r["stdout"])
        lower, upper = payload["lower"]["value"], payload["upper"]["rank"]
        path = Path(payload["upper"]["provenance"].split(":", 1)[1])
        try:
            own_rank = X.check_certificate(self.bases[span], json.loads(path.read_text()))
        except ValueError as exc:
            return [f"nc haemers {label}: certificate fails the re-check: {exc}"]
        problems = []
        if own_rank != upper or not lower <= upper:
            problems.append(f"nc haemers {label}: [{lower}, {upper}], re-checked rank {own_rank}")
        if label == "pentagon" and not (upper >= 3 and lower <= 3):
            problems.append(f"pentagon: [{lower}, {upper}] contradicts H = 3")
        if label != "pentagon" and upper > 3:
            problems.append(f"{label}: upper {upper} > 3")
        return problems


WORKLOADS = {"certify": Certify, "decide": Decide, "bounds": Bounds}
