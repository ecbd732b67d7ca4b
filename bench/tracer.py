"""Spans around zerocap's public functions, installed from outside the program.

The traced run replaces each function listed in LAYERS by a wrapper, in
every zerocap module that holds a reference to it, and records one span
(name, start, end, parent) per call.  Spans stay in memory and are written
as JSON lines at the end.  Self time is a span's duration minus the
durations of its direct children.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, class or None, attribute, span name, count calls)
# parse_scalar is wrapped where other modules call it, but not inside
# exactlinalg, where ExactMatrix.from_strings calls it once per entry: the
# entries of a matrix are timed as part of that from_strings span.
LAYERS = (
    ("exactlinalg", "ExactMatrix", "rank", "exactlinalg.rank", True),
    ("exactlinalg", None, "rank_factorization", "exactlinalg.factor", False),
    ("exactlinalg", "ExactMatrix", "solve", "exactlinalg.solve", True),
    ("exactlinalg", "ExactMatrix", "__matmul__", "exactlinalg.product", False),
    ("exactlinalg", "ExactMatrix", "kron", "exactlinalg.product", False),
    ("exactlinalg", None, "sparse_rref", "exactlinalg.rref", False),
    ("exactlinalg", None, "reduce_row", "exactlinalg.rref", False),
    ("exactlinalg", None, "parse_scalar", "exactlinalg.parse", False),
    ("exactlinalg", "ExactMatrix", "from_strings", "exactlinalg.parse", False),
    ("ncgraph", "NcGraph", "__init__", "ncgraph.build", True),
    ("ncgraph", "NcGraph", "span_from_generators", "ncgraph.build", False),
    ("ncgraph", "NcGraph", "from_graph", "ncgraph.build", False),
    ("ncgraph", "NcGraph", "from_json_dict", "ncgraph.build", False),
    ("ncgraph", "NcGraph", "contains", "ncgraph.contains", True),
    ("certificates", None, "verify_certificate", "certificates.verify", True),
    ("certificates", None, "verify_tp_map", "certificates.verify", True),
    ("certificates", None, "verify_xi_certificate", "certificates.verify", True),
    ("certificates", None, "tensor_certificate", "certificates.transform", False),
    ("certificates", None, "direct_sum_certificate", "certificates.transform", False),
    ("certificates", None, "conjugate_certificate", "certificates.transform", False),
    ("certificates", None, "to_tp_map", "certificates.transform", False),
    ("certificates", None, "from_tp_map", "certificates.transform", False),
    ("certificates", None, "haemers_upper_search", "certificates.search", True),
    ("certificates", None, "haemers_lower", "certificates.lower", False),
    ("certificates", None, "haemers_exact_decide", "certificates.decide", False),
    ("groebner", None, "buchberger", "groebner.buchberger", True),
    ("groebner", None, "encode_rank_feasibility", "groebner.encode", False),
    ("groebner", None, "check_cofactors", "groebner.cofactor_check", False),
    ("theta", None, "lovasz_theta", "theta.solve", True),
    ("graphs", None, "independence_number", "graphs.alpha", True),
    ("graphs", None, "strong_product", "graphs.product", False),
    ("classical", None, "bounds_report", "classical.report", False),
    ("classical", None, "verify_fitting", "classical.fitting_verify", False),
    ("classical", None, "orthogonal_rank_verify", "classical.fitting_verify", False),
    ("independence", None, "alpha_lower_search", "independence.search", False),
    ("independence", None, "verify_independent", "independence.verify", False),
    ("cli", None, "main", "cli.command", False),
)


def _found(result, counts):
    counts["certificates.search_found"] += result is not None


def _engine(result, counts):
    counts["groebner.pairs"] += result.pairs_processed
    counts["groebner.basis_polys"] += len(result.basis)


def _newton(result, counts):
    counts["theta.newton_steps"] += result.iterations


#: Counters read off return values, keyed by span name.
RESULT_COUNTERS = {
    "certificates.search": _found,
    "groebner.buchberger": _engine,
    "theta.solve": _newton,
}

SPAN_NAMES = tuple(dict.fromkeys(layer[3] for layer in LAYERS))
COUNT_NAMES = tuple(
    dict.fromkeys(
        [f"{layer[3]}_calls" for layer in LAYERS if layer[4]]
        + ["certificates.search_found", "groebner.pairs", "groebner.basis_polys",
           "theta.newton_steps"]
    )
)


class Tracer:
    """Records spans while active; a paused tracer passes calls straight through."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent, start, end, phase]
        self.stack: list[int] = []
        self.phase = ""
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def wrap(self, fn, name: str, count: bool):
        tracer = self
        name_idx = len(self.names)
        self.names.append(name)
        hook = RESULT_COUNTERS.get(name)
        calls_key = f"{name}_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name_idx, parent, time.perf_counter(), 0.0, tracer.phase]
            tracer.spans.append(span)
            tracer.stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if count:
                tracer.counts[calls_key] += 1
            if hook is not None:
                hook(result, tracer.counts)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every listed function in every zerocap module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "zerocap" or n.startswith("zerocap.")]
        for mod_name, cls_name, attr, name, count in LAYERS:
            home = sys.modules[f"zerocap.{mod_name}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name, count)))
                else:
                    setattr(cls, attr, self.wrap(raw, name, count))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, count)
            for mod in modules:
                if attr == "parse_scalar" and mod is home:
                    continue
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)

    def start_phase(self, label: str) -> int:
        """Begin recording a phase; returns the index of its first span."""
        self.phase = label
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.active = True
        return len(self.spans)

    def stop_phase(self, first: int) -> dict:
        """Stop recording; self seconds per span name and counts of the phase."""
        self.active = False
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[1] - first
            if parent >= 0:
                child[parent] += span[3] - span[2]
        selfs = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, covered in zip(spans, child):
            selfs[self.names[span[0]]] += span[3] - span[2] - covered
        return {"self_s": selfs, "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span_id, (name_idx, parent, start, end, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": self.names[name_idx],
                                     "parent": parent, "start": start, "end": end,
                                     "phase": phase}) + "\n")
