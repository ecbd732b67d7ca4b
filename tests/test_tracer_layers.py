"""The benchmark's traced run wraps named zerocap functions; each must exist.

bench/tracer.py is read by file path and executed in its own namespace, so
nothing under bench/ is imported as a package or written to.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    missing = []
    for mod_name, cls_name, attr, _span, _count in layers:
        home = importlib.import_module(f"zerocap.{mod_name}")
        if cls_name is None:
            found = callable(getattr(home, attr, None))
        else:
            cls = getattr(home, cls_name, None)
            found = cls is not None and attr in vars(cls)
        if not found:
            missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
    assert missing == []
