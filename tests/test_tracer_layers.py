"""The benchmark's traced run wraps named zerocap functions; each must exist.

bench/tracer.py is read by file path and executed in its own namespace, so
nothing under bench/ is imported as a package or written to.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _layers():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    # The tracer looks each function up in sys.modules["zerocap.<module>"]
    # right after `import zerocap.cli`, before any command has run, so the
    # check runs in a fresh interpreter that has imported nothing else.
    layers = [(mod, cls, attr) for mod, cls, attr, _span, _count in _layers()]
    assert layers
    probe = (
        "import sys, zerocap.cli\n"
        f"for mod_name, cls_name, attr in {layers!r}:\n"
        "    home = sys.modules.get('zerocap.' + mod_name)\n"
        "    owner = getattr(home, cls_name, None) if cls_name else home\n"
        "    fn = getattr(owner, attr, None)\n"
        "    at_home = callable(fn) and fn.__module__ == 'zerocap.' + mod_name\n"
        "    if not at_home or (cls_name and attr not in vars(owner)):\n"
        "        print(f\"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}\")\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    missing = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert missing == []
