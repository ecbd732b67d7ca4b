"""Benchmark of zerocap: one workload, one seed, every answer checked.

    python3 bench/run.py --workload certify|decide|bounds --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run writes its inputs with the benchmark's own code
(inputs.py), measures set-up in fresh interpreters, then repeats one pass of
the workload's fixed query list for S seconds, checking every pass.  Every
timed phase is calibrated by the reference kernel in calib.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics ``setup_s``, ``pass_s`` and ``peak_rss_mb``.  With
--trace 1 nothing is timed end to end: wrappers from tracer.py record spans
around the program's public functions, and the last line holds the
per-layer metrics, each summed over one load of the inputs plus the median
pass.  The spans are written to bench/work/<workload>-<seed>/trace.jsonl.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy's BLAS stays on one thread: runs share a 2-core host

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up, at least SETUP_STARTS
#: of them and at least SETUP_SECONDS of their time; setup_s is their median.
SETUP_STARTS = 3
SETUP_SECONDS = 3.0

#: Seconds of program work between two runs of the reference kernel in a pass.
CHUNK_S = 0.15


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def time_setup(workload: str, work: Path, calib) -> tuple[list[float], list[float], list[float]]:
    """Raw, kernel and calibrated seconds of each fresh start."""
    raws, kernels, cals = [], [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(work)]
    while len(raws) < SETUP_STARTS or sum(raws) < SETUP_SECONDS:
        before = calib.kernel_seconds()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        after = calib.kernel_seconds()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw = float(proc.stdout.strip().splitlines()[-1])
        raws.append(raw)
        kernels.append((before + after) / 2)
        cals.append(calib.calibrate(raw, [before, after]))
    return raws, kernels, cals


def run_pass(ops, calib):
    """(results, raw seconds, kernel seconds, calibrated seconds) of one pass.

    The kernel runs before the pass, after it, and between operations each
    time CHUNK_S of program time has passed since its last run.  The pass is
    calibrated by the median of these kernel times, the host's speed over
    the pass.
    """
    results = {}
    raw = chunk = 0.0
    kernels = [calib.kernel_seconds()]
    for i, (key, call) in enumerate(ops):
        t0 = time.perf_counter()
        results[key] = call()
        chunk += time.perf_counter() - t0
        if chunk >= CHUNK_S or i == len(ops) - 1:
            kernels.append(calib.kernel_seconds())
            raw += chunk
            chunk = 0.0
    return results, raw, statistics.median(kernels), calib.calibrate(raw, kernels)


def timed(fn, calib):
    """(result, raw seconds, kernel seconds, calibrated seconds) of one phase."""
    before = calib.kernel_seconds()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = calib.kernel_seconds()
    return result, raw, (before + after) / 2, calib.calibrate(raw, [before, after])


def main() -> int:
    parser = argparse.ArgumentParser(description="zerocap benchmark")
    parser.add_argument("--workload", required=True, choices=("certify", "decide", "bounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "zerocap" / "__init__.py").is_file():
        return fail(f"no zerocap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import zerocap
    import zerocap.cli

    if Path(zerocap.__file__).resolve().parent != (SRC / "zerocap").resolve():
        return fail(f"imported zerocap from {zerocap.__file__}, not from {SRC}")
    warnings.simplefilter("ignore")

    import calib
    import inputs
    import load
    import tracer as tracing
    import workloads

    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = inputs.make_inputs(args.workload, args.seed, work)

    setup = None
    if not args.trace:
        setup = time_setup(args.workload, work, calib)

    tracer = None
    layer_phases = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        first = tracer.start_phase("load")
        objs, _, kern, _ = timed(
            lambda: load.load_inputs(zerocap, args.workload, work, manifest), calib)
        layer_phases.append((tracer.stop_phase(first), kern))
    else:
        objs = load.load_inputs(zerocap, args.workload, work, manifest)

    wl = workloads.WORKLOADS[args.workload](zerocap, work, manifest, objs)
    problems = wl.prepare()
    ops = wl.ops()

    passes = []  # (raw, kernel, calibrated)
    failed = 0
    start = time.perf_counter()
    while True:
        first = tracer.start_phase(f"pass{len(passes)}") if tracer else 0
        res, raw, kern, cal = run_pass(ops, calib)
        if tracer:
            layer_phases.append((tracer.stop_phase(first), kern))
        passes.append((raw, kern, cal))
        failed += wl.failed(res)
        problems += wl.check(res)
        if time.perf_counter() - start >= args.seconds:
            break

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    reference = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_raw_s": statistics.median(p[0] for p in passes),
        "pass_kernel_s": statistics.median(p[1] for p in passes),
        "pass_s": statistics.median(p[2] for p in passes),
        "each_pass_raw_s": [p[0] for p in passes],
        "each_pass_kernel_s": [p[1] for p in passes],
        "kernel_nominal_s": calib.KERNEL_NOMINAL_S,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if setup is not None:
        reference["setup_raw_s"] = statistics.median(setup[0])
        reference["setup_kernel_s"] = statistics.median(setup[1])
        reference["each_setup_raw_s"] = setup[0]
        reference["each_setup_kernel_s"] = setup[1]

    if tracer:
        metrics = layer_metrics(layer_phases, calib, tracing)
        tracer.write(work / "trace.jsonl")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup[2]), "unit": "s"},
            "pass_s": {"value": reference["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"reference": reference}))
    (work / "result.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


def layer_metrics(phases, calib, tracing) -> dict:
    """Per-layer metrics: the load phase plus the median over passes.

    Self seconds are scaled by the median kernel of their phase; counts are
    taken as they are.
    """

    def calibrated(phase, kern):
        scale = calib.KERNEL_NOMINAL_S / kern
        values = {f"{name}_s": secs * scale for name, secs in phase["self_s"].items()}
        values.update(phase["counts"])
        return values

    rows = [calibrated(*p) for p in phases]
    load_row, pass_rows = rows[0], rows[1:]
    names = [f"{n}_s" for n in tracing.SPAN_NAMES] + list(tracing.COUNT_NAMES)
    values = {n: load_row[n] + statistics.median(r[n] for r in pass_rows) for n in names}
    calls = values["certificates.search_calls"]
    values["certificates.search_hit_ratio"] = (
        values["certificates.search_found"] / calls if calls else 0.0)
    units = {n: "s" if n.endswith("_s") else "count" for n in values}
    units["certificates.search_hit_ratio"] = "ratio"
    return {n: {"value": values[n], "unit": units[n]} for n in sorted(values)}


if __name__ == "__main__":
    raise SystemExit(main())
