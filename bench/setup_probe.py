"""One fresh start: import zerocap and load a workload's inputs, then report.

    python3 bench/setup_probe.py SRC_DIR WORKLOAD INPUT_DIR

Prints the seconds from the first line of this script to ready.  The clock
starts before ``import zerocap`` (and so before numpy is imported) and stops
once every input file has been loaded through the program's loaders.
zerocap.cli is imported as the command line does.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])

import zerocap.cli  # noqa: E402

import load  # noqa: E402

work = Path(sys.argv[3])
manifest = json.loads((work / "manifest.json").read_text())
load.load_inputs(zerocap, sys.argv[2], work, manifest)
print(time.perf_counter() - T0)
