"""Time one set-up in a fresh interpreter: import pseudopool, generate the splits.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds, and the reference kernel's time taken right after
in the same process, as a JSON object on its last line.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pseudopool  # noqa: E402,F401
from pseudopool.datasets import generate_splits  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

generate_splits(WORKLOADS[sys.argv[1]].spec(int(sys.argv[2])))
setup_s = time.perf_counter() - t0

from reference import reference_seconds  # noqa: E402

print(json.dumps({"setup_s": setup_s, "reference_s": reference_seconds()}))
