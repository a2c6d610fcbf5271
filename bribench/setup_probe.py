"""Time `import bri` plus building one workload's provider, in a fresh process.

Prints the elapsed seconds. run.py starts this script several times per
run and reports the median as ``setup_s``.

    python3 bribench/setup_probe.py WORKLOAD SEED INPUT|- [--tiny]
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bri  # noqa: E402,F401
import workloads  # noqa: E402

name, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
table = workloads.TINY if "--tiny" in sys.argv[4:] else workloads.WORKLOADS
provider = workloads.build_provider(table[name], seed, None if path == "-" else Path(path))
print(time.perf_counter() - t0)
