"""Set-up probe: import trisat, expand one workload's cases, print their count.

run.py starts this script several times and times each start until the
count line arrives, which is the set-up a user pays before the first case.
Usage: python3 bench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402  (imports trisat)

print(len(workloads.build(sys.argv[1])), flush=True)
