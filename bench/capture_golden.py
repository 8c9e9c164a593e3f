"""Write bench/golden/<workload>.txt: every case's output, one "key<TAB>json" line each.

The golden copy pins the program's outputs at the commit it was captured
from; run.py fails any case whose output later differs by a byte.  Rerun
this only for a change that is meant to alter outputs, and say why.
Usage: python3 bench/capture_golden.py [workload ...]
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

GOLDEN = BENCH / "golden"


def main(names) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        lines = [f"{key}\t{workloads.canonical(run())}\n" for key, run in workloads.build(name)]
        (GOLDEN / f"{name}.txt").write_text("".join(lines))
        print(f"{name}: {len(lines)} cases")


if __name__ == "__main__":
    main(sys.argv[1:])
