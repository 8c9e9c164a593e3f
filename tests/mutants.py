"""Replay the recorded mutants: each must be killed by tier-1, or survive it.

    python tests/mutants.py [ID ...]

Each row of MUTANTS names a file of the checkout, an old text that must
occur in it exactly once, the new text put in its place, and what tier-1
must do: "killed" (some test fails), or "equivalent: <why>" (every test
passes, because the mutant cannot change an answer).  For each row, and
first for the unchanged checkout, the checkout is copied to a fresh
temporary directory (TMPDIR picks where), the edit is made there and
`python -m pytest -x -q -p no:cacheprovider tests` runs on the copy with
PYTHONPATH set to the copy's src/.  One line per row gives the outcome,
the seconds taken and, for a killed mutant, the first failing test.  The
exit status is 1 when the unchanged checkout fails, an old text does not
occur exactly once, a "killed" row survives, or an "equivalent" row is
killed, which means the row is stale.  Given IDs, only those rows run.

pytest does not collect this file: a killed mutant takes a tier-1 run up
to its first failure, an equivalent one a whole run.  A change that adds a
filter, a memo or a refusal adds the row of its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (id, file, old text, new text, "killed" or "equivalent: <why>")
MUTANTS = [
    ("so-fixed-dim-residue", "src/trisat/bibi.py",
     "residues[-j % n]", "residues[(1 - j) % n]", "killed"),
    ("label-with-underscore", "src/trisat/rootsys.py",
     'return f"{self.family}{self.rank}"', 'return f"{self.family}_{self.rank}"', "killed"),
    ("perm-fixed-dim-gcd-as-min", "src/trisat/altmethod.py",
     "math.gcd(x, y)", "min(x, y)", "killed"),
    ("perm-fixed-dim-within", "src/trisat/altmethod.py",
     "(length - 1) // 2", "length // 2", "killed"),
    ("no-swap-rule", "src/trisat/permgrp.py",
     "for tb in kept[ta] if tb.parts not in settled)", "for tb in kept[ta])", "killed"),
    ("scott-search-cap-m+4", "src/trisat/permgrp.py",
     "scott_cap = m + 2", "scott_cap = m + 4", "killed"),
    ("scott-search-cap-m+3", "src/trisat/permgrp.py",
     "scott_cap = m + 2", "scott_cap = m + 3",
     "equivalent: an even permutation of m points has a cycle count of m's parity, so a class "
     "triple's three counts sum to m mod 2 and never to m + 3"),
    ("scott-proof-bound-m+1", "src/trisat/permgrp.py",
     "if bound > m + 2:", "if bound > m + 1:", "killed"),
    ("scott-proof-bound-m+4", "src/trisat/permgrp.py",
     "if bound > m + 2:", "if bound > m + 4:", "killed"),
    ("no-transitivity-filter", "src/trisat/permgrp.py",
     "if not _is_transitive(a_img, b_img, m):", "if False:", "killed"),
    ("orbit-key-never-skips", "src/trisat/permgrp.py",
     "if orbit in met:", "if False:", "killed"),
    ("orbit-key-coarse-kinds", "src/trisat/permgrp.py",
     "cyc[-1], 4 * len(cyc)", "cyc[-1], len(cyc)",
     "equivalent: coarser kinds are still C(A)-invariant, so the orbit key stays exact"),
    ("a1-test-by-rank", "src/trisat/saturation.py",
     'if t.label == "A1":\n        raise', "if t.rank == 1:\n        raise",
     "equivalent: A1 is the only valid type of rank 1"),
    ("fewest-counts-swapped", "src/trisat/permgrp.py",
     "min((t.cycle_count for t in evens), default=None),\n"
     "            min((t.cycle_count for t in types), default=None))",
     "min((t.cycle_count for t in types), default=None),\n"
     "            min((t.cycle_count for t in evens), default=None))", "killed"),
    ("even-filter-dropped", "src/trisat/permgrp.py",
     "evens = tuple(t for t in types if t.is_even)", "evens = types", "killed"),
    ("types-below-1-accepted", "src/trisat/permgrp.py",
     "    if m < 1 or n < 1:\n"
     '        raise ValueError(f"degree {m} and order {n} must both be at least 1")\n', "",
     "killed"),
    ("weil-h1-any-length", "src/trisat/weil.py",
     "    if len(fixed) != 3:\n"
     '        raise ValueError(f"fixed must hold three dimensions, one per generator, '
     'got {fixed!r}")\n', "", "killed"),
]


def run(row) -> tuple[str, float, str]:
    """Tier-1 on a copy of the checkout with the row's edit (none for None):
    "killed" or "survived", the seconds, and the first failing test."""
    with tempfile.TemporaryDirectory(prefix="trisat-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "BENCH_*.json"))
        if row is not None:
            _, name, old, new, _ = row
            path = copy / name
            text = path.read_text()
            if text.count(old) != 1:
                return f"old text occurs {text.count(old)} times in {name}", 0.0, ""
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "tests"], cwd=copy, env=env, capture_output=True, text=True,
                              timeout=1800)
        seconds = time.perf_counter() - start
    failed = next((line for line in proc.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "")
    outcome = {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode,
                                                          f"pytest exit {proc.returncode}")
    return outcome, seconds, failed


def main(ids) -> int:
    unknown = set(ids) - {row[0] for row in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    outcome, seconds, failed = run(None)
    print(f"unchanged checkout: {outcome} ({seconds:.1f} s) {failed}", flush=True)
    if outcome != "survived":
        return 1
    bad = 0
    for row in MUTANTS:
        if ids and row[0] not in ids:
            continue
        expected = "killed" if row[4] == "killed" else "survived"
        outcome, seconds, failed = run(row)
        ok = outcome == expected
        bad += not ok
        print(f"{'ok   ' if ok else 'STALE'} {row[0]}: {outcome} ({seconds:.1f} s), "
              f"expected {row[4]} {failed}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
