"""Run decide over a fixed closed-form grid and print one digest.

    PYTHONPATH=src python tests/closed_form_grid.py [--expect SHA256]

The grid is decide(t, triple), without the alternating-group search, for
every type t of all_types(20) and every hyperbolic (a, b, c) with
2 <= a <= b <= c <= 30: 80 types by 4,460 triples, 356,800 cases.  It
prints the case count, the count of each verdict status, a SHA-256 of the
verdicts' JSON and the CPU time.  Two checkouts that give the same verdicts and
certificates print the same digest.  With --expect, a digest other than
the one given is reported on stderr and the exit status is 1.  It is the
closed-form twin of search_grid.py; pytest does not collect this file, but
tests/test_saturation.py runs run_grid on the slice with c <= 14.
"""

import argparse
import hashlib
import json
import sys
import time
from collections import Counter

from trisat import Triple, decide
from trisat.rootsys import all_types

def hyperbolic_triples(c_max: int) -> list[tuple[int, int, int]]:
    """Every hyperbolic (a, b, c) with 2 <= a <= b <= c <= c_max, in order."""
    return [(a, b, c) for a in range(2, c_max + 1) for b in range(a, c_max + 1)
            for c in range(b, c_max + 1) if b * c + a * c + a * b < a * b * c]


def run_grid(types, triples) -> tuple[Counter, str]:
    """decide(t, Triple(*orders)) for every t in types and orders in triples:
    the count of each verdict status and the SHA-256 of the verdicts' JSON."""
    digest = hashlib.sha256()
    statuses = Counter()
    for t in types:
        for orders in triples:
            verdict = decide(t, Triple(*orders))
            statuses[verdict.status] += 1
            digest.update(json.dumps([str(t), orders, verdict.as_dict()]).encode() + b"\n")
    return statuses, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description="Digest decide over the closed-form grid.")
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args()
    start = time.process_time()
    statuses, sha = run_grid(all_types(20), hyperbolic_triples(30))
    cpu = time.process_time() - start
    print(f"cases {sum(statuses.values())}")
    for status, count in sorted(statuses.items()):
        print(f"{status} {count}")
    print(f"sha256 {sha}")
    print(f"cpu_s {cpu:.2f}")
    if args.expect is not None and args.expect != sha:
        sys.exit(f"digest mismatch: expected {args.expect}")


if __name__ == "__main__":
    main()
