"""Run decide over a fixed closed-form grid and print one digest.

    PYTHONPATH=src python tests/closed_form_grid.py [--expect SHA256]

The grid is decide(t, triple), without the alternating-group search, for
every type t of all_types(20) and every hyperbolic (a, b, c) with
2 <= a <= b <= c <= 30: 80 types by 4,460 triples, 356,800 cases.  It
prints the case count, the count of each verdict status, a SHA-256 of the
verdicts' JSON and the CPU time.  Two checkouts that give the same verdicts and
certificates print the same digest.  With --expect, a digest other than
the one given is reported on stderr and the exit status is 1.  It is the
closed-form twin of search_grid.py; pytest does not collect this file.
"""

import argparse
import hashlib
import json
import sys
import time
from collections import Counter

from trisat import Triple, decide
from trisat.rootsys import all_types

TRIPLES = [(a, b, c) for a in range(2, 31) for b in range(a, 31) for c in range(b, 31)
           if b * c + a * c + a * b < a * b * c]


def main():
    parser = argparse.ArgumentParser(description="Digest decide over the closed-form grid.")
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args()
    digest = hashlib.sha256()
    statuses = Counter()
    start = time.process_time()
    for t in all_types(20):
        for orders in TRIPLES:
            verdict = decide(t, Triple(*orders))
            statuses[verdict.status] += 1
            digest.update(json.dumps([str(t), orders, verdict.as_dict()]).encode() + b"\n")
    cpu = time.process_time() - start
    print(f"cases {sum(statuses.values())}")
    for status, count in sorted(statuses.items()):
        print(f"{status} {count}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"cpu_s {cpu:.2f}")
    if args.expect is not None and args.expect != digest.hexdigest():
        sys.exit(f"digest mismatch: expected {args.expect}")


if __name__ == "__main__":
    main()
