"""Run the unhinted Alt_m search over a fixed grid and print one digest.

    PYTHONPATH=src python tests/search_grid.py [--expect SHA256]

The grid is find_generating_triple on every hyperbolic (a, b, c) with
a <= b <= c, a <= 7, b <= 9 and c <= 15 at m = 5..10, where a refusal over
MAX_PAIRS is recorded by its message, then prove_non_generation on
Alt_11 (2,3,11), (3,3,4), (2,4,5) and Alt_12 (3,3,4).  It prints the case
count, a SHA-256 of the results, the number of Sims-table calls
(_bsgs_order), the _class_images calls and the B's they built, and the CPU
time.  Two checkouts that find the same answers and witnesses print the
same digest; two that prune the search alike print the same Sims-table
call count.  With --expect, a digest other than the one given is reported
on stderr and the exit status is 1.  pytest does not collect this file,
but tests/test_permgrp.py runs run_grid on the whole grid.
"""

import argparse
import hashlib
import json
import sys
import time

from trisat import Triple, permgrp

GRID = [(m, (a, b, c)) for m in range(5, 11) for a in range(2, 8)
        for b in range(a, 10) for c in range(b, 16) if b * c + a * c + a * b < a * b * c]
PROOFS = [(11, (2, 3, 11)), (11, (3, 3, 4)), (11, (2, 4, 5)), (12, (3, 3, 4))]


def run_grid(searches, proofs) -> tuple[str, int, int, int]:
    """find_generating_triple on each (m, orders) of searches, then
    prove_non_generation on each of proofs: the SHA-256 of the results, the
    number of Sims-table calls they made, and the number of _class_images
    calls and of the B's those built."""
    digest = hashlib.sha256()
    calls = walks = built = 0
    real, real_images = permgrp._bsgs_order, permgrp._class_images

    def counted(gens, m):
        nonlocal calls
        calls += 1
        return real(gens, m)

    def counted_images(*args):
        nonlocal walks, built
        out = real_images(*args)
        walks += 1
        built += len(out)
        return out

    permgrp._bsgs_order, permgrp._class_images = counted, counted_images
    try:
        for search, cases in ((permgrp.find_generating_triple, searches),
                              (permgrp.prove_non_generation, proofs)):
            for m, orders in cases:
                try:
                    found = search(m, Triple(*orders))
                    result = found.reason if isinstance(found, permgrp.NotFound) else found.as_dict()
                except ValueError as exc:
                    result = f"refused: {exc}"
                digest.update(json.dumps([search.__name__, m, orders, result]).encode() + b"\n")
    finally:
        permgrp._bsgs_order, permgrp._class_images = real, real_images
    return digest.hexdigest(), calls, walks, built


def main():
    parser = argparse.ArgumentParser(description="Digest the unhinted Alt_m search grid.")
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args()
    start = time.process_time()
    sha, calls, walks, built = run_grid(GRID, PROOFS)
    cpu = time.process_time() - start
    print(f"cases {len(GRID) + len(PROOFS)}")
    print(f"sha256 {sha}")
    print(f"bsgs_calls {calls}")
    print(f"class_images_calls {walks}")
    print(f"class_images_elements {built}")
    print(f"cpu_s {cpu:.2f}")
    if args.expect is not None and args.expect != sha:
        sys.exit(f"digest mismatch: expected {args.expect}")


if __name__ == "__main__":
    main()
