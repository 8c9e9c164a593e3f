"""Run the unhinted Alt_m search over a fixed grid and print one digest.

    PYTHONPATH=src python tests/search_grid.py

The grid is find_generating_triple on every hyperbolic (a, b, c) with
a <= b <= c, a <= 7, b <= 9 and c <= 15 at m = 5..10, where a refusal over
MAX_PAIRS is recorded by its message, then prove_non_generation on
Alt_11 (2,3,11), (3,3,4), (2,4,5) and Alt_12 (3,3,4).  It prints the case
count, a SHA-256 of the results, the number of Sims-table calls
(_bsgs_order) and the CPU time.  Two checkouts that find the same answers
and witnesses print the same digest; two that prune the search alike
print the same call count.  pytest does not collect this file.
"""

import hashlib
import json
import time

from trisat import Triple, permgrp

GRID = [(m, (a, b, c)) for m in range(5, 11) for a in range(2, 8)
        for b in range(a, 10) for c in range(b, 16) if b * c + a * c + a * b < a * b * c]
PROOFS = [(11, (2, 3, 11)), (11, (3, 3, 4)), (11, (2, 4, 5)), (12, (3, 3, 4))]


def main():
    calls = 0
    real = permgrp._bsgs_order

    def counted(gens, m):
        nonlocal calls
        calls += 1
        return real(gens, m)

    permgrp._bsgs_order = counted
    digest = hashlib.sha256()
    start = time.process_time()
    try:
        for search, cases in ((permgrp.find_generating_triple, GRID),
                              (permgrp.prove_non_generation, PROOFS)):
            for m, orders in cases:
                try:
                    found = search(m, Triple(*orders))
                    result = found.reason if isinstance(found, permgrp.NotFound) else found.as_dict()
                except ValueError as exc:
                    result = f"refused: {exc}"
                digest.update(json.dumps([search.__name__, m, orders, result]).encode() + b"\n")
    finally:
        permgrp._bsgs_order = real
    cpu = time.process_time() - start
    print(f"cases {len(GRID) + len(PROOFS)}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"bsgs_calls {calls}")
    print(f"cpu_s {cpu:.2f}")


if __name__ == "__main__":
    main()
