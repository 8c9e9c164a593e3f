"""Built-in reference tables and their expansion into concrete cases.

Six fixtures, all reproducible from first principles by this package
(fixtures.TABLES recomputes and diffs them; so does the `table` CLI command):

  rigid         types and triple families with principal H^1 = 0
  nonso3        pairs (X, triple) left unsettled by the ladder criterion
                for the six triples without dense SO(3) representations
  bibi-results  (D_r, triple) cases settled by the SO x SO embedding
  bibi-pairs    the factor ranks (B_k, B_{r-k-1}) witnessing bibi-results
  alt-gen       generating pairs of prescribed cycle shapes in Alt_m
  alt-nongen    (Alt_m, triple) families with no generating pair

Parameterized rows ("c >= 7", "c not a multiple of 15") expand over an
explicit finite range; DEFAULT_C_MAX caps the open-ended ones, and
fixtures.check_table refuses a cap above MAX_C or below MIN_C.

Row value specs: an int, ("in", values), ("range", lo, hi), or
("ge", lo[, excluded_moduli]) meaning lo <= v <= cap with v not divisible
by any excluded modulus.
"""

from __future__ import annotations

from .permgrp import CycleType
from .weil import Triple

DEFAULT_C_MAX = 60
#: Largest c_max a table is expanded to: the open-ended rows list every c up to it.
MAX_C = 1000
#: Smallest c_max a table is expanded to: the least lo of any open ("ge", lo) c
#: row, so below it every open row of every table expands to nothing.
MIN_C = 4

S_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (2, 4, 6),
    (2, 6, 6),
    (2, 6, 10),
    (3, 4, 4),
    (3, 6, 6),
    (4, 6, 12),
)


def _spec_values(spec, cap: int) -> list[int]:
    if isinstance(spec, int):
        return [spec]
    tag = spec[0]
    if tag == "in":
        return sorted(spec[1])
    if tag == "range":
        return list(range(spec[1], spec[2] + 1))
    if tag == "ge":
        excluded = spec[2] if len(spec) > 2 else ()
        return [v for v in range(spec[1], cap + 1) if all(v % q != 0 for q in excluded)]
    raise ValueError(f"bad value spec {spec!r}")


def expand_triples(a_spec, b_spec, c_spec, c_max: int = DEFAULT_C_MAX) -> list[Triple]:
    """All normalized hyperbolic triples matching the three value specs."""
    out = set()
    for c in _spec_values(c_spec, c_max):
        for b in _spec_values(b_spec, c):
            for a in _spec_values(a_spec, b):
                if not a <= b <= c:
                    continue
                try:
                    out.add(Triple(a, b, c))
                except ValueError:
                    pass
    return sorted(out, key=lambda t: t.orders)


# ---------------------------------------------------------------------------
# rigid: principal H^1 vanishes identically on these families

def rigid_samples(small_cap: int = 20, c_max: int = DEFAULT_C_MAX) -> list[tuple[str, Triple]]:
    """Concrete (type, triple) members sampled from every rigid row.

    A1 and A2 hold for whole families of (a, b, c), so their samples stop at
    small_cap; the other rows only leave c open, up to c_max.
    """
    small = ("range", 2, small_cap)
    rows = (
        ("A1", small, small, small),
        ("A2", 2, small, small),
        ("A3", 2, 3, ("ge", 7)),
        ("A4", 2, 3, ("ge", 7)),
        ("C2", 2, 3, ("ge", 7)),
        ("C2", 3, 3, ("ge", 4)),
        ("G2", 2, ("in", (4, 5)), 5),
    )
    return [(label, tr) for label, *specs in rows for tr in expand_triples(*specs, c_max)]


# ---------------------------------------------------------------------------
# nonso3: ladder leaves these (type, triple) pairs open for the six
# non-SO(3)-dense triples

NONSO3_ROWS = (
    ("A", (1, 2, 3, 4, 5, 6, 7, 8, 9), ((2, 4, 6),)),
    ("A", (2, 3), ((2, 6, 6), (2, 6, 10))),
    ("A", (1,), ((2, 6, 6), (2, 6, 10), (3, 4, 4), (3, 6, 6), (4, 6, 12))),
    ("D", (5, 7, 9, 13), ((2, 4, 6),)),
    ("D", (7,), ((2, 6, 6),)),
    ("D", (5,), ((3, 4, 4),)),
    ("E", (6,), ((2, 4, 6),)),
)

#: Largest rank the nonso3 table covers.
NONSO3_MAX_RANK = 13


def nonso3_pairs(max_rank: int = NONSO3_MAX_RANK) -> set[tuple[str, tuple[int, int, int]]]:
    """Expand the nonso3 rows into (type label, triple) pairs up to max_rank."""
    out = set()
    for family, ranks, triples in NONSO3_ROWS:
        for r in ranks:
            if r <= max_rank:
                out.update((f"{family}{r}", tr) for tr in triples)
    return out


# ---------------------------------------------------------------------------
# bibi-results: (a, b, c-spec, ranks r for which the SO x SO sweep settles D_r)

BIBI_RESULT_ROWS = (
    (2, 3, 7, (7, 8, 10, 11, 13, 15, 16, 17, 19, 22, 23, 25, 29, 31, 37, 43)),
    (2, 3, 8, (7, 9, 10, 11, 13, 17, 19, 25)),
    (2, 3, 9, (7, 10, 11, 13, 19)),
    (2, 3, 10, (7, 11, 13)),
    (2, 3, 11, (7, 13)),
    (2, 3, 12, (7, 13)),
    (2, 3, ("ge", 13), (7,)),
    (2, 4, 5, (4, 6, 7, 9, 11, 13, 17, 21)),
    (2, 4, 6, (5, 7, 9, 13)),
    (2, 4, 7, (5, 9)),
    (2, 4, 8, (5, 9)),
    (2, 4, ("ge", 9), (5,)),
    (2, 5, 5, (4, 6, 7, 11)),
    (2, 5, 6, (7,)),
    (2, 6, 6, (7,)),
    (3, 3, 4, (7, 10, 13)),
    (3, 3, 5, (7,)),
    (3, 3, 6, (7,)),
    (3, 4, 4, (5,)),
    (4, 4, 4, (5,)),
)

# bibi-pairs: witnessing factor ranks, rows (r, k, a-spec, b-spec, c-spec)

BIBI_PAIR_ROWS = (
    (4, 1, 2, ("ge", 2), 5),
    (5, 1, 2, 4, ("ge", 6)),
    (5, 1, 3, 4, 4),
    (5, 1, 4, 4, 4),
    (6, 1, 2, ("ge", 2), 5),
    (7, 1, 2, 3, ("ge", 7)),
    (7, 1, 3, 3, ("range", 4, 6)),
    (7, 2, 2, 4, ("in", (5, 6))),
    (7, 2, 2, ("in", (5, 6)), ("in", (5, 6))),
    (8, 1, 2, 3, 7),
    (9, 1, 2, 3, 8),
    (9, 2, 2, 4, ("range", 5, 8)),
    (10, 4, 2, 3, ("range", 7, 9)),
    (10, 4, 3, 3, 4),
    (11, 4, 2, 3, ("range", 7, 10)),
    (11, 4, 2, ("ge", 2), 5),
    (13, 5, 2, 3, ("range", 7, 12)),
    (13, 5, 2, 4, ("in", (5, 6))),
    (13, 5, 3, 3, 4),
    (15, 6, 2, 3, 7),
    (16, 7, 2, 3, 7),
    (17, 7, 2, 3, ("in", (7, 8))),
    (17, 7, 2, 4, 5),
    (19, 8, 2, 3, ("range", 7, 9)),
    (21, 9, 2, 4, 5),
    (22, 10, 2, 3, 7),
    (23, 10, 2, 3, 7),
    (25, 11, 2, 3, ("in", (7, 8))),
    (29, 13, 2, 3, 7),
    (31, 14, 2, 3, 7),
    (37, 17, 2, 3, 7),
    (43, 20, 2, 3, 7),
)


# ---------------------------------------------------------------------------
# alt-gen: generating pairs (A, B) of Alt_m with |A| = a, |B| = b, |AB| = c

ALT_GEN_ROWS = (
    (8, (3, 3, 15), "3^2.1^2", "3^2.1^2", "5.3"),
    (9, (2, 3, 15), "2^4.1", "3^3", "5.3.1"),
    (9, (3, 3, 7), "3^3", "3^3", "7.1^2"),
    (9, (3, 3, 9), "3^3", "3^2.1^3", "9"),
    (9, (3, 3, 10), "3^3", "3^3", "5.2^2"),
    (9, (3, 3, 12), "3^3", "3^2.1^3", "4.3.2"),
    (9, (3, 3, 15), "3^3", "3^3", "5.3.1"),
    (11, (2, 3, 11), "2^4.1^3", "3^3.1^2", "11"),
)

_GEN_HINTS: dict[tuple[int, tuple[int, int, int]], tuple[CycleType, CycleType, CycleType]] = {
    (m, orders): tuple(CycleType.parse(s).padded(m) for s in shapes)
    for m, orders, *shapes in ALT_GEN_ROWS
}


def generating_pair_hint(
    m: int, orders: tuple[int, int, int]
) -> tuple[CycleType, CycleType, CycleType] | None:
    """Tabulated cycle shapes for (Alt_m, triple), or None."""
    return _GEN_HINTS.get((m, tuple(orders)))


# ---------------------------------------------------------------------------
# alt-nongen: rows (m, a, b, c-spec) where Alt_m is not (a, b, c)-generated

ALT_NONGEN_ROWS = (
    (8, 2, 3, ("ge", 7)),
    (8, 2, 4, 5),
    (8, 2, 5, 5),
    (8, 3, 3, ("ge", 4, (15,))),
    (9, 2, 3, ("ge", 7, (15,))),
    (9, 3, 3, ("ge", 4, (7, 9, 10, 12, 15))),
    (11, 2, 3, ("ge", 7, (11,))),
    (11, 2, 4, 5),
    (11, 3, 3, 4),
    (19, 2, 3, 7),
)
