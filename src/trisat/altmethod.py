"""Saturation via finite alternating quotients inside odd orthogonal groups.

An epimorphism T ->> Alt_m composed with the standard (m-1)-dimensional
embedding Alt_m < SO(m-1) deforms to a Zariski dense representation as
soon as H^1 is positive, because Alt_m acts irreducibly on so_{m-1} once
m >= 7.  The target type is B_r for m = 2r+2 and D_r for m = 2r+1.

H^1 is exact integer arithmetic.  A permutation g with cycle lengths
l_1, ..., l_c permutes the basis e_i ^ e_j of the antisymmetric square of
the permutation module up to sign, so its fixed vectors there are counted
by the orbits of g on 2-subsets that g does not reverse: floor((l_i-1)/2)
inside the i-th cycle and gcd(l_i, l_j) across two cycles.  The square
splits as so_{m-1} plus the standard module, on which g fixes c - 1
vectors, whence

    dim so_{m-1}^g = sum_i floor((l_i-1)/2) + sum_{i<j} gcd(l_i, l_j) - (c-1).
"""

from __future__ import annotations

import math
from collections import Counter

from . import tables
from .permgrp import CycleType, NotFound, find_generating_triple, require_int
from .rootsys import DynkinType, _shared
from .weil import CohomologyReport, Status, Triple, Verdict, weil_h1


def alt_degree(t: DynkinType) -> int | None:
    """The m whose target is ``t``: 2r+2 for B_r (r >= 3), 2r+1 for D_r, else None."""
    if t.family == "B" and t.rank >= 3:
        return 2 * t.rank + 2
    if t.family == "D":
        return 2 * t.rank + 1
    return None


def alt_target(m: int) -> DynkinType:
    """B_r for m = 2r+2, D_r for m = 2r+1; refused below 8 (so_6 is of type
    A3), and refused if not an int before _shared's memo keys 8.0 as 8."""
    require_int(m, "degree")
    if m < 8:
        raise ValueError("need m >= 8: the m = 7 target so_6 is not of type B or D")
    if m % 2 == 0:
        return _shared("B", (m - 2) // 2)
    return _shared("D", (m - 1) // 2)


def perm_fixed_dim(ct: CycleType) -> int:
    """dim of the fixed space on so_{m-1} of a permutation of cycle type ``ct``.

    The pair-orbit count of the module docstring.  sum_{i<j} gcd(l_i, l_j)
    is half of the sum over all ordered pairs of cycles less its diagonal
    sum_i l_i = m; the ordered sum runs over distinct lengths, weighted by
    their multiplicities.
    """
    counts = Counter(ct.parts)
    ordered = sum(i * j * math.gcd(x, y) for x, i in counts.items() for y, j in counts.items())
    within = sum((length - 1) // 2 for length in ct.parts)
    return within + (ordered - ct.m) // 2 - (ct.cycle_count - 1)


def h1_alt(m: int, shapes: tuple[CycleType, CycleType, CycleType], tr: Triple) -> CohomologyReport:
    """H^1 of T on so_{m-1} through an Alt_m quotient with the given shapes.

    Each shape must be a class of Alt_m (even, on m points, of exact order its
    triple entry); CycleType.check_slot refuses anything else, and a degree
    that is not an int is refused first, as the search refuses it.
    Irreducibility kills the invariants, so H^1 = dim so_{m-1} minus the
    three fixed dims.
    """
    require_int(m, "degree")  # weil_h1 would key 28.0 as it keys 28
    if m < 7:
        raise ValueError("need m >= 7 for Alt_m to be irreducible on so_{m-1}")
    for shape, n, slot in zip(shapes, tr.orders, ("A", "B", "AB")):
        shape.check_slot(m, n, slot)
    fixed = tuple(perm_fixed_dim(s) for s in shapes)
    return weil_h1((m - 1) * (m - 2) // 2, fixed)


def alt_saturation_check(m: int, tr: Triple) -> Verdict:
    """Saturation test for the type with standard module of dimension m - 1.

    Looks for a generating pair of the right orders in Alt_m (using the
    built-in shape hints when the case is tabulated, otherwise a full class
    search that only decide gates) and, given a witness, computes H^1 from
    the witness's actual cycle shapes; positive H^1 certifies saturation.
    """
    key = {"m": m, "target": alt_target(m).label, "triple": list(tr.orders)}
    hint = tables.generating_pair_hint(m, tr.orders)
    found = find_generating_triple(m, tr, shape_hint=hint)
    if isinstance(found, NotFound):
        return Verdict(Status.UNKNOWN, "alt",
                       {**key, "reason": f"no generating pair: {found.reason}"})
    report = h1_alt(m, found.shapes, tr)
    cert = {**key, "witness": found.as_dict(), "dim_v": report.dim_g,
            "fixed": list(report.fixed_dims), "h1": report.h1}
    if report.h1 > 0:
        return Verdict(Status.SATURATED, "alt", cert)
    cert["reason"] = "H^1 = 0"
    return Verdict(Status.UNKNOWN, "alt", cert)
