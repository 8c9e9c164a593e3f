"""Saturation via finite alternating quotients inside odd orthogonal groups.

An epimorphism T ->> Alt_m composed with the standard (m-1)-dimensional
embedding Alt_m < SO(m-1) deforms to a Zariski dense representation as
soon as H^1 is positive, because Alt_m acts irreducibly on so_{m-1} once
m >= 7.  The target type is B_r for m = 2r+2 and D_r for m = 2r+1.

H^1 is exact integer arithmetic: a permutation of cycle type
(1)^{n_0}(b_1)^{n_1}...(b_s)^{n_s} acts on the standard module with
eigenvalue 1 of multiplicity (number of cycles) - 1 and each nontrivial
power of a primitive b_i-th root of unity with multiplicity n_i.
Multiplicities of eigenvalues shared between different cycle lengths
(e.g. -1 from both a 4-cycle and a 2-cycle) must be merged before the
fixed-space formula squares them; everything is tracked as residues
modulo the lcm of the cycle lengths to make that merge exact.
"""

from __future__ import annotations

from . import tables
from .bibi import EigenvalueMultiset, so_fixed_dim
from .permgrp import CycleType, NotFound, find_generating_triple
from .rootsys import DynkinType
from .saturation import Status, Verdict
from .weil import CohomologyReport, Triple, weil_h1


def alt_degree(t: DynkinType) -> int | None:
    """The m whose target is ``t``: 2r+2 for B_r (r >= 3), 2r+1 for D_r, else None."""
    if t.family == "B" and t.rank >= 3:
        return 2 * t.rank + 2
    if t.family == "D":
        return 2 * t.rank + 1
    return None


def alt_target(m: int) -> DynkinType:
    """B_r for m = 2r+2, D_r for m = 2r+1; refused below 8 (so_6 is of type A3)."""
    if m < 8:
        raise ValueError("need m >= 8: the m = 7 target so_6 is not of type B or D")
    if m % 2 == 0:
        return DynkinType("B", (m - 2) // 2)
    return DynkinType("D", (m - 1) // 2)


def perm_eigenvalues_on_standard(ct: CycleType) -> EigenvalueMultiset:
    """Eigenvalues on the (m-1)-dimensional standard module of Sym_m.

    Modulus is the lcm N of the cycle lengths; a length-b cycle contributes
    residues j*(N/b) for 1 <= j <= b-1, and residue 0 carries one less than
    the total cycle count (the all-ones line is removed).
    """
    n = ct.order
    mults = {0: ct.cycle_count - 1}
    for length in ct.parts:
        if length == 1:
            continue
        step = n // length
        for j in range(1, length):
            r = j * step
            mults[r] = mults.get(r, 0) + 1
    return EigenvalueMultiset(n, mults)


def h1_alt(m: int, shapes: tuple[CycleType, CycleType, CycleType], tr: Triple) -> CohomologyReport:
    """H^1 of T on so_{m-1} through an Alt_m quotient with the given shapes.

    Each shape must have exact order equal to its triple entry.
    Irreducibility kills the invariants, so H^1 = dim so_{m-1} minus the
    three fixed-space dimensions.
    """
    if m < 7:
        raise ValueError("need m >= 7 for Alt_m to be irreducible on so_{m-1}")
    for shape, n, slot in zip(shapes, tr.orders, "xyz"):
        if shape.m != m:
            raise ValueError(f"shape {shape} for {slot} has degree {shape.m}, expected {m}")
        if shape.order != n:
            raise ValueError(f"shape {shape} for {slot} has order {shape.order}, expected {n}")
    fixed = tuple(so_fixed_dim(perm_eigenvalues_on_standard(s)) for s in shapes)
    return weil_h1((m - 1) * (m - 2) // 2, fixed)


def alt_saturation_check(m: int, tr: Triple, *, search: bool = True) -> Verdict:
    """Saturation test for the type with standard module of dimension m - 1.

    Looks for a generating pair of the right orders in Alt_m (using the
    built-in shape hints when the case is tabulated, otherwise a full class
    search if ``search`` is set) and, given a witness, computes H^1 from
    the witness's actual cycle shapes; positive H^1 certifies saturation.
    """
    key = {"m": m, "target": str(alt_target(m)), "triple": list(tr.orders)}
    hint = tables.generating_pair_hint(m, tr.orders)
    if hint is None and not search:
        return Verdict(Status.UNKNOWN, "alt",
                       {**key, "reason": "no built-in generating pair and search disabled"})
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
