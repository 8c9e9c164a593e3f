"""Ladder criterion and the top-level saturation decision.

A hyperbolic triangle group T is saturated with finite simple quotients of
type X exactly when some simple group of type X admits a Zariski dense,
non-rigid representation of T.  Density is reached by climbing a chain of
principal embeddings A1 < Y < ... < X in which the principal H^1 dimension
strictly increases at every step; strictness is the computable criterion,
and equality anywhere leaves the question open.  The orchestrator `decide`
falls back to the two non-principal deformation methods (the
SO(2k+1) x SO(2r-2k-1) embedding for type D and the alternating-group
method for types B and D) before reporting Unknown or, when even the
principal H^1 vanishes, RigidZero.
"""

from __future__ import annotations

from functools import lru_cache

from . import altmethod, bibi, tables
from .rootsys import DynkinType, _shared
from .weil import Status, Triple, Verdict, h1_principal


_A1 = _shared("A", 1)


def _below(t: DynkinType) -> DynkinType | None:
    """The maximal subgroup one rung below ``t``, or None when the principal
    A1 is already maximal in ``t``."""
    fam, r = t.family, t.rank
    if fam == "A" and r >= 3:
        return _shared("B", r // 2) if r % 2 == 0 else _shared("C", (r + 1) // 2)
    if fam == "D":
        return _shared("B", r - 1)
    if (fam, r) == ("B", 3):
        return _shared("G", 2)
    if (fam, r) == ("E", 6):
        return _shared("F", 4)
    return None


@lru_cache(maxsize=None)
def classify_ladder(t: DynkinType) -> tuple[DynkinType, ...]:
    """Chain of principal embeddings from A1 up to ``t``.

    Each rung is the principal image in the maximal subgroup one step down:
    A_r (r >= 3) in B_{r/2} or C_{(r+1)/2}, B3 in G2, D_r in B_{r-1} and E6
    in F4.  Every other type sits on A1 directly (rank-2 type B like C2, the
    same root system).  So A6 and D4 climb three steps, through G2 < B3.
    The chain is memoised per type and returned as a tuple, so callers
    share it; a refusal is not memoised, so every call on A1 raises again.
    """
    if t.label == "A1":
        raise ValueError("A1 has no ladder: T is locally rigid in PGL_2")
    below = _below(t)
    return (_A1, t) if below is None else classify_ladder(below) + (t,)


def ladder_verdict(t: DynkinType, tr: Triple) -> Verdict:
    """Saturated iff the principal H^1 strictly increases along the ladder.

    The A1 base contributes 0 (T is locally rigid in PGL_2, which also
    means type A1 itself is never saturated and reports RigidZero).  Any
    equality in the chain leaves the verdict Unknown.
    """
    if t.label == "A1":
        return Verdict(
            Status.RIGID_ZERO,
            "ladder",
            {"reason": "locally rigid in PGL_2", "h1": 0, "triple": list(tr.orders)},
        )
    path = classify_ladder(t)
    chain = [0] + [h1_principal(rung, tr).h1 for rung in path[1:]]
    cert = {
        "path": [rung.label for rung in path],
        "h1_chain": chain,
        "triple": list(tr.orders),
    }
    for i in range(len(chain) - 1):
        if not chain[i] < chain[i + 1]:
            cert["failed_at"] = [path[i].label, path[i + 1].label]
            cert["reason"] = "no strict H^1 increase"
            return Verdict(Status.UNKNOWN, "ladder", cert)
    return Verdict(Status.SATURATED, "ladder", cert)


def decide(t: DynkinType, tr: Triple, *, alt_search: bool = False) -> Verdict:
    """Combine the three methods, first Saturated verdict wins.

    Order: ladder, then the SO x SO embedding sweep (type D only), then the
    alternating-group method (types B of rank >= 3 and D of rank >= 4;
    by default only triples with a built-in generating pair are tried, and
    alt_search=True, the one gate on the class search, lifts that limit).
    Each route adds one stage to the certificate: its verdict, or "skipped"
    with the reason it does not apply.  If nothing certifies saturation the
    verdict is Unknown, or RigidZero when the principal H^1 itself vanishes.
    """
    if t.label == "A1":
        return Verdict(
            Status.RIGID_ZERO,
            "rigid",
            {"reason": "locally rigid in PGL_2", "h1_principal": 0},
        )

    def run_bibi() -> Verdict | str:
        if t.family != "D":
            return "type is not D_r"
        return bibi.search_bibi(t.rank, tr)

    def run_alt() -> Verdict | str:
        alt_m = altmethod.alt_degree(t)
        if alt_m is None:
            return "type is not B_r (r >= 3) or D_r"
        if not alt_search and tables.generating_pair_hint(alt_m, tr.orders) is None:
            return f"no built-in generating pair for Alt_{alt_m} and search disabled"
        return altmethod.alt_saturation_check(alt_m, tr)

    stages = []
    for method, run in (("ladder", lambda: ladder_verdict(t, tr)),
                        ("bibi", run_bibi), ("alt", run_alt)):
        verdict = run()
        if isinstance(verdict, str):
            stages.append({"method": method, "status": "skipped", "reason": verdict})
            continue
        stages.append({"method": method, "status": verdict.status,
                       "certificate": verdict.certificate})
        if verdict.status == Status.SATURATED:
            return Verdict(verdict.status, method, {"stages": stages})

    h1 = h1_principal(t, tr).h1
    if h1 == 0:
        stages.append({"method": "rigid", "status": Status.RIGID_ZERO,
                       "certificate": {"h1_principal": 0}})
        return Verdict(Status.RIGID_ZERO, "rigid", {"stages": stages})
    return Verdict(Status.UNKNOWN, "none", {"stages": stages, "h1_principal": h1})
