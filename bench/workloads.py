"""The benchmark's four workloads, expanded into concrete cases.

A case is a (key, run) pair: ``run()`` makes the same public library calls
that ``trisat table --id ...`` or ``trisat decide`` makes for that one case
and returns a JSON-able result.  For table cases the result is exactly the
row ``fixtures.check_table(..., detail=True)`` emits (nonso3 emits rows only
for non-Saturated cases, so its golden copy is filtered before comparing);
for decide cases it is ``Verdict.as_dict()``.

Every library call goes through a module attribute looked up at call time
(``weil.h1_principal``, not a name bound at import), so the traced run sees
the wrapped functions it installs on those modules.
"""

from __future__ import annotations

import json
from typing import Callable

from trisat import altmethod, bibi, permgrp, rootsys, saturation, tables, weil

C_MAX = tables.DEFAULT_C_MAX

Case = tuple[str, Callable[[], object]]

#: Workload name -> (table ids it covers, one-line reason it exists).
WORKLOADS: dict[str, tuple[tuple[str, ...], str]] = {
    "closed-form": (
        ("rigid", "nonso3", "bibi-results", "bibi-pairs"),
        "2,334 cases of the rigid, nonso3, bibi-results and bibi-pairs tables at c<=60: "
        "rootsys, weil, bibi and ladder work only, no permgrp work",
    ),
    "alt-nongen": (
        ("alt-nongen",),
        "244 cases of the alt-nongen table at c<=60 (217 no-elements, 14 Scott, 13 exhaustive): "
        "the exhaustion path, where Schreier-Sims dominates",
    ),
    "alt-gen": (
        ("alt-gen",),
        "8 hinted searches of the alt-gen table that succeed, each validated: "
        "the first-hit path, dominated by enumerating one Alt_11 class",
    ),
    "decide-alt": (
        (),
        "40 decide --alt-search cases, {B3,D4,B4,D5,D6} x 8 triples: the whole orchestrator, "
        "where class enumeration and the product filter dominate",
    ),
}

DECIDE_TYPES = ("B3", "D4", "B4", "D5", "D6")
# D4 (2,3,9) is left out on purpose: it repeats the BSGS-bound Alt_9 case
# that alt-nongen already measures.
DECIDE_TRIPLES = ((2, 3, 7), (2, 3, 8), (2, 3, 10), (2, 4, 5),
                  (2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 3, 7))


def canonical(result: object) -> str:
    """The byte form a result is compared in: compact JSON, key order kept."""
    return json.dumps(result, separators=(",", ":"))


def _key(*parts) -> str:
    return "/".join(",".join(map(str, p)) if isinstance(p, tuple) else str(p) for p in parts)


def _rigid_cases() -> list[Case]:
    def run(label, tr):
        h1 = weil.h1_principal(rootsys.DynkinType.parse(label), tr).h1
        return {"type": label, "triple": list(tr.orders), "h1": h1}

    return [(_key("rigid", label, tr.orders), lambda l=label, t=tr: run(l, t))
            for label, tr in tables.rigid_samples(small_cap=20, c_max=C_MAX)]


def _nonso3_cases() -> list[Case]:
    def run(t, orders):
        verdict = saturation.ladder_verdict(t, weil.Triple(*orders))
        return {"type": str(t), "triple": list(orders), "status": verdict.status}

    return [(_key("nonso3", t, orders), lambda t=t, o=orders: run(t, o))
            for t in rootsys.all_types(13) for orders in tables.S_TRIPLES]


def _bibi_results_cases() -> list[Case]:
    def run(r, tr):
        return {"r": r, "triple": list(tr.orders), "status": bibi.search_bibi(r, tr).status}

    return [(_key("bibi-results", r, tr.orders), lambda r=r, t=tr: run(r, t))
            for a, b, c_spec, ranks in tables.BIBI_RESULT_ROWS
            for tr in tables.expand_triples(a, b, c_spec, C_MAX)
            for r in ranks]


def _bibi_pairs_cases() -> list[Case]:
    def run(r, k, tr):
        verdict = bibi.bibi_criterion(bibi.BibiConfig(r, k), tr)
        return {"r": r, "k": k, "triple": list(tr.orders), "status": verdict.status,
                "lhs": verdict.certificate.get("lhs"), "rhs": verdict.certificate.get("rhs")}

    return [(_key("bibi-pairs", r, k, tr.orders), lambda r=r, k=k, t=tr: run(r, k, t))
            for r, k, a_spec, b_spec, c_spec in tables.BIBI_PAIR_ROWS
            for tr in tables.expand_triples(a_spec, b_spec, c_spec, C_MAX)]


def _alt_gen_cases() -> list[Case]:
    def run(m, orders, shape_strs):
        tr = weil.Triple(*orders)
        hint = tables.generating_pair_hint(m, orders)
        found = permgrp.find_generating_triple(m, tr, shape_hint=hint)
        if isinstance(found, permgrp.NotFound):
            raise RuntimeError(f"Alt_{m} {orders}: NotFound: {found.reason}")
        if not found.validate():
            raise RuntimeError(f"Alt_{m} {orders}: witness does not validate")
        h1 = altmethod.h1_alt(m, found.shapes, tr).h1
        return {"m": m, "triple": list(orders), "shapes": shape_strs,
                "witness": found.as_dict(), "h1": h1}

    return [(_key("alt-gen", m, orders), lambda m=m, o=orders, s=list(shapes): run(m, o, s))
            for m, orders, *shapes in tables.ALT_GEN_ROWS]


def _alt_nongen_cases() -> list[Case]:
    def run(m, tr):
        return {"m": m, "triple": list(tr.orders),
                "result": permgrp.prove_non_generation(m, tr).as_dict()}

    return [(_key("alt-nongen", m, tr.orders), lambda m=m, t=tr: run(m, t))
            for m, a, b, c_spec in tables.ALT_NONGEN_ROWS
            for tr in tables.expand_triples(a, b, c_spec, C_MAX)]


def _decide_cases() -> list[Case]:
    def run(label, orders):
        t, tr = rootsys.DynkinType.parse(label), weil.Triple(*orders)
        return saturation.decide(t, tr, alt_search=True).as_dict()

    return [(_key("decide", label, orders), lambda l=label, o=orders: run(l, o))
            for label in DECIDE_TYPES for orders in DECIDE_TRIPLES]


_TABLE_CASES = {
    "rigid": _rigid_cases,
    "nonso3": _nonso3_cases,
    "bibi-results": _bibi_results_cases,
    "bibi-pairs": _bibi_pairs_cases,
    "alt-gen": _alt_gen_cases,
    "alt-nongen": _alt_nongen_cases,
}


def build(workload: str) -> list[Case]:
    """The workload's cases in their natural (table iteration) order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    table_ids, _ = WORKLOADS[workload]
    if not table_ids:
        return _decide_cases()
    return [case for tid in table_ids for case in _TABLE_CASES[tid]()]


def table_of(key: str) -> str:
    """Table id (or "decide") a case key belongs to."""
    return key.split("/", 1)[0]
