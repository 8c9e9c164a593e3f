"""Recompute every built-in table from first principles and diff it.

TABLES maps each table id to a pair (cases, judge).  ``cases(c_max)`` lists
the concrete cases of the table, with c_max capping its parameterized rows.
``judge(case)`` recomputes one case with the library calls and returns
(row, mismatch, log line); a None row is left out of the regenerated rows,
a None mismatch means the case agrees with the table, and a None log line
is not logged.  check_table runs one loop over a table's cases and returns
the report

    {"id": ..., "checked": n, "mismatches": [...], "ok": bool,
     "rows": [...]}        # rows only when detail=True

A mismatch entry pins the offending case and what was computed for it, so
a failing fixture can be replayed by hand with the library calls.
"""

from __future__ import annotations

from typing import Callable

from . import tables
from .altmethod import h1_alt
from .bibi import BibiConfig, bibi_criterion, search_bibi
from .permgrp import NotFound, Refuted, find_generating_triple, prove_non_generation
from .rootsys import DynkinType, all_types
from .saturation import ladder_verdict
from .weil import Status, Triple, h1_principal

Log = Callable[[str], None] | None


def _unless_saturated(key: dict, status: str, **extra) -> dict | None:
    if status == Status.SATURATED:
        return None
    return {**key, "expected": Status.SATURATED, "got": status, **extra}


def _judge_rigid(case):
    """Principal H^1 must vanish on every sampled member of every rigid row."""
    label, tr = case
    h1 = h1_principal(DynkinType.parse(label), tr).h1
    key = {"type": label, "triple": list(tr.orders)}
    bad = None if h1 == 0 else {**key, "expected_h1": 0, "got_h1": h1}
    return {**key, "h1": h1}, bad, f"rigid {label} {tr}: h1={h1}"


def _nonso3_cases(c_max):
    expected = tables.nonso3_pairs()
    return [(t, orders, (t.label, orders) in expected)
            for t in all_types(tables.NONSO3_MAX_RANK) for orders in tables.S_TRIPLES]


def _judge_nonso3(case):
    """Tabulated pairs come out RigidZero (A1) or Unknown, all others Saturated;
    only the non-Saturated cases are rows."""
    t, orders, in_table = case
    status = ladder_verdict(t, Triple(*orders)).status
    want = (Status.RIGID_ZERO if t.label == "A1" else Status.UNKNOWN) \
        if in_table else Status.SATURATED
    key = {"type": t.label, "triple": list(orders)}
    row = None if status == Status.SATURATED else {**key, "status": status}
    bad = None if status == want else {**key, "expected": want, "got": status}
    return row, bad, f"nonso3 {t} {orders}: {status}"


def _bibi_results_cases(c_max):
    return [(r, tr) for a, b, c_spec, ranks in tables.BIBI_RESULT_ROWS
            for tr in tables.expand_triples(a, b, c_spec, c_max) for r in ranks]


def _judge_bibi_results(case):
    """search_bibi must certify every (D_r, triple) the table rules out."""
    r, tr = case
    status = search_bibi(r, tr).status
    key = {"r": r, "triple": list(tr.orders)}
    return ({**key, "status": status}, _unless_saturated(key, status),
            f"bibi-results D{r} {tr}: {status}")


def _bibi_pairs_cases(c_max):
    return [(BibiConfig(r, k), tr) for r, k, a_spec, b_spec, c_spec in tables.BIBI_PAIR_ROWS
            for tr in tables.expand_triples(a_spec, b_spec, c_spec, c_max)]


def _judge_bibi_pairs(case):
    """bibi_criterion must return Saturated with each row's own factor ranks."""
    cfg, tr = case
    verdict = bibi_criterion(cfg, tr)
    cert = verdict.certificate
    key = {"r": cfg.r, "k": cfg.k, "triple": list(tr.orders)}
    row = {**key, "status": verdict.status, "lhs": cert.get("lhs"), "rhs": cert.get("rhs")}
    return (row, _unless_saturated(key, verdict.status, certificate=cert),
            f"bibi-pairs D{cfg.r} k={cfg.k} {tr}: {verdict.status}")


def _judge_alt_gen(case):
    """Every tabulated generating pair must be refound with the same shapes,
    pass GenerationWitness.validate (Jordan's theorem on a short word, else
    the exact group order), and have positive H^1."""
    m, orders, *shape_strs = case
    tr = Triple(*orders)
    hint = tables.generating_pair_hint(m, orders)
    found = find_generating_triple(m, tr, shape_hint=hint)
    key = {"m": m, "triple": list(orders), "shapes": shape_strs}
    if isinstance(found, NotFound):
        return None, {**key, "got": f"NotFound: {found.reason}"}, None
    ok_shapes = found.shapes == hint
    ok_valid = found.validate()
    h1 = h1_alt(m, found.shapes, tr).h1
    bad = None if ok_shapes and ok_valid and h1 > 0 else \
        {**key, "shapes_match": ok_shapes, "validates": ok_valid, "h1": h1}
    return ({**key, "witness": found.as_dict(), "h1": h1}, bad,
            f"alt-gen Alt_{m} {orders}: shapes_match={ok_shapes} h1={h1}")


def _alt_nongen_cases(c_max):
    return [(m, tr) for m, a, b, c_spec in tables.ALT_NONGEN_ROWS
            for tr in tables.expand_triples(a, b, c_spec, c_max)]


def _judge_alt_nongen(case):
    """prove_non_generation must succeed on every sampled non-generation case."""
    m, tr = case
    result = prove_non_generation(m, tr)
    got = result.as_dict()
    key = {"m": m, "triple": list(tr.orders)}
    bad = {**key, "expected": "NonGenerated", "got": got} if isinstance(result, Refuted) else None
    return {**key, "result": got}, bad, f"alt-nongen Alt_{m} {tr}: {got.get('method', 'refuted')}"


TABLES = {
    "rigid": (lambda c_max: tables.rigid_samples(c_max=c_max), _judge_rigid),
    "nonso3": (_nonso3_cases, _judge_nonso3),
    "bibi-results": (_bibi_results_cases, _judge_bibi_results),
    "bibi-pairs": (_bibi_pairs_cases, _judge_bibi_pairs),
    "alt-gen": (lambda c_max: tables.ALT_GEN_ROWS, _judge_alt_gen),
    "alt-nongen": (_alt_nongen_cases, _judge_alt_nongen),
}

def check_table(table_id: str, c_max: int = tables.DEFAULT_C_MAX, *,
                detail: bool = False, log: Log = None) -> dict:
    """Recompute one fixture by id and diff it; see TABLES for the ids."""
    if table_id not in TABLES:
        raise ValueError(f"unknown table id {table_id!r}; known: {', '.join(TABLES)}")
    if type(c_max) is not int:  # 60.0 would fail later, and True would read as 1
        raise ValueError(f"c_max must be an int, got {c_max!r}")
    if c_max > tables.MAX_C:
        raise ValueError(f"c_max {c_max} exceeds supported cap {tables.MAX_C}")
    if c_max < tables.MIN_C:
        raise ValueError(f"c_max {c_max} is below supported minimum {tables.MIN_C}")
    make_cases, judge = TABLES[table_id]
    cases = make_cases(c_max)
    mismatches, rows = [], []
    for case in cases:
        row, bad, line = judge(case)
        if row is not None:
            rows.append(row)
        if bad is not None:
            mismatches.append(bad)
        if log and line is not None:
            log(line)
    out = {"id": table_id, "checked": len(cases), "mismatches": mismatches, "ok": not mismatches}
    if detail:
        out["rows"] = rows
    return out
