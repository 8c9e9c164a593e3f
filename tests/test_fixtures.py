"""Forced mismatches: the exact report, rows and log lines of every table.

Each case replaces the one library call a table's checker makes with a fake
that fails every case, so the mismatch entries, the rows and the trace log
that a real failure would produce are pinned.  The real checkers are pinned
too, by a hash of their rows.
"""

import hashlib
import json
import types

import pytest

from trisat import fixtures, tables
from trisat.permgrp import CycleType, GenerationWitness, NotFound, Refuted
from trisat.rootsys import all_types
from trisat.weil import Status, Triple, Verdict

_ID5 = tuple(range(5))
_FIXED5 = CycleType((1,) * 5)
_FAKE_WITNESS = GenerationWitness(_ID5, _ID5, (2, 3, 7), (_FIXED5,) * 3)
_FAKE_WITNESS_DICT = {"A": [0, 1, 2, 3, 4], "B": [0, 1, 2, 3, 4], "orders": [2, 3, 7],
                      "shapes": ["(1)^5", "(1)^5", "(1)^5"]}

# table id -> (patched name, fake, checked, mismatches, rows, log lines,
#              first mismatch, first row, first log line), at c_max = 12
FORCED = {
    "rigid": (
        "h1_principal", lambda t, tr: types.SimpleNamespace(h1=1),
        1500, 1500, 1500, 1500,
        {"type": "A1", "triple": [2, 3, 7], "expected_h1": 0, "got_h1": 1},
        {"type": "A1", "triple": [2, 3, 7], "h1": 1},
        "rigid A1 (2,3,7): h1=1"),
    "nonso3": (
        # only non-Saturated cases get rows, so forcing Saturated leaves none
        "ladder_verdict", lambda t, tr: Verdict(Status.SATURATED, "ladder", {}),
        312, 25, 0, 312,
        {"type": "A1", "triple": [2, 4, 6], "expected": "RigidZero", "got": "Saturated"},
        None,
        "nonso3 A1 (2, 4, 6): Saturated"),
    "bibi-results": (
        "search_bibi", lambda r, tr: Verdict(Status.UNKNOWN, "bibi", {"r": r}),
        69, 69, 69, 69,
        {"r": 7, "triple": [2, 3, 7], "expected": "Saturated", "got": "Unknown"},
        {"r": 7, "triple": [2, 3, 7], "status": "Unknown"},
        "bibi-results D7 (2,3,7): Unknown"),
    "bibi-pairs": (
        "bibi_criterion", lambda cfg, tr: Verdict(Status.UNKNOWN, "bibi", {"lhs": 1, "rhs": 1}),
        69, 69, 69, 69,
        {"r": 4, "k": 1, "triple": [2, 4, 5], "expected": "Saturated", "got": "Unknown",
         "certificate": {"lhs": 1, "rhs": 1}},
        {"r": 4, "k": 1, "triple": [2, 4, 5], "status": "Unknown", "lhs": 1, "rhs": 1},
        "bibi-pairs D4 k=1 (2,4,5): Unknown"),
    "alt-gen": (
        # a NotFound case gets a mismatch but no row and no log line
        "find_generating_triple", lambda m, tr, shape_hint=None: NotFound("forced"),
        8, 8, 0, 0,
        {"m": 8, "triple": [3, 3, 15], "shapes": ["3^2.1^2", "3^2.1^2", "5.3"],
         "got": "NotFound: forced"},
        None,
        None),
    "alt-nongen": (
        "prove_non_generation", lambda m, tr: Refuted(_FAKE_WITNESS),
        36, 36, 36, 36,
        {"m": 8, "triple": [2, 3, 7], "expected": "NonGenerated",
         "got": {"result": "Refuted", "witness": _FAKE_WITNESS_DICT}},
        {"m": 8, "triple": [2, 3, 7],
         "result": {"result": "Refuted", "witness": _FAKE_WITNESS_DICT}},
        "alt-nongen Alt_8 (2,3,7): refuted"),
}


@pytest.mark.parametrize("table_id", list(FORCED))
def test_forced_mismatch_report(table_id, monkeypatch):
    name, fake, checked, n_mis, n_rows, n_log, mis0, row0, log0 = FORCED[table_id]
    monkeypatch.setattr(fixtures, name, fake)
    lines = []
    report = fixtures.check_table(table_id, 12, detail=True, log=lines.append)
    assert list(report) == ["id", "checked", "mismatches", "ok", "rows"]
    assert (report["id"], report["checked"], report["ok"]) == (table_id, checked, False)
    assert (len(report["mismatches"]), len(report["rows"]), len(lines)) == (n_mis, n_rows, n_log)
    # json.dumps also pins the key order of each entry
    assert json.dumps(report["mismatches"][0]) == json.dumps(mis0)
    assert json.dumps(report["rows"][0] if report["rows"] else None) == json.dumps(row0)
    assert (lines[0] if lines else None) == log0


@pytest.mark.parametrize("table_id", list(FORCED))
def test_rows_only_with_detail(table_id, monkeypatch):
    monkeypatch.setattr(fixtures, FORCED[table_id][0], FORCED[table_id][1])
    report = fixtures.check_table(table_id, 12)
    assert list(report) == ["id", "checked", "mismatches", "ok"]


# table id -> (checked, sha256 of json.dumps(rows)) of the real checker at c_max = 12
REAL = {
    "rigid": (1500, "7b378ee14ac39c531676705cf3a92082fc5f1cbb0231dcd9c4a48a821dfa124c"),
    "nonso3": (312, "2cb56dc4fd444a0bf44de9e847c174834f8abb752a560e7f59725b784ed51884"),
    "bibi-results": (69, "a37874fa50a95aa3b975b50269e7e86a841539789ec17b0ca26737dd0d20d0c3"),
    "bibi-pairs": (69, "14f722832d6bd3c9ddd5b53ae54145d9b8a31cd8b4f0bd1309405aa8ac09e53f"),
    "alt-gen": (8, "f747dad2832f560c77c26e63b0e6e7917231952f8ba094daa7d99ea14d285d5f"),
    "alt-nongen": (36, "765af74c613758ad3f837f9fc9ba9560a2812d53db05bf9b6ef04d177a24a0e9"),
}


@pytest.mark.parametrize("table_id", list(REAL))
def test_real_report_pinned(table_id):
    # every judge's success path: alt-gen's witness rows, NonGenerated.as_dict
    report = fixtures.check_table(table_id, 12, detail=True)
    assert report["ok"]
    assert report["checked"] == REAL[table_id][0]
    assert hashlib.sha256(json.dumps(report["rows"]).encode()).hexdigest() == REAL[table_id][1]


def hand_rigid_samples(small_cap, c_max):
    """Reference for tables.rigid_samples: the rigid rows as hand-written loops."""
    out = []
    for a in range(2, small_cap + 1):
        for b in range(a, small_cap + 1):
            for c in range(b, small_cap + 1):
                try:
                    out.append(("A1", Triple(a, b, c)))
                except ValueError:
                    pass
    for b in range(2, small_cap + 1):
        for c in range(b, small_cap + 1):
            try:
                out.append(("A2", Triple(2, b, c)))
            except ValueError:
                pass
    for label in ("A3", "A4"):
        out.extend((label, Triple(2, 3, c)) for c in range(7, c_max + 1))
    out.extend(("C2", Triple(2, 3, c)) for c in range(7, c_max + 1))
    out.extend(("C2", Triple(3, 3, c)) for c in range(4, c_max + 1))
    out.extend([("G2", Triple(2, 4, 5)), ("G2", Triple(2, 5, 5))])
    return out


@pytest.mark.parametrize("small_cap", [3, 20])
@pytest.mark.parametrize("c_max", [7, 60])
def test_rigid_samples_match_hand_loops(small_cap, c_max):
    def orders(samples):
        return [(label, tr.orders) for label, tr in samples]

    assert orders(tables.rigid_samples(small_cap, c_max)) == orders(
        hand_rigid_samples(small_cap, c_max))


def test_every_nonso3_pair_is_a_case():
    # a listed pair outside the table's cases would never be checked
    cases = {(str(t), orders) for t in all_types(tables.NONSO3_MAX_RANK)
             for orders in tables.S_TRIPLES}
    pairs = tables.nonso3_pairs()
    assert pairs and pairs <= cases, sorted(pairs - cases)


def test_min_c_is_the_least_open_lower_bound(monkeypatch):
    # Record the c spec of every row any table expands; the open ones are
    # ("ge", lo, ...), and below the least lo all of them expand to nothing.
    open_los = []
    real = tables.expand_triples

    def recording(a_spec, b_spec, c_spec, c_max=tables.DEFAULT_C_MAX):
        if isinstance(c_spec, tuple) and c_spec[0] == "ge":
            open_los.append(c_spec[1])
        return real(a_spec, b_spec, c_spec, c_max)

    monkeypatch.setattr(tables, "expand_triples", recording)
    for make_cases, _ in fixtures.TABLES.values():
        make_cases(tables.DEFAULT_C_MAX)
    assert min(open_los) == tables.MIN_C


@pytest.mark.parametrize("c_max", [tables.MIN_C - 1, 0, -5])
def test_c_max_below_min_c_is_refused(c_max):
    with pytest.raises(ValueError, match=f"c_max {c_max} is below supported minimum 4"):
        fixtures.check_table("alt-nongen", c_max)
