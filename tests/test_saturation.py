import hashlib
import json
from pathlib import Path

import pytest

from trisat import DynkinType, Status, Triple, decide, h1_principal, ladder_verdict, permgrp
from trisat.rootsys import adjoint_dim, all_types
from trisat.saturation import classify_ladder

from closed_form_grid import hyperbolic_triples, run_grid


def T(label):
    return DynkinType.parse(label)


def path(label):
    return [str(x) for x in classify_ladder(T(label))]


class TestClassifyLadder:
    def test_one_step(self):
        assert path("E8") == ["A1", "E8"]
        assert path("A2") == ["A1", "A2"]
        assert path("C2") == ["A1", "C2"]
        assert path("B2") == ["A1", "B2"]  # same root system as C2
        assert path("B7") == ["A1", "B7"]
        assert path("G2") == ["A1", "G2"]
        assert path("F4") == ["A1", "F4"]
        assert path("E7") == ["A1", "E7"]

    def test_two_step(self):
        assert path("A4") == ["A1", "B2", "A4"]
        assert path("A5") == ["A1", "C3", "A5"]
        assert path("A9") == ["A1", "C5", "A9"]
        assert path("B3") == ["A1", "G2", "B3"]
        assert path("D5") == ["A1", "B4", "D5"]
        assert path("D13") == ["A1", "B12", "D13"]
        assert path("E6") == ["A1", "F4", "E6"]

    def test_three_step(self):
        assert path("D4") == ["A1", "G2", "B3", "D4"]
        assert path("A6") == ["A1", "G2", "B3", "A6"]

    def test_a1_has_no_ladder(self):
        with pytest.raises(ValueError):
            classify_ladder(T("A1"))

    def test_every_ladder_to_rank_512(self):
        # the hash is of one "A1<...<t" line per type other than A1
        lines = []
        for t in all_types(512)[1:]:
            chain = classify_ladder(t)
            assert chain[0] == T("A1") and chain[-1] == t
            dims = [adjoint_dim(x) for x in chain]
            assert all(x < y for x, y in zip(dims, dims[1:])), t
            for end in range(2, len(chain)):
                assert classify_ladder(chain[end - 1]) == chain[:end], t
            lines.append("<".join(map(str, chain)))
        assert len(lines) == 2047
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "ba848b67dc7ab8be694c6e53e0b3beb8c6aed2b9f8fc2a5aaf8ce02da9c5838f"


class TestLadderVerdict:
    def test_saturated(self):
        v = ladder_verdict(T("E8"), Triple(2, 4, 6))
        assert v.status == Status.SATURATED
        assert v.certificate["h1_chain"][0] == 0
        chain = v.certificate["h1_chain"]
        assert all(x < y for x, y in zip(chain, chain[1:]))

    def test_unknown_rows(self):
        assert ladder_verdict(T("A2"), Triple(2, 6, 6)).status == Status.UNKNOWN
        assert ladder_verdict(T("E6"), Triple(2, 4, 6)).status == Status.UNKNOWN
        v = ladder_verdict(T("D5"), Triple(3, 4, 4))
        assert v.status == Status.UNKNOWN
        assert v.certificate["failed_at"] == ["B4", "D5"]

    def test_a1_rigid(self):
        v = ladder_verdict(T("A1"), Triple(2, 3, 7))
        assert v.status == Status.RIGID_ZERO

    def test_b3_chain_encodes_side_conditions(self):
        # b = 3 forces equality at the G2 -> B3 step, (2,b,5) kills 0 < h1(G2)
        assert ladder_verdict(T("B3"), Triple(2, 3, 7)).status == Status.UNKNOWN
        assert ladder_verdict(T("B3"), Triple(2, 4, 5)).status == Status.UNKNOWN
        assert ladder_verdict(T("B3"), Triple(2, 4, 6)).status == Status.SATURATED

    def test_never_saturated_with_zero_h1(self):
        triples = [Triple(a, b, c)
                   for a in range(2, 9) for b in range(a, 9) for c in range(b, 13)
                   if b * c + a * c + a * b < a * b * c]
        for t in all_types(6):
            for tr in triples:
                if h1_principal(t, tr).h1 == 0:
                    assert ladder_verdict(t, tr).status != Status.SATURATED


class TestUnsharedA1:
    """A1 built apart from the shared instance is still A1 to every route."""

    @pytest.mark.parametrize("orders", [(2, 3, 7), (2, 4, 6), (3, 3, 4)])
    def test_routes_treat_it_as_the_shared_a1(self, orders):
        twin, tr = DynkinType("A", 1), Triple(*orders)
        assert twin is not T("A1")
        assert decide(twin, tr) == decide(T("A1"), tr)
        assert decide(twin, tr).status == Status.RIGID_ZERO
        assert ladder_verdict(twin, tr) == ladder_verdict(T("A1"), tr)
        assert ladder_verdict(twin, tr).status == Status.RIGID_ZERO
        with pytest.raises(ValueError, match="A1 has no ladder"):
            classify_ladder(twin)


class TestDecide:
    def test_bibi_wins_for_d5_344(self):
        v = decide(T("D5"), Triple(3, 4, 4))
        assert v.status == Status.SATURATED and v.method == "bibi"
        stages = {s["method"]: s["status"] for s in v.certificate["stages"]}
        assert stages["ladder"] == Status.UNKNOWN

    def test_alt_wins_for_d4_3315(self):
        v = decide(T("D4"), Triple(3, 3, 15))
        assert v.status == Status.SATURATED and v.method == "alt"
        assert v.certificate["stages"][-1]["certificate"]["target"] == "D4"

    def test_rigid_zero(self):
        assert decide(T("C2"), Triple(2, 3, 7)).status == Status.RIGID_ZERO
        assert decide(T("C2"), Triple(2, 3, 8)).status == Status.RIGID_ZERO
        assert decide(T("A1"), Triple(2, 3, 7)).status == Status.RIGID_ZERO

    def test_unknown(self):
        v = decide(T("D4"), Triple(2, 3, 7))
        assert v.status == Status.UNKNOWN
        assert v.certificate["h1_principal"] == 2

    def test_d9_alt_search_enumerates_no_class(self, monkeypatch):
        # Scott's bound rules out every class pair in Alt_19, whose classes of
        # order 3 hold up to ~10^11 elements: no class may be enumerated.
        calls = []
        monkeypatch.setattr(permgrp, "_class_images", lambda *args: calls.append(args) or [])
        v = decide(T("D9"), Triple(2, 3, 7), alt_search=True)
        assert v.status == Status.UNKNOWN
        alt = next(s for s in v.certificate["stages"] if s["method"] == "alt")
        assert alt["certificate"]["reason"] == "no generating pair: exhausted all class pairs"
        assert calls == []

    def test_ladder_wins_first(self):
        v = decide(T("E8"), Triple(2, 3, 7))
        assert v.status == Status.SATURATED and v.method == "ladder"

    def test_deterministic_certificates(self):
        one = json.dumps(decide(T("D5"), Triple(3, 4, 4)).as_dict(), sort_keys=True)
        two = json.dumps(decide(T("D5"), Triple(3, 4, 4)).as_dict(), sort_keys=True)
        assert one == two

    def test_saturated_certificate_backs_the_claim(self):
        # strict chain for ladder wins, positive-H^1 witness for alt wins
        v = decide(T("E7"), Triple(2, 3, 7))
        chain = v.certificate["stages"][0]["certificate"]["h1_chain"]
        assert v.method == "ladder" and all(x < y for x, y in zip(chain, chain[1:]))
        v = decide(T("B3"), Triple(3, 3, 15))
        assert v.method == "alt"
        assert v.certificate["stages"][-1]["certificate"]["h1"] > 0


_STAGE_PINS = [json.loads(line)
               for line in (Path(__file__).parent / "decide_stages.jsonl").read_text().splitlines()]


@pytest.mark.parametrize(
    "pin", _STAGE_PINS,
    ids=[f"{p['type']}-{p['triple']}{'-search' if p['alt_search'] else ''}" for p in _STAGE_PINS])
def test_decide_stages_pinned(pin):
    # One case per stage branch: alt skipped (not B/D, B below rank 3, no
    # built-in pair), RigidZero, Unknown, a win by each route, and an alt
    # stage that ends Unknown.  json.dumps also pins the key order.
    v = decide(T(pin["type"]), Triple(*pin["triple"]), alt_search=pin["alt_search"])
    assert json.dumps(v.as_dict()) == json.dumps(pin["verdict"])


def test_closed_form_grid_slice():
    # the slice c <= 14 of tests/closed_form_grid.py: decide over all_types(20)
    # x 436 triples, 34,880 cases; the digest covers every verdict and certificate
    triples = hyperbolic_triples(14)
    assert len(triples) == 436
    statuses, sha = run_grid(all_types(20), triples)
    assert statuses == {Status.SATURATED: 34090, Status.RIGID_ZERO: 565, Status.UNKNOWN: 225}
    assert sha == "67c6a908372decfdb31977aed065bb10577ddf8a84e8d3358beb9456b71ce555"
