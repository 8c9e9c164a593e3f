import functools
import itertools
import json
import random
import re

import pytest

from trisat import CycleType, DynkinType, Status, Triple, alt_saturation_check, altmethod, h1_alt, weil
from trisat.altmethod import alt_degree, alt_target, perm_fixed_dim
from trisat.permgrp import NotFound, cycle_types_of_order, find_generating_triple
from trisat.rootsys import all_types
from trisat.tables import ALT_GEN_ROWS

from oracles import conjugate, partitions, standard_module_fixed_dim


def shapes(m, *texts):
    return tuple(CycleType.parse(t).padded(m) for t in texts)


class TestDegreeMap:
    def test_targets(self):
        assert str(alt_target(8)) == "B3"
        assert str(alt_target(9)) == "D4"
        assert str(alt_target(11)) == "D5"
        assert h1_alt(9, shapes(9, "3^3", "3^3", "7.1^2"), Triple(3, 3, 7)).dim_g == 28
        assert h1_alt(8, shapes(8, "3^2.1^2", "3^2.1^2", "5.3"), Triple(3, 3, 15)).dim_g == 21

    def test_rejects_small_m(self):
        with pytest.raises(ValueError, match="m >= 7"):
            h1_alt(6, shapes(6, "3^2", "3^2", "4.1^2"), Triple(3, 3, 4))
        with pytest.raises(ValueError, match="m >= 8"):
            alt_target(6)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("m", [9.0, True, "9"])
    def test_degree_that_is_not_an_int_is_refused(self, m, warm):
        # weil_h1 keys 28.0 as it keys 28: a float degree that reached it
        # cold would store a report that later certificates print
        weil.weil_h1.cache_clear()
        hint = shapes(9, "3^3", "3^3", "7.1^2")
        if warm:
            h1_alt(9, hint, Triple(3, 3, 7))
        for _ in range(2):
            with pytest.raises(ValueError, match=f"degree must be an int, got {m!r}"):
                h1_alt(m, hint, Triple(3, 3, 7))
        cert = alt_saturation_check(9, Triple(3, 3, 7)).certificate
        assert all(type(n) is int for n in (cert["dim_v"], cert["h1"], *cert["fixed"]))
        assert '"dim_v": 28, "fixed": [' in json.dumps(cert)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_target_of_a_float_degree_is_refused(self, monkeypatch, warm):
        # _shared's memo keys ("B", 3.0) as ("B", 3): once alt_target(8) had
        # run, alt_target(8.0) was handed B3; here the memo starts empty
        monkeypatch.setattr(altmethod, "_shared", functools.lru_cache(maxsize=None)(DynkinType))
        if warm:
            assert str(alt_target(8)) == "B3"
        with pytest.raises(ValueError, match=re.escape("degree must be an int, got 8.0")):
            alt_target(8.0)

    def test_m7_target_outside_bd(self):
        with pytest.raises(ValueError, match="m >= 8"):
            alt_target(7)
        with pytest.raises(ValueError, match="m >= 8"):
            alt_saturation_check(7, Triple(3, 3, 7))

    def test_round_trip(self):
        for r in range(3, 513):
            t = DynkinType("B", r)
            assert alt_degree(t) == 2 * r + 2 and alt_target(alt_degree(t)) == t
        for r in range(4, 513):
            t = DynkinType("D", r)
            assert alt_degree(t) == 2 * r + 1 and alt_target(alt_degree(t)) == t

    def test_degree_none_outside_bd(self):
        others = [t for t in all_types(20) if t.family not in "BD"]
        assert {t.family for t in others} == set("ACEFG")
        for t in [DynkinType("B", 2), *others]:
            assert alt_degree(t) is None, t


class TestStandardModuleEigenvalues:
    """Fixed dimensions on so_{m-1}, the antisymmetric square of the standard module."""

    def test_three_cubes(self):
        # 3 inside the cycles, 3 * gcd(3, 3) across them, 2 fixed lines of V
        assert perm_fixed_dim(CycleType.parse("3^3")) == 3 + 9 - 2

    def test_seven_cycle(self):
        assert perm_fixed_dim(CycleType.parse("7.1^2")) == 3 + (1 + 1 + 1) - 2

    def test_identity(self):
        for m in (5, 9):
            assert perm_fixed_dim(CycleType((1,) * m)) == (m - 1) * (m - 2) // 2

    def test_shared_roots_are_merged(self):
        # -1 arrives from both the 4-cycle and the 2-cycle: gcd(4, 2) = 2
        assert perm_fixed_dim(CycleType.parse("4.3.2")) == (1 + 1 + 0) + (1 + 2 + 1) - 2

    def test_invariants(self):
        # dim of the <g>-invariants is the mean of the character of so_{m-1}
        # over <g>: chi(h) = (f(h)^2 - f(h^2)) / 2 with f(h) = fix(h) - 1.
        rng = random.Random(424)
        for _ in range(40):
            m = rng.randint(4, 14)
            ct = CycleType(tuple(_random_partition(rng, m)))

            def f(k):  # trace of g^k on the standard module
                return sum(length for length in ct.parts if k % length == 0) - 1

            n = ct.order
            total = sum((f(k) ** 2 - f(2 * k)) // 2 for k in range(n))
            assert total % n == 0
            assert perm_fixed_dim(ct) == total // n

    def test_fixed_dims_match_numeric_oracle(self):
        rng = random.Random(977)
        for _ in range(40):
            m = rng.randint(7, 14)
            parts = _random_partition(rng, m)
            ct = CycleType(tuple(parts))
            exact = perm_fixed_dim(ct)
            perm = _random_class_member(rng, m, ct)
            assert exact == standard_module_fixed_dim(perm)

    @pytest.mark.parametrize("m", [7, 8, 9, 10])
    def test_every_cycle_type_matches_numeric_oracle(self, m):
        types = [ct for n in range(1, m * m) for ct in cycle_types_of_order(m, n)]
        assert len(types) == len({ct.parts for ct in types}) == {7: 15, 8: 22, 9: 30, 10: 42}[m]
        for ct in types:
            perm = ct.lex_min()
            assert perm_fixed_dim(ct) == standard_module_fixed_dim(perm), ct


def _random_partition(rng, m):
    parts = []
    left = m
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return parts


def _random_class_member(rng, m, ct):
    imgs = list(range(m))
    rng.shuffle(imgs)
    return conjugate(ct.lex_min(), imgs)


class TestH1Alt:
    def test_alt9_337(self):
        rep = h1_alt(9, shapes(9, "3^3", "3^3", "7.1^2"), Triple(3, 3, 7))
        assert rep.dim_g == 28
        assert rep.fixed_dims == (10, 10, 4)
        assert rep.h1 == 4

    def test_alt9_2315_positive(self):
        rep = h1_alt(9, shapes(9, "2^4.1", "3^3", "5.3.1"), Triple(2, 3, 15))
        assert rep.h1 > 0

    def test_alt11_2311(self):
        rep = h1_alt(11, shapes(11, "2^4.1^3", "3^3.1^2", "11"), Triple(2, 3, 11))
        assert rep.dim_g == 45  # target D5
        assert rep.h1 == 4

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h1_alt(9, shapes(9, "3^3", "3^3", "9"), Triple(3, 3, 7))

    def test_accepts_exactly_alt_classes(self):
        for m in (8, 9, 10):
            for tr in (Triple(2, 3, 7), Triple(2, 4, 5), Triple(3, 3, 4)):
                # each slot also offers the types of the next order, which it must refuse
                offered = [cycle_types_of_order(m, n) + cycle_types_of_order(m, n + 1)
                           for n in tr.orders]
                accepted = 0
                for combo in itertools.product(*offered):
                    ok = all(t.is_even and t.order == n for t, n in zip(combo, tr.orders))
                    try:
                        h1_alt(m, combo, tr)
                        refusal = None
                        accepted += 1
                    except ValueError as exc:
                        refusal = str(exc)
                    if ok:
                        # a class triple is refused only when no epimorphism has it: H^1 < 0
                        assert refusal is None or refusal.startswith("negative H^1"), (combo, refusal)
                    else:
                        assert refusal is not None and " slot " in refusal, (m, tr, combo)
                assert accepted, (m, tr)
        with pytest.raises(ValueError, match="B slot has degree 6, expected 8"):
            h1_alt(8, (CycleType.parse("2^2.1^4"), CycleType.parse("3^2"),
                       CycleType.parse("7.1")), Triple(2, 3, 7))

    def test_every_generating_row_positive_and_oracle_exact(self):
        for m, orders, *shape_strs in ALT_GEN_ROWS:
            triple = Triple(*orders)
            row_shapes = shapes(m, *shape_strs)
            rep = h1_alt(m, row_shapes, triple)
            assert rep.h1 > 0, (m, orders)
            rng = random.Random(m * 1000 + orders[2])
            for ct, expected in zip(row_shapes, rep.fixed_dims):
                perm = _random_class_member(rng, m, ct)
                assert standard_module_fixed_dim(perm) == expected


class TestAltSaturationCheck:
    def test_tabulated_rows(self):
        v = alt_saturation_check(9, Triple(3, 3, 9))
        assert v.status == Status.SATURATED and v.certificate["target"] == "D4"
        v = alt_saturation_check(8, Triple(3, 3, 15))
        assert v.status == Status.SATURATED and v.certificate["target"] == "B3"

    def test_not_generated_is_unknown(self):
        v = alt_saturation_check(8, Triple(2, 3, 7))
        assert v.status == Status.UNKNOWN
        assert "no generating pair" in v.certificate["reason"]


def _nonpositive_h1_triples(m):
    """Scott-admissible even class triples (A, B, AB) on m points, with
    hyperbolic orders a <= b <= c, whose count dim so_{m-1} - sum of the
    fixed dimensions is <= 0."""
    even = [ct for ct in map(CycleType, partitions(m)) if ct.is_even and ct.order > 1]
    out = set()
    for triple in itertools.product(even, repeat=3):
        a, b, c = (ct.order for ct in triple)
        if not (a <= b <= c and b * c + a * c + a * b < a * b * c):
            continue
        if sum(ct.cycle_count for ct in triple) > m + 2:
            continue
        if (m - 1) * (m - 2) // 2 - sum(map(perm_fixed_dim, triple)) <= 0:
            out.add(triple)
    return out


NONPOSITIVE_H1_TRIPLES = {
    8: [("3.1^5", "4^2", "4^2")],
    9: [("2^2.1^5", "3^3", "9"), ("3^3", "3^3", "4.2.1^3"), ("3^3", "3^3", "5.1^4"),
        ("3^3", "3^3", "3.2^2.1^2"), ("3^3", "3.1^6", "9"), ("3.1^6", "3^3", "9")],
    10: [("2^2.1^6", "5^2", "5^2"), ("3.1^7", "5^2", "5^2")],
    11: [],
}


@pytest.mark.parametrize("m", NONPOSITIVE_H1_TRIPLES)
def test_no_generating_pair_has_nonpositive_h1(m):
    # A generating pair gives a real representation, whose H^1 is >= 0, and
    # Alt_m is irreducible on so_{m-1}, so H^1 is the count above: none of
    # these class triples holds a generating pair.  That is why no witness on
    # 8 to 11 points reaches the H^1 = 0 branch of alt_saturation_check or
    # weil_h1's negative-H^1 check.
    want = {shapes(m, *texts) for texts in NONPOSITIVE_H1_TRIPLES[m]}
    assert _nonpositive_h1_triples(m) == want
    for triple in want:
        tr = Triple(*(ct.order for ct in triple))
        assert isinstance(find_generating_triple(m, tr, shape_hint=triple), NotFound), triple
