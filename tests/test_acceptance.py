"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every expected value is exact; the only tolerances are the
stated wall-clock budgets.
"""

import random
import time

from trisat import CycleType, DynkinType, Status, Triple, h1_alt, h1_principal, ladder_verdict
from trisat import bibi as bibi_mod
from trisat import tables
from trisat.altmethod import perm_fixed_dim
from trisat.bibi import so_fixed_dim
from trisat.permgrp import (
    NonGenerated,
    NotFound,
    find_generating_triple,
    prove_non_generation,
    scott_min_sum,
)
from trisat.rootsys import all_types
from trisat.weil import principal_fixed_dim

from oracles import lawther_closed_form, principal_pair_fixed_dim, standard_module_fixed_dim
from test_altmethod import _random_class_member, _random_partition


class _Timer:
    def __init__(self, number, label, budget):
        self.number, self.label, self.budget = number, label, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.number} ({self.label}): PASS ({elapsed:.2f} s)")
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget: {elapsed:.2f} s"
            )
        else:
            print(f"\nACCEPTANCE {self.number} ({self.label}): FAIL ({elapsed:.2f} s)")


def test_criterion_1_lawther_identity_sweep():
    with _Timer(1, "Lawther identity sweep", budget=1.0):
        checked = 0
        for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
            for r in range(lo, 31):
                t = DynkinType(family, r)
                for n in range(2, 61):
                    assert lawther_closed_form(t, n) == principal_fixed_dim(t, n), (
                        family, r, n)
                    checked += 1
        assert checked == (30 + 29 + 29 + 27) * 59


def test_criterion_2_rigid_table_zeros():
    with _Timer(2, "rigid-table zeros", budget=1.0):
        samples = tables.rigid_samples(small_cap=20)
        assert samples
        for label, tr in samples:
            assert h1_principal(DynkinType.parse(label), tr).h1 == 0, (label, tr)


def test_criterion_3_nonso3_table_reproduction():
    with _Timer(3, "ladder verdicts vs non-SO(3)-dense table", budget=5.0):
        expected = tables.nonso3_pairs()
        unsettled = set()
        for t in all_types(13):
            for orders in tables.S_TRIPLES:
                verdict = ladder_verdict(t, Triple(*orders))
                if verdict.status != Status.SATURATED:
                    unsettled.add((str(t), orders))
                    want = Status.RIGID_ZERO if str(t) == "A1" else Status.UNKNOWN
                    assert verdict.status == want, (str(t), orders, verdict.status)
        assert unsettled == expected


def test_criterion_4_bibi_pairs_table():
    with _Timer(4, "SO x SO pair criterion on every table row", budget=5.0):
        spot = bibi_mod.bibi_criterion(bibi_mod.BibiConfig(7, 1), Triple(2, 3, 7))
        assert spot.status == Status.SATURATED
        assert spot.certificate["lhs"] == 2 and spot.certificate["rhs"] == 4
        for r, k, a_spec, b_spec, c_spec in tables.BIBI_PAIR_ROWS:
            cfg = bibi_mod.BibiConfig(r, k)
            triples = tables.expand_triples(a_spec, b_spec, c_spec, c_max=60)
            assert triples, (r, k)
            for tr in triples:
                verdict = bibi_mod.bibi_criterion(cfg, tr)
                assert verdict.status == Status.SATURATED, (r, k, tr, verdict.certificate)


def test_criterion_5_generating_pairs_table():
    with _Timer(5, "Alt_m generating pairs with tabulated shapes", budget=120.0):
        for m, orders, *shape_strs in tables.ALT_GEN_ROWS:
            hint = tables.generating_pair_hint(m, orders)
            assert hint is not None
            witness = find_generating_triple(m, Triple(*orders), shape_hint=hint)
            assert not isinstance(witness, NotFound), (m, orders)
            assert witness.shapes == hint, (m, orders)
            assert witness.validate(), (m, orders)  # exact orders; Jordan, else order m!/2


def test_criterion_6_alt_h1_positive_and_oracle_checked():
    with _Timer(6, "positive H^1 on every generating row, oracle-exact", budget=10.0):
        for m, orders, *shape_strs in tables.ALT_GEN_ROWS:
            tr = Triple(*orders)
            shapes = tuple(CycleType.parse(s).padded(m) for s in shape_strs)
            rep = h1_alt(m, shapes, tr)
            assert rep.h1 > 0, (m, orders)
            rng = random.Random(10_000 * m + orders[2])
            oracle = []
            for ct in shapes:
                perm = _random_class_member(rng, m, ct)
                oracle.append(standard_module_fixed_dim(perm))
            assert tuple(oracle) == rep.fixed_dims, (m, orders)
            assert rep.dim_g - sum(oracle) == rep.h1


def test_criterion_7_non_generation():
    with _Timer(7, "non-generation proofs", budget=120.0):
        exhaustive_cases = [
            (8, (3, 3, 6)), (8, (3, 3, 7)),
            (9, (2, 3, 12)), (9, (3, 3, 4)), (9, (3, 3, 5)), (9, (3, 3, 6)),
        ]
        for m, orders in exhaustive_cases:
            out = prove_non_generation(m, Triple(*orders))
            assert isinstance(out, NonGenerated) and out.method == "exhaustive", (m, orders)

        scott_cases = [
            (11, (2, 4, 5), 14, 13),
            (11, (3, 3, 4), 14, 13),
            (19, (2, 3, 7), 25, 21),
        ]
        for m, orders, min_sum, bound in scott_cases:
            assert scott_min_sum(m, Triple(*orders)) == min_sum, (m, orders)
            out = prove_non_generation(m, Triple(*orders))
            assert isinstance(out, NonGenerated) and out.method == "scott", (m, orders)
            assert out.detail == {"min_sum": min_sum, "bound": bound}

        # the open-ended families, sampled to c <= 60 with the congruence exclusions
        for m, a, b, c_spec in tables.ALT_NONGEN_ROWS:
            for tr in tables.expand_triples(a, b, c_spec, c_max=60):
                out = prove_non_generation(m, tr)
                assert isinstance(out, NonGenerated), (m, tr, out)


def test_criterion_8_randomized_oracle_suite():
    with _Timer(8, "randomized exact-rank oracle agreement", budget=120.0):
        rng = random.Random(518352)
        instances = 0
        for _ in range(50):
            r1, r2, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 16)
            assert so_fixed_dim(r1, r2, n) == principal_pair_fixed_dim(r1, r2, n)
            instances += 1
        for _ in range(50):
            m = rng.randint(7, 20)
            ct = CycleType(tuple(_random_partition(rng, m)))
            exact = perm_fixed_dim(ct)
            perm = _random_class_member(rng, m, ct)
            assert exact == standard_module_fixed_dim(perm)
            instances += 1
        assert instances >= 100
