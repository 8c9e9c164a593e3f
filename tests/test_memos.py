"""The closed-form memos are transparent: a cached value is the computed one.

weil.principal_fixed_dim, weil.weil_h1, rootsys.adjoint_dim,
bibi.so_fixed_dim and saturation.classify_ladder are memoised per argument,
and so is permgrp._fewest_cycles, which Scott's bound reads; DynkinType.parse
hands out one shared instance per type.  Cold, warm,
keyed by an equal but distinct type, or computed by the bare function, each
gives the same value; a refusal raises on every call.
"""

import dataclasses

import pytest

from trisat import DynkinType, altmethod, bibi, fixtures, permgrp, rootsys, saturation, weil
from trisat.rootsys import all_types

A1 = DynkinType("A", 1)
TYPES = all_types(20)
ORDERS = range(2, 61)
TRIPLES = [(2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 5, 60), (7, 11, 13), (29, 31, 60)]
#: (dim g, fixed dims) of each type's principal action on each triple.
H1_ARGS = [(rootsys.adjoint_dim(t), tuple(weil.principal_fixed_dim(t, n) for n in tr))
           for t in TYPES for tr in TRIPLES]

#: Every memo the closed-form routes read, and the argument tuples swept.
SWEEPS = {
    "principal_fixed_dim": (weil.principal_fixed_dim, [(t, n) for t in TYPES for n in ORDERS]),
    "adjoint_dim": (rootsys.adjoint_dim, [(t,) for t in TYPES]),
    "exponents": (rootsys.exponents, [(t,) for t in TYPES]),
    "classify_ladder": (saturation.classify_ladder, [(t,) for t in TYPES if t != A1]),
    "weil_h1": (weil.weil_h1, H1_ARGS),
    "so_fixed_dim": (bibi.so_fixed_dim, [(r1, r2, n) for r1 in range(1, 19)
                                         for r2 in range(1, 20 - r1) for n in ORDERS]),
    "fewest_cycles": (permgrp._fewest_cycles, [(m, n) for m in range(3, 13) for n in ORDERS]),
}


def _fresh(args):
    """The same arguments, each type rebuilt as an equal, distinct instance."""
    return tuple(DynkinType(a.family, a.rank) if isinstance(a, DynkinType) else a for a in args)


def _clear_all():
    for fn, _ in SWEEPS.values():
        fn.cache_clear()


@pytest.mark.parametrize("name", SWEEPS)
def test_memo_is_transparent(name):
    fn, sweep = SWEEPS[name]
    fn.cache_clear()
    cold = [fn(*args) for args in sweep]
    misses = fn.cache_info().misses
    warm = [fn(*args) for args in sweep]
    fresh = [fn(*_fresh(args)) for args in sweep]
    assert fn.cache_info().misses == misses  # equal types hit the memo
    assert cold == warm == fresh == [fn.__wrapped__(*args) for args in sweep]


def test_parse_shares_one_instance_per_type():
    d7 = DynkinType.parse("D7")
    assert DynkinType.parse(" D7 ") is d7
    assert any(t is d7 for t in all_types(7))
    assert bibi._block_type(3) is DynkinType.parse("B3")
    assert bibi._block_type(1) is DynkinType.parse("A1")
    assert DynkinType("D", 7) == d7 and DynkinType("D", 7) is not d7
    for t in TYPES:
        if t != A1:
            for rung in saturation.classify_ladder(t):
                assert rung is DynkinType.parse(str(rung)), (t, rung)
    for m in range(8, 14):
        target = altmethod.alt_target(m)
        assert target is DynkinType.parse(str(target)), m


def test_refusals_are_not_memoised():
    for _ in range(2):
        with pytest.raises(ValueError, match="generator order must be >= 2, got 1"):
            weil.principal_fixed_dim(A1, 1)
        with pytest.raises(ValueError, match="A1 has no ladder"):
            saturation.classify_ladder(A1)
        with pytest.raises(ValueError, match="cannot parse Dynkin type 'Q5'"):
            DynkinType.parse("Q5")
        with pytest.raises(ValueError, match="E_r exists only for rank 6, 7, 8"):
            DynkinType("E", 9)
        with pytest.raises(ValueError, match="E_r exists only for rank 6, 7, 8"):
            DynkinType.parse("E9")
        with pytest.raises(ValueError, match=r"negative H\^1 = -6"):
            weil.weil_h1(3, (3, 3, 3))
        with pytest.raises(ValueError, match=r"fixed dims \(11, 0, 0\) out of range \[0, 10\]"):
            weil.weil_h1(10, (11, 0, 0))


def test_shared_report_is_read_only():
    report = weil.weil_h1(14, (6, 4, 2))
    assert weil.weil_h1(14, (6, 4, 2)) is report
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.h1 = 0


@pytest.mark.parametrize("table_id", ["rigid", "nonso3", "bibi-results", "bibi-pairs"])
def test_tables_from_a_cold_and_a_warm_memo(table_id):
    _clear_all()
    cold = fixtures.check_table(table_id, detail=True)
    warm = fixtures.check_table(table_id, detail=True)
    assert cold["ok"] and warm["ok"]
    assert cold["rows"] == warm["rows"]
