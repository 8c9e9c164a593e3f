"""The caches are transparent: a cached value is the computed one.

weil.weil_h1, rootsys.exponents, bibi.so_fixed_dim and
saturation.classify_ladder are memoised per argument, and so are
DynkinType.parse, which hands out one shared instance per type,
permgrp._types_of_order, the cycle types of each order with their even
part and fewest cycles, which the search and Scott's bound read (each of
those fields swept again on its own, as even_types_of_order and
fewest_cycles), and the search's set-up: permgrp._frame per A and
permgrp._room per class list.
weil.principal_fixed_dim and rootsys.adjoint_dim read each type's
principal_dims table, built once per instance.  Cold, warm, keyed by an
equal but distinct type, or computed without the cache (a memo's bare
function, or the exponent sum the table holds), each gives the same value;
a refusal raises on every call.  A frame is compared whole: A's cycle
bits, inverse, lead table, floor table and the cycle-length table the
orbit key reads.
The lead table in a frame is filled as walks ask for it, and each entry is
the oracle's.
MEMOS is every lru_cache in src/trisat, found by walking each module's
names and its classes' bodies, so a new memo fails test_every_memo_is_swept
until SWEEPS sweeps it; _clear_all clears them all.  rootsys._shared, the
interning table of the shared types, is the one memo exempt: clearing it
would break parse's and all_types' one instance per type.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import trisat
from trisat import DynkinType, Triple, altmethod, bibi, fixtures, permgrp, rootsys, saturation, weil
from trisat.permgrp import CycleType
from trisat.rootsys import all_types

from oracles import centraliser_leads, partitions

A1 = DynkinType("A", 1)
TYPES = all_types(20)
ORDERS = range(2, 61)
TRIPLES = [(2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 5, 60), (7, 11, 13), (29, 31, 60)]
#: The class lists of the search: the even types of each order, and every class.
CLASS_LISTS = [lists for m in range(5, 10) for lists in (
    *(tuple(t.parts for t in permgrp.cycle_types_of_order(m, n) if t.is_even) for n in range(2, 13)),
    tuple(partitions(m))) if lists]
#: (dim g, fixed dims) of each type's principal action on each triple.
H1_ARGS = [(rootsys.adjoint_dim(t), tuple(weil.principal_fixed_dim(t, n) for n in tr))
           for t in TYPES for tr in TRIPLES]


def _exponent_sum(t, n):
    return sum(1 + 2 * (e // n) for e in rootsys.exponents(t))


def _adjoint_sum(t):
    return sum(2 * e + 1 for e in rootsys.exponents(t))


def _view(field):
    """permgrp._types_of_order's ``field`` (an index or a slice), read
    through the memo; its bare counterpart reads the unmemoised function,
    and the memo's misses stand for its own."""
    def read(m, n):
        return permgrp._types_of_order(m, n)[field]
    read.__wrapped__ = lambda m, n: permgrp._types_of_order.__wrapped__(m, n)[field]
    read.cache_info = permgrp._types_of_order.cache_info
    return read


#: Every cache the closed-form routes read, the argument tuples swept, and the
#: uncached computation: a memo's bare function, or the sum a table holds.
SWEEPS = {
    "principal_fixed_dim": (weil.principal_fixed_dim, [(t, n) for t in TYPES for n in ORDERS],
                            _exponent_sum),
    "adjoint_dim": (rootsys.adjoint_dim, [(t,) for t in TYPES], _adjoint_sum),
    "exponents": (rootsys.exponents, [(t,) for t in TYPES], None),
    "classify_ladder": (saturation.classify_ladder, [(t,) for t in TYPES if t != A1], None),
    "weil_h1": (weil.weil_h1, H1_ARGS, None),
    "so_fixed_dim": (bibi.so_fixed_dim, [(r1, r2, n) for r1 in range(1, 19)
                                         for r2 in range(1, 20 - r1) for n in ORDERS], None),
    "types_of_order": (permgrp._types_of_order, [(m, n) for m in range(3, 13) for n in ORDERS],
                       None),
    # the fields Scott's bound and the search read, swept as views of it
    "fewest_cycles": (_view(slice(2, 4)), [(m, n) for m in range(3, 13) for n in ORDERS], None),
    "even_types_of_order": (_view(1), [(m, n) for m in range(3, 13) for n in ORDERS], None),
    "frame": (permgrp._frame, [(CycleType(p).lex_min(),) for m in range(1, 10)
                               for p in partitions(m)], None),
    "room": (permgrp._room, [(lists,) for lists in CLASS_LISTS], None),
    "parse": (DynkinType.parse, [(text,) for t in TYPES for text in (str(t), f" {t}\n")], None),
}


def _memos():
    """Every lru_cache of src/trisat but rootsys._shared, once each by
    identity: each module's names, and the bodies of the classes it defines
    (a staticmethod read through its function)."""
    found = {}
    for info in pkgutil.iter_modules(trisat.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"trisat.{info.name}")
        for value in vars(module).values():
            inner = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *inner):
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("trisat."):
                    found[id(obj)] = obj
    return [fn for fn in found.values() if fn is not rootsys._shared]


MEMOS = _memos()


def _fresh(args):
    """The same arguments, each type rebuilt as an equal, distinct instance."""
    return tuple(DynkinType(a.family, a.rank) if isinstance(a, DynkinType) else a for a in args)


def _clear_all():
    """Clear every memo and drop each shared type's principal_dims table.

    The shared instances stay, so parse and all_types still hand out one
    instance per type.
    """
    for fn in MEMOS:
        fn.cache_clear()
    for t in all_types(rootsys.MAX_RANK):
        vars(t).pop("principal_dims", None)


def _built(fn):
    """What a warm call must not add to: a memo's misses, or the tables of
    the shared types, by identity."""
    if hasattr(fn, "cache_info"):
        return fn.cache_info().misses
    return [id(vars(t).get("principal_dims")) for t in TYPES]


@pytest.mark.parametrize("name", SWEEPS)
def test_memo_is_transparent(name):
    fn, sweep, computed = SWEEPS[name]
    _clear_all()
    cold = [fn(*args) for args in sweep]
    built = _built(fn)
    warm = [fn(*args) for args in sweep]
    fresh = [fn(*_fresh(args)) for args in sweep]
    assert _built(fn) == built  # equal types hit the memo; a table is built once
    computed = computed or fn.__wrapped__
    assert cold == warm == fresh == [computed(*args) for args in sweep]


def test_every_memo_is_swept():
    swept = {id(fn) for fn, _, _ in SWEEPS.values()}
    assert [f"{fn.__module__}.{fn.__qualname__}" for fn in MEMOS if id(fn) not in swept] == []
    # the walk finds a module-level memo, a staticmethod's and a private one
    assert {id(weil.weil_h1), id(DynkinType.parse), id(permgrp._frame)} <= {id(fn) for fn in MEMOS}


def test_lead_tables_hold_the_leads():
    # each entry a walk left in a frame's lead table, keyed by the mask of
    # the A-cycles F meets, is the oracle's leads of F = the first points
    # of those cycles
    permgrp._frame.cache_clear()
    filled = 0
    for m, orders in [(9, (2, 3, 9)), (9, (3, 3, 6)), (8, (4, 4, 6)), (10, (2, 5, 5))]:
        permgrp.find_generating_triple(m, Triple(*orders))
        for t in permgrp._types_of_order(m, orders[0])[1]:
            a = t.lex_min()
            cycles = permgrp._cycles(a)
            for touched, leads in permgrp._frame(a)[2].items():
                fixed = {cyc[0] for i, cyc in enumerate(cycles) if touched >> i & 1}
                assert leads == sorted(centraliser_leads(a, fixed)), (a, touched)
                filled += 1
    assert filled > 20


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
    parsed = DynkinType.parse.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="generator order must be >= 2, got 1"):
            weil.principal_fixed_dim(A1, 1)
        with pytest.raises(ValueError, match="generator order must be an integer, got 2.5"):
            weil.principal_fixed_dim(A1, 2.5)
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
    assert DynkinType.parse.cache_info().currsize == parsed


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
