from itertools import groupby, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisat import DynkinType, Triple, decide, h1_principal
from trisat.rootsys import MAX_RANK, adjoint_dim, all_types, exponents
from trisat.weil import principal_fixed_dim, weil_h1

from oracles import lawther_closed_form, rigid_contains


def T(label):
    return DynkinType.parse(label)


def hyperbolic_triples(cap):
    out = []
    for a in range(2, cap + 1):
        for b in range(a, cap + 1):
            for c in range(b, cap + 1):
                if b * c + a * c + a * b < a * b * c:
                    out.append(Triple(a, b, c))
    return out


class TestTriple:
    def test_normalizes(self):
        assert Triple(7, 3, 2).orders == (2, 3, 7)
        assert Triple(7, 3, 2) == Triple(2, 3, 7)

    @pytest.mark.parametrize("bad", [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 7)])
    def test_rejects_non_hyperbolic(self, bad):
        with pytest.raises(ValueError):
            Triple(*bad)

    def test_rejects_small_entries(self):
        with pytest.raises(ValueError):
            Triple(1, 8, 9)

    @pytest.mark.parametrize("orders", [(2, 3, 7), (3, 4, 5)])
    def test_every_ordering_gives_one_triple(self, orders):
        base = Triple(*orders)
        for perm in permutations(orders):
            tr = Triple(*perm)
            assert tr.orders == orders == (tr.a, tr.b, tr.c)
            assert tr == base and hash(tr) == hash(base)

    @pytest.mark.parametrize("bad", [True, 2.0, "3", 1])
    def test_entry_message(self, bad):
        for vals in ((bad, 3, 7), (2, bad, 7), (2, 3, bad), (7, 3, bad)):
            with pytest.raises(ValueError) as err:
                Triple(*vals)
            assert str(err.value) == f"triple entries must be integers >= 2, got {vals}"

    @pytest.mark.parametrize("bad", [(2, 3, 6), (6, 3, 2), (4, 2, 4), (3, 3, 3), (7, 2, 2)])
    def test_non_hyperbolic_message(self, bad):
        a, b, c = sorted(bad)
        with pytest.raises(ValueError) as err:
            Triple(*bad)
        assert str(err.value) == f"({a},{b},{c}) is not hyperbolic"

    def test_parse(self):
        assert Triple.parse("2, 3, 7").orders == (2, 3, 7)
        assert Triple.parse("07,3,2").orders == (2, 3, 7)
        # an empty term is refused, not dropped; so is a term int() reads
        # that is not ASCII digits: "2,3,1_0" used to run as (2,3,10)
        for text in ("2,3", "2,,3,7", "2,3,7,", ",2,3,7", "2, ,3,7",
                     "2,3,1_0", "2,3,\u0667", "2,3,\uff17", "2,3,+7", "2,3,-7"):
            with pytest.raises(ValueError, match="expected three comma-separated integers"):
                Triple.parse(text)


class TestPrincipalFixedDim:
    def test_g2(self):
        assert principal_fixed_dim(T("G2"), 7) == 2
        assert principal_fixed_dim(T("G2"), 2) == 6

    def test_a1_is_one(self):
        for n in range(2, 30):
            assert principal_fixed_dim(T("A1"), n) == 1

    def test_rank_at_large_order(self):
        for t in all_types(10):
            h = exponents(t)[-1] + 1
            assert principal_fixed_dim(t, h) == t.rank
            assert principal_fixed_dim(t, h + 13) == t.rank

    def test_monotone_in_order(self):
        for t in all_types(8):
            vals = [principal_fixed_dim(t, n) for n in range(2, 40)]
            assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            principal_fixed_dim(T("G2"), 1)

    @pytest.mark.parametrize("order", [2.5, 7.0, "7", None])
    def test_rejects_a_non_integer_order(self, order):
        # 2.5 used to give 96.0 on E8, a float read off floor division
        with pytest.raises(ValueError, match="generator order must be an integer"):
            principal_fixed_dim(T("E8"), order)


class TestWeilFormula:
    def test_g2_values(self):
        rep = weil_h1(14, (6, 4, 2))
        assert (rep.z1, rep.h1) == (16, 2)

    def test_a1_principal(self):
        assert weil_h1(3, (1, 1, 1)).h1 == 0

    def test_d7_pair_case(self):
        assert weil_h1(91, (43, 31, 13)).h1 == 4

    def test_negative_h1_raises(self):
        with pytest.raises(ValueError):
            weil_h1(3, (3, 3, 3))

    def test_out_of_range_fixed_raises(self):
        with pytest.raises(ValueError):
            weil_h1(10, (11, 0, 0))


class TestIntDimensions:
    # lru_cache keys 14.0 as it keys 14: a float that missed the memo and
    # were computed would store a report that later int calls print
    @pytest.mark.parametrize("dim_g,fixed", [(14.0, (6, 4, 2)), (14, (6.0, 4, 2)),
                                             (14, (6, 4, True))], ids=["dim", "fixed", "bool"])
    def test_refused_cold(self, dim_g, fixed):
        weil_h1.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="dimensions must be ints"):
                weil_h1(dim_g, fixed)
        stage = decide(T("G2"), Triple(2, 3, 7)).as_dict()["certificate"]["stages"][0]
        chain = stage["certificate"]["h1_chain"]
        assert chain == [0, 2] and all(type(h) is int for h in chain)


class TestThreeFixedDims:
    # one fixed dimension per generator: (3, (1, 1)) gave h1 = 1 and
    # (10, (1, 1, 1, 1)) h1 = 6, and (3, 5) raised TypeError; refused, they
    # are never stored
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("dim_g,fixed", [(3, (1, 1)), (10, (1, 1, 1, 1)), (3, ()), (3, 5)],
                             ids=["two", "four", "none", "int"])
    def test_refused(self, dim_g, fixed, warm):
        weil_h1.cache_clear()
        if warm:
            assert weil_h1(dim_g, (1, 1, 1)).h1 == dim_g - 3
        for _ in range(2):
            with pytest.raises(ValueError, match="fixed must hold three dimensions"):
                weil_h1(dim_g, fixed)

    def test_a_list_is_refused_by_the_memo(self):
        # the memo hashes its key before the body runs
        with pytest.raises(TypeError, match="unhashable"):
            weil_h1(3, [1, 1, 1])


class TestH1Principal:
    def test_examples(self):
        rep = h1_principal(T("G2"), Triple(2, 3, 7))
        assert rep.fixed_dims == (6, 4, 2)
        assert (rep.z1, rep.h1) == (16, 2)
        assert h1_principal(T("G2"), Triple(2, 4, 5)).h1 == 0
        assert h1_principal(T("E8"), Triple(2, 3, 7)).fixed_dims == (120, 80, 36)
        assert h1_principal(T("E8"), Triple(2, 3, 7)).h1 == 12
        assert h1_principal(T("B5"), Triple(2, 3, 7)).h1 == 2

    def test_a1_always_zero(self):
        for tr in hyperbolic_triples(9):
            assert h1_principal(T("A1"), tr).h1 == 0

    def test_argument_order_irrelevant(self):
        for orders in [(7, 3, 2), (3, 7, 2), (4, 6, 2)]:
            assert (h1_principal(T("F4"), Triple(*orders)).h1
                    == h1_principal(T("F4"), Triple(*sorted(orders))).h1)

    def test_rigid_rows_are_exactly_the_zero_set(self):
        # completeness sweep: H^1 vanishes iff (type, triple) is a rigid row
        for t in all_types(6):
            for tr in hyperbolic_triples(14):
                h1 = h1_principal(t, tr).h1
                assert (h1 == 0) == rigid_contains(t, tr.orders), (str(t), tr.orders, h1)


def coxeter(t):
    return exponents(t)[-1] + 1


@st.composite
def classical_orders(draw):
    """(t, n): a classical type of rank at most MAX_RANK and 2 <= n <= 2h + 1,
    h the Coxeter number, so n also runs past h, where every floor(e_j / n) is 0."""
    family, lo = draw(st.sampled_from([("A", 1), ("B", 2), ("C", 2), ("D", 4)]))
    t = DynkinType(family, draw(st.integers(lo, MAX_RANK)))
    return t, draw(st.integers(2, 2 * coxeter(t) + 1))


def _at_rank_cap(test):
    """Pin n = h - 1, h, h + 1, 2h and 2h + 1 at the rank cap for each family."""
    for family in "ABCD":
        t = DynkinType(family, MAX_RANK)
        h = coxeter(t)
        for n in (h - 1, h, h + 1, 2 * h, 2 * h + 1):
            test = example((t, n))(test)
    return test


class TestCodim:
    """The principal fixed dimension dim g^x, read as codim G_[n]: the
    codimension of the elements of order dividing n."""

    def test_a1(self):
        for a in range(2, 12):
            assert principal_fixed_dim(T("A1"), a) == 1

    def test_b2(self):
        assert principal_fixed_dim(T("B2"), 2) == 4
        assert principal_fixed_dim(T("B2"), 3) == 4
        assert principal_fixed_dim(T("B2"), 5) == 2

    def test_d4(self):
        assert principal_fixed_dim(T("D4"), 2) == 12
        assert principal_fixed_dim(T("D4"), 3) == 10
        assert principal_fixed_dim(T("D4"), 4) == 6
        assert principal_fixed_dim(T("D4"), 5) == 6
        assert principal_fixed_dim(T("D4"), 7) == 4

    def test_e8_beyond_coxeter(self):
        assert principal_fixed_dim(T("E8"), 30) == 8

    def test_equals_rank_beyond_coxeter(self):
        for t in all_types(12):
            assert principal_fixed_dim(t, coxeter(t) + 1) == t.rank

    def test_lawther_identity_modest_sweep(self):
        for t in all_types(12):
            if t.family in "ABCD":
                for n in range(2, 25):
                    assert lawther_closed_form(t, n) == principal_fixed_dim(t, n), (str(t), n)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(classical_orders())
    @_at_rank_cap
    def test_lawther_identity_every_rank(self, case):
        t, n = case
        assert lawther_closed_form(t, n) == principal_fixed_dim(t, n), (str(t), n)


def _exponent_sum(t, n):
    """The principal fixed dimension of an order-n element, from the exponents."""
    return sum(1 + 2 * (e // n) for e in exponents(t))


def _holding(n):
    """A hyperbolic triple whose first entry is n."""
    return Triple(n, n, n) if n >= 4 else Triple(n, 7, 8)


#: Each classical family at the rank cap.
AT_MAX_RANK = [DynkinType(family, MAX_RANK) for family in "ABCD"]


@pytest.fixture(params=["shared", "distinct"])
def types_20(request):
    """all_types(20), as the shared instances or as equal, distinct ones whose
    tables are built afresh."""
    types = all_types(20)
    return types if request.param == "shared" else [DynkinType(t.family, t.rank) for t in types]


class TestPrincipalTable:
    """Each type's principal_dims table, read by index, against the exponent
    sum written out here and against Lawther's closed form."""

    def test_h1_principal_reads_the_exponent_sum(self, types_20):
        for t in types_20:
            dim_g = sum(2 * e + 1 for e in exponents(t))
            for n in list(range(2, coxeter(t) + 6)) + [10**6]:
                for tr in (_holding(n), Triple(n, 7, 8)):
                    rep = h1_principal(t, tr)
                    assert rep.dim_g == dim_g, (str(t), tr)
                    assert rep.fixed_dims == tuple(_exponent_sum(t, x) for x in tr.orders), \
                        (str(t), tr)
                    assert rep.h1 == dim_g - sum(rep.fixed_dims)

    def test_table_ends_at_the_first_order_that_gives_the_rank(self):
        for t in all_types(20) + AT_MAX_RANK:
            dims, top = t.principal_dims, coxeter(t)
            assert len(dims) == top + 1 and dims[0] is None, str(t)
            assert adjoint_dim(t) == dims[1], str(t)
            assert list(dims[1:]) == [_exponent_sum(t, n) for n in range(1, top + 1)], str(t)
            assert dims[top] == t.rank < dims[top - 1], str(t)

    def test_lawther_agrees_at_the_cap(self, types_20):
        for t in types_20 + AT_MAX_RANK:
            if t.family in "ABCD":
                top = coxeter(t)
                for n in (top - 1, top, top + 1, 10**6):
                    if n >= 2:
                        law = lawther_closed_form(t, n)
                        assert principal_fixed_dim(t, n) == law, (str(t), n)
                        assert h1_principal(t, _holding(n)).fixed_dims[0] == law, (str(t), n)
                        assert (law == t.rank) == (n >= top), (str(t), n)


def _capped_triples(top):
    """Every hyperbolic triple with entries in 2..top, each entry at top read
    as 10^6, so that it stands for every entry n >= top."""
    out = []
    for a in range(2, top + 1):
        for b in range(a, top + 1):
            for c in range(b, top + 1):
                x, y, z = (10**6 if n == top else n for n in (a, b, c))
                if y * z + x * z + x * y < x * y * z:
                    out.append(Triple(x, y, z))
    return out


class TestRigidCappedTriples:
    """H^1 = 0 exactly on the rigid rows, over every hyperbolic triple.

    An entry n >= top(t) = e_max + 1 gives the rank, as top does, so every
    hyperbolic triple caps to one with entries in 2..top; with each entry at
    top read as a large value the capped triple is still hyperbolic and has
    the same H^1, and rigid_contains reads no entry at top.  So the finite
    sweep below covers every hyperbolic triple for every type of rank <= 20.
    """

    def test_zero_set_is_the_rigid_rows(self):
        capped = 0
        for top, types in groupby(sorted(all_types(20), key=coxeter), key=coxeter):
            triples = _capped_triples(top)
            for t in types:
                capped += len(triples)
                for tr in triples:
                    h1 = h1_principal(t, tr).h1
                    assert (h1 == 0) == rigid_contains(t, tr.orders), (str(t), tr, h1)
        # ROADMAP item 16 counts 183,245, capping B_r (r >= 3) and D_r at 16 or
        # more for the bibi and alt routes; the principal H^1 needs only top.
        assert capped == 178557
