import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisat import DynkinType, Triple, h1_principal
from trisat.rootsys import MAX_RANK, all_types, exponents
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

    def test_parse(self):
        assert Triple.parse("2, 3, 7").orders == (2, 3, 7)
        with pytest.raises(ValueError):
            Triple.parse("2,3")


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
