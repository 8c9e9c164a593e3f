import pytest

from trisat import BibiConfig, Status, Triple, bibi_criterion, h1_bibi, h1_principal, search_bibi
from trisat.bibi import _block_type, _side_conditions, so_fixed_dim
from trisat.rootsys import DynkinType, adjoint_dim
from trisat.weil import principal_fixed_dim

from oracles import principal_pair_fixed_dim


class TestSoFixedDim:
    def test_plus_minus_one(self):
        # the involution of SO(3) x SO(11) has eigenvalues +1 (6 times), -1 (8 times)
        assert so_fixed_dim(1, 5, 2) == 15 + 28

    def test_order_seven(self):
        # SO(7) x SO(7) at n = 7: each 7th root of unity twice, so 1 + 6 * 4 / 2
        assert so_fixed_dim(3, 3, 7) == 13

    def test_against_numeric_rank(self):
        for r1 in range(1, 7):
            for r2 in range(r1, 13 - r1):
                for n in range(2, 13):
                    expected = principal_pair_fixed_dim(r1, r2, n)
                    assert so_fixed_dim(r1, r2, n) == expected, (r1, r2, n)

    # the memo is typed and the body refuses a non-int, so a float or a bool
    # is refused cold and warm alike: a float once read the int's entry
    # warm, and True ran as rank 1
    ODD_ARGS = [(2.0, 3, 7), (2, 3.0, 7), (2, 3, 7.0), (True, 3, 7), (2, True, 7), ("2", 3, 7)]

    @pytest.mark.parametrize("args", ODD_ARGS, ids=str)
    def test_refused_cold(self, args):
        so_fixed_dim.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"ranks and order must be ints, got "):
                so_fixed_dim(*args)
        assert so_fixed_dim.cache_info().currsize == 0

    @pytest.mark.parametrize("args", ODD_ARGS, ids=str)
    def test_refused_after_the_int_warmed_the_memo(self, args):
        ints = tuple(int(x) for x in args)
        value = so_fixed_dim(*ints)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"ranks and order must be ints, got "):
                so_fixed_dim(*args)
        assert so_fixed_dim(*ints) == value


class TestPrincipalBlocks:
    def test_examples(self):
        # so_{2k+1} at n = 2: C(#even j, 2) + C(#odd j, 2) over |j| <= k
        assert principal_fixed_dim(_block_type(1), 2) == 0 + 1
        assert principal_fixed_dim(_block_type(5), 2) == 10 + 15
        for n in (3, 5, 9):
            assert principal_fixed_dim(_block_type(1), n) == 1

    def test_dimension_is_odd_orthogonal(self):
        for rank in range(1, 9):
            assert adjoint_dim(_block_type(rank)) == rank * (2 * rank + 1)


class TestH1Bibi:
    def test_d7_k1_reference_values(self):
        rep = h1_bibi(BibiConfig(7, 1), Triple(2, 3, 7))
        assert rep.fixed_dims == (43, 31, 13)
        assert rep.h1 == 4

    def test_d7_k1_large_c(self):
        # fixed dim at the order-c generator shrinks, so H^1 grows
        rep = h1_bibi(BibiConfig(7, 1), Triple(2, 3, 13))
        assert rep.fixed_dims == (43, 31, 9)
        assert rep.h1 == 8

    def test_rejects_r_equal_2k_plus_1(self):
        with pytest.raises(ValueError):
            BibiConfig(5, 2)

    @pytest.mark.parametrize("r, k", [(7, True), (7, 1.0), (7.0, 1), (True, 1)])
    def test_rejects_a_rank_that_is_not_an_int(self, r, k):
        # a bool or float rank used to pass and print as the factor "BTrue"
        with pytest.raises(ValueError):
            BibiConfig(r, k)

    def test_triple_argument_order_irrelevant(self):
        cfg = BibiConfig(9, 2)
        assert h1_bibi(cfg, Triple(6, 2, 4)).h1 == h1_bibi(cfg, Triple(2, 4, 6)).h1

    def test_against_numeric_rank(self):
        for cfg, orders in [(BibiConfig(7, 1), (2, 3, 7)),
                            (BibiConfig(5, 1), (3, 4, 4)),
                            (BibiConfig(10, 4), (2, 3, 7))]:
            rep = h1_bibi(cfg, Triple(*orders))
            r1, r2 = cfg.ranks
            for n, expected in zip(Triple(*orders).orders, rep.fixed_dims):
                assert principal_pair_fixed_dim(r1, r2, n) == expected


class TestCriterion:
    def test_d7_row(self):
        v = bibi_criterion(BibiConfig(7, 1), Triple(2, 3, 7))
        assert v.status == Status.SATURATED
        assert v.certificate["lhs"] == 2 and v.certificate["rhs"] == 4

    def test_d5_row(self):
        assert bibi_criterion(BibiConfig(5, 1), Triple(3, 4, 4)).status == Status.SATURATED

    def test_side_condition_b3(self):
        v = bibi_criterion(BibiConfig(7, 2), Triple(2, 3, 7))
        assert v.status == Status.UNKNOWN
        assert "side_conditions" in v.certificate

    def test_side_condition_2_5(self):
        v = bibi_criterion(BibiConfig(8, 3), Triple(2, 5, 5))
        assert v.status == Status.UNKNOWN
        assert any("(2, 5)" in s for s in v.certificate["side_conditions"])

    def test_side_conditions_as_the_theorem_states_them(self):
        # the rule over the set of factor ranks, for every admissible pair
        triples = [Triple(a, b, c) for a in range(2, 9) for b in range(a, 9)
                   for c in range(b, 9) if b * c + a * c + a * b < a * b * c]
        for r in range(4, 13):
            for k in range(1, r // 2):
                factors = set(BibiConfig(r, k).ranks)
                for tr in triples:
                    want = []
                    if tr.b == 3 and factors & {2, 3}:
                        want.append("b = 3 requires factor ranks disjoint from {2, 3}")
                    if (tr.a, tr.c) == (2, 5) and 3 in factors:
                        want.append("(a, c) = (2, 5) requires no factor of rank 3")
                    assert _side_conditions(k, r - k - 1, tr) == want, (r, k, tr)

    def test_b3_factor_uses_principal_value(self):
        v = bibi_criterion(BibiConfig(13, 3), Triple(2, 4, 5))
        assert v.certificate["lhs_parts"][0] == h1_principal(DynkinType("B", 3), Triple(2, 4, 5)).h1


class TestSearch:
    def test_d13_334(self):
        v = search_bibi(13, Triple(3, 3, 4))
        assert v.status == Status.SATURATED

    def test_d5_237_unknown(self):
        v = search_bibi(5, Triple(2, 3, 7))
        assert v.status == Status.UNKNOWN
        assert v.certificate["attempts"][0]["k"] == 1

    @pytest.mark.parametrize("r", [7.0, True, "7"])
    def test_refuses_a_rank_that_is_not_an_int(self, r):
        # 7.0 and "7" used to raise TypeError; True was refused only as below 4
        with pytest.raises(ValueError) as err:
            search_bibi(r, Triple(2, 3, 7))
        assert str(err.value) == "need r >= 4"

    def test_d4_255(self):
        v = search_bibi(4, Triple(2, 5, 5))
        assert v.status == Status.SATURATED
        assert v.certificate["k"] == 1
