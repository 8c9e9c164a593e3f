import random

import pytest

from trisat import BibiConfig, Status, Triple, bibi_criterion, h1_bibi, h1_principal, search_bibi
from trisat.bibi import EigenvalueMultiset, principal_block_eigenvalues, so_fixed_dim
from trisat.rootsys import DynkinType

from oracles import fixed_dim_numeric, matrix_from_multiset


class TestEigenvalueMultiset:
    def test_dimension(self):
        ev = EigenvalueMultiset(4, {0: 1, 2: 2})
        assert ev.dimension == 3

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            EigenvalueMultiset(5, {1: 2, 4: 1})

    def test_merge(self):
        a = EigenvalueMultiset(4, {0: 1, 2: 2})
        b = EigenvalueMultiset(4, {0: 5, 2: 6})
        assert a.merge(b).mults == {0: 6, 2: 8}
        with pytest.raises(ValueError):
            a.merge(EigenvalueMultiset(6, {0: 1}))

    def test_drops_zero_entries(self):
        assert EigenvalueMultiset(3, {0: 2, 1: 0, 2: 0}).mults == {0: 2}


class TestSoFixedDim:
    def test_identity(self):
        assert so_fixed_dim(EigenvalueMultiset(1, {0: 6})) == 15  # dim so_6

    def test_plus_minus_one(self):
        assert so_fixed_dim(EigenvalueMultiset(2, {0: 6, 1: 8})) == 43

    def test_order_seven(self):
        ev = EigenvalueMultiset(7, {0: 2, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2})
        assert so_fixed_dim(ev) == 13

    def test_against_numeric_rank(self):
        rng = random.Random(7121)
        for _ in range(30):
            ev = _random_multiset(rng, max_dim=20)
            assert so_fixed_dim(ev) == fixed_dim_numeric(matrix_from_multiset(ev))


def _random_multiset(rng, max_dim):
    modulus = rng.randint(1, 16)
    mults = {}
    dim = 0
    budget = rng.randint(2, max_dim)
    orbits = sorted({(j, (modulus - j) % modulus) for j in range(modulus)},
                    key=lambda p: min(p))
    rng.shuffle(orbits)
    for j, jc in orbits:
        if dim >= budget:
            break
        k = rng.randint(0, 3)
        if k == 0:
            continue
        cost = k if j == jc else 2 * k
        if dim + cost > max_dim:
            continue
        mults[j] = mults.get(j, 0) + k
        if j != jc:
            mults[jc] = mults.get(jc, 0) + k
        dim += cost
    if not mults:
        mults = {0: 2}
    return EigenvalueMultiset(modulus, mults)


class TestPrincipalBlocks:
    def test_examples(self):
        ev = principal_block_eigenvalues(1, 2)
        assert (ev.modulus, ev.mults) == (4, {0: 1, 2: 2})
        ev = principal_block_eigenvalues(5, 2)
        assert (ev.modulus, ev.mults) == (4, {0: 5, 2: 6})
        for n in (3, 5, 9):
            ev = principal_block_eigenvalues(1, n)
            assert ev.mults == {0: 1, 2: 1, 2 * n - 2: 1}

    def test_dimension_is_odd_orthogonal(self):
        for rank in range(1, 9):
            for n in range(2, 12):
                assert principal_block_eigenvalues(rank, n).dimension == 2 * rank + 1


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
                merged = principal_block_eigenvalues(r1, n).merge(
                    principal_block_eigenvalues(r2, n))
                assert fixed_dim_numeric(matrix_from_multiset(merged)) == expected


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

    def test_d4_255(self):
        v = search_bibi(4, Triple(2, 5, 5))
        assert v.status == Status.SATURATED
        assert v.certificate["k"] == 1
