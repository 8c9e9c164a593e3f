import pytest

from trisat.rootsys import DynkinType, adjoint_dim, all_types, exponents


def T(label):
    return DynkinType.parse(label)


def test_exponent_literals():
    assert exponents(T("A1")) == (1,)
    assert exponents(T("A5")) == (1, 2, 3, 4, 5)
    assert exponents(T("B5")) == (1, 3, 5, 7, 9)
    assert exponents(T("C3")) == (1, 3, 5)
    assert exponents(T("D4")) == (1, 3, 3, 5)
    assert exponents(T("D5")) == (1, 3, 4, 5, 7)
    assert exponents(T("D6")) == (1, 3, 5, 5, 7, 9)
    assert exponents(T("E6")) == (1, 4, 5, 7, 8, 11)
    assert exponents(T("E7")) == (1, 5, 7, 9, 11, 13, 17)
    assert exponents(T("E8")) == (1, 7, 11, 13, 17, 19, 23, 29)
    assert exponents(T("F4")) == (1, 5, 7, 11)
    assert exponents(T("G2")) == (1, 5)


def test_adjoint_dim_examples():
    assert adjoint_dim(T("G2")) == 14
    assert adjoint_dim(T("E8")) == 248
    assert adjoint_dim(T("D7")) == 91  # dim so_14 = 14*13/2


@pytest.mark.parametrize("family,closed", [
    ("A", lambda r: r * r + 2 * r),
    ("B", lambda r: r * (2 * r + 1)),
    ("C", lambda r: r * (2 * r + 1)),
    ("D", lambda r: r * (2 * r - 1)),
])
def test_classical_dim_closed_forms(family, closed):
    lo = {"A": 1, "B": 2, "C": 2, "D": 4}[family]
    for r in range(lo, 31):
        assert adjoint_dim(DynkinType(family, r)) == closed(r)


def test_coxeter_number():
    for r in range(1, 20):
        assert exponents(DynkinType("A", r))[-1] + 1 == r + 1
    for r in range(4, 20):
        assert exponents(DynkinType("D", r))[-1] + 1 == 2 * r - 2
    assert exponents(T("E8"))[-1] + 1 == 30
    assert exponents(T("G2"))[-1] + 1 == 6


def test_exponent_identities_sweep():
    # h = max exponent + 1 is |Phi| / rank, and rank * h = 2 * sum of exponents
    for t in all_types(30):
        exps = exponents(t)
        assert list(exps) == sorted(exps)
        assert len(exps) == t.rank
        h = exps[-1] + 1
        assert t.rank * h == adjoint_dim(t) - t.rank
        assert t.rank * h == 2 * sum(exps)
        assert adjoint_dim(t) == sum(2 * e + 1 for e in exps)


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E9", "F3", "G3", "H2"])
def test_invalid_types(bad):
    with pytest.raises(ValueError):
        DynkinType.parse(bad)


def test_rank_cap():
    DynkinType("A", 512)
    with pytest.raises(ValueError):
        DynkinType("A", 513)


def test_parse_roundtrip():
    for label in ("A1", "B2", "C9", "D13", "E7", "F4", "G2"):
        assert str(DynkinType.parse(label)) == label
    with pytest.raises(ValueError):
        DynkinType.parse("D7x")
