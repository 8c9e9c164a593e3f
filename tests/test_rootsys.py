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


# all_types order: A, B, C, D by rank, then E6, E7, E8, F4, G2 (the nonso3 table's row order)
ALL_TYPES_BY_RANK = {
    1: "A1",
    2: "A1 A2 B2 C2 G2",
    3: "A1 A2 A3 B2 B3 C2 C3 G2",
    4: "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 F4 G2",
    6: "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 B6 C2 C3 C4 C5 C6 D4 D5 D6 E6 F4 G2",
    7: "A1 A2 A3 A4 A5 A6 A7 B2 B3 B4 B5 B6 B7 C2 C3 C4 C5 C6 C7 D4 D5 D6 D7 E6 E7 F4 G2",
    8: "A1 A2 A3 A4 A5 A6 A7 A8 B2 B3 B4 B5 B6 B7 B8 C2 C3 C4 C5 C6 C7 C8 "
       "D4 D5 D6 D7 D8 E6 E7 E8 F4 G2",
    13: "A1 A2 A3 A4 A5 A6 A7 A8 A9 A10 A11 A12 A13 "
        "B2 B3 B4 B5 B6 B7 B8 B9 B10 B11 B12 B13 "
        "C2 C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 C13 "
        "D4 D5 D6 D7 D8 D9 D10 D11 D12 D13 E6 E7 E8 F4 G2",
}


@pytest.mark.parametrize("max_rank", ALL_TYPES_BY_RANK)
def test_all_types_order(max_rank):
    assert [str(t) for t in all_types(max_rank)] == ALL_TYPES_BY_RANK[max_rank].split()


@pytest.mark.parametrize("family,rank,message", [
    ("E", 5, "E_r exists only for rank 6, 7, 8"),
    ("E", 9, "E_r exists only for rank 6, 7, 8"),
    ("F", 3, "F_r exists only for rank 4"),
    ("G", 3, "G_r exists only for rank 2"),
])
def test_exceptional_rank_messages(family, rank, message):
    with pytest.raises(ValueError) as err:
        DynkinType(family, rank)
    assert str(err.value) == message


def test_unknown_family_message():
    with pytest.raises(ValueError) as err:
        DynkinType("Q", 5)
    assert str(err.value) == "unknown family 'Q'"


# D\u0665 and D\uff15 are D with an Arabic-Indic and a fullwidth 5: not D5
@pytest.mark.parametrize("text", ["Q5", "H2", "e8", "D\u0665", "D\uff15"])
def test_unparsable_label_message(text):
    with pytest.raises(ValueError) as err:
        DynkinType.parse(text)
    assert str(err.value) == f"cannot parse Dynkin type {text!r}"


def test_rank_cap():
    DynkinType("A", 512)
    with pytest.raises(ValueError):
        DynkinType("A", 513)


def test_parse_roundtrip():
    for label in ("A1", "B2", "C9", "D13", "E7", "F4", "G2"):
        assert str(DynkinType.parse(label)) == label
    with pytest.raises(ValueError):
        DynkinType.parse("D7x")
