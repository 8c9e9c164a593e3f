"""The exact oracles checked on their own: ranks by hand, the conditions
that keep a fixed dimension over GF(p) equal to the complex one, and what
``oracles.py`` may import."""

import ast
from pathlib import Path

import pytest

from oracles import (
    P,
    antisym_fixed_dim,
    from_cycles,
    principal_pair_fixed_dim,
    rank_mod_p,
    standard_module_fixed_dim,
    standard_module_matrix,
)

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def dense(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


class TestRankModP:
    @pytest.mark.parametrize("matrix, rank", [
        ([], 0),
        ([[0, 0, 0]] * 3, 0),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),  # row 3 = 2 * row 2 - row 1
        ([[2, 4, 6], [1, 2, 3], [-3, -6, -9]], 1),
        ([[0, 1], [1, 0]], 2),  # the first row has no entry in column 0
        ([[1, 1, 0], [0, 1, 1], [1, 0, -1]], 2),  # row 3 = row 1 - row 2
    ])
    def test_hand_computed(self, matrix, rank):
        assert rank_mod_p(dense(matrix), P) == rank

    def test_explicit_zero_entries_are_not_rank(self):
        assert rank_mod_p([{0: 0, 1: P}, {2: -P}], P) == 0

    def test_rank_drops_where_p_divides_a_minor(self):
        # det [[2, 1], [1, 3]] = 5
        rows = dense([[2, 1], [1, 3]])
        assert rank_mod_p(rows, 5) == 1
        assert rank_mod_p(rows, 7) == 2

    def test_rows_are_not_changed(self):
        rows = dense([[1, 2], [2, 4]])
        rank_mod_p(rows, P)
        assert rows == [{0: 1, 1: 2}, {0: 2, 1: 4}]

    def test_refuses_a_modulus_that_is_not_prime(self):
        with pytest.raises(ValueError, match="not a prime"):
            rank_mod_p(dense([[1]]), 15)


class TestAntisymFixedDim:
    def test_diagonal_signs(self):
        # on e0^e1, e0^e2, e1^e2 the signs are -1, -1, +1
        assert antisym_fixed_dim(dense([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), P) == 1
        for d in (2, 5):
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            assert antisym_fixed_dim(dense(identity), P) == d * (d - 1) // 2

    def test_swap(self):
        # (0 1) on e0, e1, e2: e0^e1 -> -e0^e1, and e0^e2 <-> e1^e2
        assert antisym_fixed_dim(dense([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), P) == 1


class TestFieldConditions:
    def test_zeta_of_exact_order_is_required(self):
        # 12 is not a multiple of 4 * 5, so GF(13) has no zeta of order 5 with an i beside it
        with pytest.raises(ValueError, match="exact order 20"):
            principal_pair_fixed_dim(1, 2, 5, p=13)
        with pytest.raises(ValueError, match="exact order 68"):
            principal_pair_fixed_dim(1, 2, 17)  # P - 1 = 16 * lcm(1..16)

    @pytest.mark.parametrize("r1, r2, n, p", [(1, 2, 5, 41), (2, 3, 2, 17), (3, 3, 7, 29)])
    def test_any_prime_that_is_1_mod_4n_agrees(self, r1, r2, n, p):
        assert principal_pair_fixed_dim(r1, r2, n, p) == principal_pair_fixed_dim(r1, r2, n)

    def test_p_dividing_the_element_order_is_refused(self):
        seven = from_cycles(9, [range(7)])
        with pytest.raises(ValueError, match="divides the element order 7"):
            standard_module_fixed_dim(seven, p=7)
        assert standard_module_fixed_dim(seven, p=11) == standard_module_fixed_dim(seven) == 4

    def test_the_refused_case_would_be_wrong(self):
        # mod 2 a swap is a transvection on the standard module, not -1 on a
        # line, so its square fixes one dimension more than over the complex numbers
        swap = from_cycles(4, [(0, 1)])
        assert standard_module_fixed_dim(swap) == 1
        assert antisym_fixed_dim(standard_module_matrix(swap), 2) == 2
        with pytest.raises(ValueError, match="divides the element order 2"):
            standard_module_fixed_dim(swap, p=2)


def test_oracles_import_nothing_from_trisat_but_dynkin_type():
    """The oracles share no code with the formulas under test: of trisat they
    read only the DynkinType value, and they use no numeric library."""
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {name for name in modules if name.startswith("trisat")} == {"trisat.rootsys.DynkinType"}
    assert modules <= {"__future__.annotations", "itertools", "math", "functools.lru_cache",
                       "trisat.rootsys.DynkinType"}


def test_oracles_hold_no_float():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Div)]
