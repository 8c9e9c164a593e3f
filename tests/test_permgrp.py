import functools
import gc
import hashlib
import itertools
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from math import factorial, inf, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisat import Triple
from trisat.permgrp import (
    CycleType,
    GenerationWitness,
    NonGenerated,
    NotFound,
    Refuted,
    cycle_type,
    cycle_types_of_order,
    find_generating_triple,
    lex_min_of_type,
    prove_non_generation,
    scott_min_sum,
)
from trisat import permgrp
from trisat.tables import ALT_GEN_ROWS, ALT_NONGEN_ROWS, expand_triples, generating_pair_hint

from oracles import (
    centraliser,
    centraliser_floor,
    centraliser_gens,
    centraliser_leads,
    class_elements,
    conjugate,
    from_cycles,
    group_elements,
    partitions,
    reaches_every_point,
)
from search_grid import GRID, PROOFS, run_grid

# The triples of the decide --alt-search benchmark grid.
SEARCH_GRID_TRIPLES = ((2, 3, 7), (2, 3, 8), (2, 3, 10), (2, 4, 5),
                       (2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 3, 7))


# The cases with a == b of tests/search_grid.py at m <= 9, and the Alt_9
# (3,3,c) rows of the alt-nongen table at c <= 60.
SWAP_CASES = sorted({(m, orders) for m, orders in GRID if m <= 9 and orders[0] == orders[1]} | {
    (m, tr.orders) for m, a, b, c_spec in ALT_NONGEN_ROWS if (m, a, b) == (9, 3, 3)
    for tr in expand_triples(a, b, c_spec, 60)})


# The cases of test_matches_unpruned_search whose walk takes an A that moves 0
# as far as the transitivity filter.
ZERO_MOVED = {(8, (2, 3, 7)), (8, (2, 5, 7)), (8, (4, 5, 5)), (9, (3, 3, 4)),
              (9, (3, 3, 5)), (9, (3, 3, 6)), (9, (3, 4, 5)), (9, (10, 10, 10))}


def naive_order(gens):
    """Closure enumeration, the oracle for the Sims table on small degrees."""
    return len(group_elements(gens))


def sims_order(gens):
    """The Sims table's order of the group the image tuples ``gens`` generate."""
    return permgrp._bsgs_order(gens, len(gens[0]))


def primitive_groups():
    """Generators of three primitive groups that do not contain Alt_m: M11
    on 11 points, PGL(2,7) on 8 and PGammaL(2,8) on 9."""
    m11 = [from_cycles(11, [tuple(range(11))]),
           from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])]
    # PGL(2,7) on the projective line {0..6, inf = 7}: x+1, 3x, -1/x.
    inf = 7
    pgl27 = [tuple([(x + 1) % 7 for x in range(7)] + [inf]),
             tuple([3 * x % 7 for x in range(7)] + [inf]),
             tuple([inf] + [-pow(x, -1, 7) % 7 for x in range(1, 7)] + [0])]
    # PGammaL(2,8) on {GF(8), inf = 8}, GF(8) = GF(2)[w]/(w^3 + w + 1):
    # x+1, wx, 1/x and the Frobenius x^2.
    def gf8_mul(x, y):
        prod = 0
        for i in range(3):
            if y >> i & 1:
                prod ^= x << i
        for i in (4, 3):
            if prod >> i & 1:
                prod ^= 0b1011 << (i - 3)
        return prod

    inv8 = {x: next(y for y in range(1, 8) if gf8_mul(x, y) == 1) for x in range(1, 8)}
    inf = 8
    pgaml28 = [tuple([x ^ 1 for x in range(8)] + [inf]),
               tuple([gf8_mul(2, x) for x in range(8)] + [inf]),
               tuple([inf] + [inv8[x] for x in range(1, 8)] + [0]),
               tuple([gf8_mul(x, x) for x in range(8)] + [inf])]
    return m11, pgl27, pgaml28


def times(*perms):
    """The product of image tuples, the first applied first."""
    return functools.reduce(lambda p, q: tuple(q[x] for x in p), perms)


def witness_of(a, b):
    """The GenerationWitness of A and B with their true shapes and orders."""
    shapes = (cycle_type(a), cycle_type(b), cycle_type(times(a, b)))
    return GenerationWitness(a, b, tuple(s.order for s in shapes), shapes)


def dotted(parts):
    """The dotted form CycleType.parse reads: (3, 2, 2) -> "3.2^2"."""
    return ".".join(f"{n}^{k}" if k > 1 else str(n) for n, k in Counter(parts).items())


def unpruned_search(m, tr, only=None):
    """Reference generation search: every B class is enumerated up front and
    Scott's bound is only applied pair by pair.  ``only``, a list of
    (A representative, B class parts), searches those class pairs instead."""
    a, b, c = tr.orders
    types_a, types_b, types_c = [
        [t for t in cycle_types_of_order(m, n) if t.is_even] for n in (a, b, c)]
    if not (types_a and types_b and types_c):
        return NotFound("no elements of required order")
    target = factorial(m) // 2
    allowed_c = {t.parts: t.cycle_count for t in types_c}
    if only is None:
        b_imgs = sorted(b for t in types_b for b in class_elements(m, t.parts))
        only = [(a_img, b_imgs) for a_img in sorted(t.lex_min() for t in types_a)]
    else:
        only = [(a_img, class_elements(m, parts)) for a_img, parts in only]
    for a_img, b_imgs in only:
        count_a = len(permgrp._cycle_lengths(a_img))
        for b_img in b_imgs:
            prod = tuple(b_img[i] for i in a_img)
            parts = tuple(sorted(permgrp._cycle_lengths(prod), reverse=True))
            count_c = allowed_c.get(parts)
            if count_c is None:
                continue
            if count_a + len(permgrp._cycle_lengths(b_img)) + count_c > m + 2:
                continue
            if not reaches_every_point([a_img, b_img], m):
                continue
            if permgrp._bsgs_order([a_img, b_img], m) == target:
                return GenerationWitness(
                    a_img, b_img, (a, b, c), (cycle_type(a_img), cycle_type(b_img), CycleType(parts))
                )
    return NotFound("exhausted all class pairs")


def walks_by_a(calls, witness):
    """The (A, B classes) that the _class_images ``calls``, each (A, B
    classes, first), walk, one per A representative in call order.  Each
    asks for one root lead of A as B[0], in ascending order, and for all of
    them unless A is the witness's, whose calls stop at the witness's B[0]:
    ``witness`` is (A, B[0]), or None for a search without a hit."""
    walks = {}
    for a, classes_b, first in calls:
        walks.setdefault((a, tuple(classes_b)), []).append(first)
    for (a, classes_b), firsts in walks.items():
        roots = permgrp._frame(a)[2][1]
        if witness is not None and a == witness[0]:
            roots = roots[:roots.index(witness[1]) + 1]
        assert firsts == roots, (a, classes_b, firsts)
    return [(a, list(classes_b)) for a, classes_b in walks]


def whole_walk(a, classes_b, classes_ab):
    """Every B that _class_images builds against A = ``a``: its branches
    over the root leads of A, in the ascending order the search asks for
    them, concatenated."""
    return [b for v in permgrp._frame(a)[2][1]
            for b in permgrp._class_images(a, classes_b, classes_ab, v)]


def classes_of(m, c):
    """The AB classes of a search whose AB has order c on m points: the even types of order c."""
    return [t.parts for t in cycle_types_of_order(m, c) if t.is_even]


def search_outcome(found):
    return found.reason if isinstance(found, NotFound) else found.as_dict()


def swap_plan(m, tr):
    """The search plan as this file reads it: for each A representative
    that Scott's bound leaves a B class, in sorted order, (A, the B classes
    walked, the B classes dropped).  With a == b a representative drops
    each B class that is the type of an earlier one: (A, B) -> (B, A) keeps
    <A, B> and the class of AB, so that class pair was settled when the
    earlier representative was walked."""
    types_a, types_b, types_c = [
        [t for t in cycle_types_of_order(m, n) if t.is_even] for n in tr.orders]
    if not (types_a and types_b and types_c):
        return []
    fewest_c = min(t.cycle_count for t in types_c)
    plan, earlier = [], set()
    for ta in sorted(types_a, key=CycleType.lex_min):
        kept = [tb.parts for tb in types_b if ta.cycle_count + tb.cycle_count + fewest_c <= m + 2]
        if kept:
            dropped = [parts for parts in kept if tr.a == tr.b and parts in earlier]
            plan.append((ta.lex_min(), [parts for parts in kept if parts not in dropped], dropped))
            earlier.add(ta.parts)
    return plan


class TestPermutation:
    # a permutation is its image tuple
    def test_rejects_non_bijection(self, alarm):
        # _cycle_lengths would loop for ever on a point no other point maps to
        for images in ((0, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError, match=r"not a permutation of 0\.\.2"):
                cycle_type(images)

    def test_witnesses_from_equal_images_are_equal(self):
        a, b = (1, 2, 0, 3, 4), (0, 1, 3, 4, 2)
        shapes = (CycleType((3, 1, 1)),) * 2 + (CycleType((5,)),)
        built = [GenerationWitness(tuple(list(a)), tuple(list(b)), (3, 3, 5), shapes)
                 for _ in range(2)]
        assert built[0] == built[1] and built[0].gen_a is not built[1].gen_a

    def test_cycle_type_examples(self):
        assert cycle_type(tuple(range(5))).parts == (1, 1, 1, 1, 1)
        assert str(cycle_type(from_cycles(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]))) == "(3)^3"
        assert cycle_type(from_cycles(9, [(0, 1, 2), (3, 4, 5, 6, 7)])).order == 15

    def test_from_cycles_refuses_a_non_bijection(self):
        assert from_cycles(4, [(0, 1), (2, 3)]) == (1, 0, 3, 2)
        with pytest.raises(ValueError, match="not a permutation"):
            from_cycles(3, [(0, 1), (1, 2)])  # 0 and 2 both go to 1


class TestCycleType:
    def test_parse_forms(self):
        assert CycleType.parse("3^3.1^2").parts == (3, 3, 3, 1, 1)
        assert CycleType.parse("7.1^2").parts == (7, 1, 1)
        assert CycleType.parse("(2)^4(1)^3").parts == (2, 2, 2, 2, 1, 1, 1)
        assert CycleType.parse("5.3").parts == (5, 3)
        assert CycleType.parse(" 5 . 3 1").parts == (5, 3, 1)  # whitespace beside a dot, or for one
        with pytest.raises(ValueError):
            CycleType.parse("3^^2")

    @pytest.mark.parametrize("text", ["(3)^3 garbage (1)^2", "(3)^3(1)^2)(", "x(3)"])
    def test_pretty_form_rejects_trailing_or_leading_garbage(self, text):
        with pytest.raises(ValueError):
            CycleType.parse(text)

    @pytest.mark.parametrize("text", ["3^3.2^0", "(3)^0(5)", "3^0.5", "3^01", "(3)^01"])
    def test_zero_multiplicity_is_refused(self, text):
        # a ^0 term must not vanish silently; a multiplicity ^01 is refused with it
        with pytest.raises(ValueError):
            CycleType.parse(text)

    @pytest.mark.parametrize("text", ["03^3", "(03)^3", "3^3.01", "0"])
    def test_leading_zero_length_is_refused(self, text):
        # a cycle length is written as a multiplicity is: no leading zero, no 0
        with pytest.raises(ValueError, match="cannot parse"):
            CycleType.parse(text)

    @pytest.mark.parametrize("text", [".3^3", "3^3.", "3^3..1", "3^3. .1"])
    def test_empty_dotted_term_is_refused(self, text):
        # a stray dot must not vanish silently
        with pytest.raises(ValueError, match="cannot parse"):
            CycleType.parse(text)

    @pytest.mark.parametrize("text", ["1\u0663.1", "(1\u0663)", "3^\u0663", "(3)^\u0663", "\uff13"])
    def test_non_ascii_digit_is_refused(self, text):
        # "1\u0663.1", with an Arabic-Indic 3, used to parse as (13)(1)
        with pytest.raises(ValueError, match="cannot parse"):
            CycleType.parse(text)

    @pytest.mark.parametrize("parts", [(2, True), (3, 2.0), (0,), ()])
    def test_parts_that_are_not_positive_ints_are_refused(self, parts):
        # (2, True) used to pass as degree 3 and print as (2)(True)
        with pytest.raises(ValueError, match="positive integers"):
            CycleType(parts)

    def test_str_round_trips(self):
        for m in (5, 8, 9):
            for n in (1, 2, 3, 6):
                for ct in cycle_types_of_order(m, n):
                    assert CycleType.parse(str(ct)) == ct

    def test_properties(self):
        ct = CycleType.parse("4.3.2")
        assert ct.m == 9 and ct.order == 12 and ct.cycle_count == 3
        assert ct.is_even  # two even-length cycles
        assert not CycleType.parse("4.1^5").is_even

    def test_class_sizes(self):
        assert CycleType.parse("2^2").class_size() == 3
        assert CycleType.parse("3^3").class_size() == 2240
        assert CycleType.parse("3^3.1^2").class_size() == 123200

    def test_padded(self):
        assert CycleType.parse("7").padded(9).parts == (7, 1, 1)
        with pytest.raises(ValueError):
            CycleType.parse("7").padded(6)

    @pytest.mark.parametrize("shape, m", [("3^2", 9.0), ("1", True), ("3^2", "9")],
                             ids=["float", "bool", "str"])
    def test_padded_refuses_a_degree_that_is_not_an_int(self, shape, m):
        # refused before it is compared or multiplied: 9.0 raised a TypeError,
        # and True padded (1) to (1) as if it were 1
        with pytest.raises(ValueError, match="degree must be an int, got"):
            CycleType.parse(shape).padded(m)

    def test_padding_increases_cycle_count(self):
        for shape, m in [("7", 11), ("3^2", 9), ("5.3", 10)]:
            ct = CycleType.parse(shape)
            assert ct.padded(m).cycle_count == ct.cycle_count + (m - ct.m)


class TestEnumerateClass:
    # tests/oracles.class_elements, the class list the search's B's are
    # checked against, and the class facts read off it
    def test_small_counts(self):
        assert len(class_elements(4, CycleType.parse("2^2").parts)) == 3
        assert len(class_elements(9, CycleType.parse("3^3").parts)) == 2240

    # every cycle type on m <= 7 points
    @pytest.mark.parametrize("m,shape", [(m, dotted(p)) for m in range(1, 8) for p in partitions(m)])
    def test_matches_brute_force(self, m, shape):
        ct = CycleType.parse(shape)
        want = tuple(sorted(
            perm for perm in itertools.permutations(range(m))
            if cycle_type(perm) == ct
        ))
        assert class_elements(m, ct.parts) == want  # complete, exact, lexicographic

    # Every B class the alt workloads and acceptance criteria 5 and 7 walk,
    # pinned by the sha256 of its sorted image bytes.  The digests were taken
    # from the class enumerator the search used while it built whole class
    # slices, so they tie the oracle to its output.  The Alt_12 classes of
    # alt --m 12 --triple 3,3,4 are left out: the oracle lists 492,800
    # elements for one of them, and that search is pinned by its Sims-table
    # calls in TestProveNonGeneration instead.
    WALKED_CLASS_DIGESTS = {
        (8, "3^2.1^2"): "f27cad88488fa629689ddb0864d364e74514791865bce13d0550b9972d86b75f",
        (8, "4^2"): "278add6f72aae5791848a896ddf43f3db5e8b404dfe6e78cafb376154a178969",
        (9, "3^2.1^3"): "c599688038fb0daddafe6658eedb4e349dc39497c7ef8123de53186aa14dcb90",
        (9, "3^3"): "8bc8745d84ce743c502db3f311225bce3e99fb8a7b1f0f96f1be40c5760a7d46",
        (11, "3^3.1^2"): "6d5e52bc1badf5f236f8d2f28594e8a44a22c6f77ca6fbfc42abac4cc4b743d6",
    }

    @pytest.mark.parametrize("m,shape", WALKED_CLASS_DIGESTS)
    def test_walked_classes_pinned(self, m, shape):
        ct = CycleType.parse(shape)
        imgs = class_elements(m, ct.parts)
        assert len(imgs) == ct.class_size()
        digest = hashlib.sha256(b"".join(map(bytes, imgs))).hexdigest()
        assert digest == self.WALKED_CLASS_DIGESTS[m, shape]

    def test_lex_min_matches_enumeration(self):
        # every cycle type on m <= 7 points: the first of its class, and of its type
        for m in range(1, 8):
            for parts in partitions(m):
                ct = CycleType(parts)
                least = ct.lex_min()
                assert least == class_elements(m, parts)[0], parts
                assert cycle_type(least) == ct and lex_min_of_type(ct) == least

    def test_class_list_freed_without_cycle_collector(self):
        # _class_images's backtrack refers to itself; refcounting alone must
        # free what it built once the caller lets go of the list
        a = CycleType((3, 3, 1, 1)).lex_min()
        gc.collect()
        gc.disable()
        try:
            imgs = whole_walk(a, [(2, 2, 2, 2)], partitions(8))
            assert len(imgs) == 10
            del imgs
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sims_table_freed_without_cycle_collector(self):
        # _bsgs_order's helpers refer to each other; refcounting alone must
        # free its table once it returns
        gens = [from_cycles(9, [(0, 1, 2)]), tuple(range(1, 9)) + (0,)]
        gc.collect()
        gc.disable()
        try:
            assert permgrp._bsgs_order(gens, 9) == factorial(9) // 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_class_size_formula_agreement(self):
        for m, shape in [(6, "2^2.1^2"), (7, "3.2^2"), (7, "5.1^2"), (8, "4.2.1^2")]:
            ct = CycleType.parse(shape)
            assert len(class_elements(m, ct.parts)) == ct.class_size()


class TestGroupOrder:
    # the Sims table, _bsgs_order, on image tuples
    def test_known_groups(self):
        alt5 = [from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(0, 1, 2, 3, 4)])]
        assert sims_order(alt5) == 60
        sym7 = [from_cycles(7, [(0, 1)]), from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])]
        assert sims_order(sym7) == 5040
        for m in (3, 6, 11):
            assert sims_order([from_cycles(m, [tuple(range(m))])]) == m

    def test_identity_only(self):
        assert sims_order([tuple(range(5))]) == 1

    def test_one_and_two_points(self):
        # the least degrees: the identity on one point, a transposition on two
        assert sims_order([(0,)]) == 1
        assert sims_order([(1, 0)]) == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 7).flatmap(lambda m: st.tuples(st.just(m), st.lists(
        st.one_of(st.just(tuple(range(m))), st.permutations(range(m)).map(tuple)),
        min_size=1, max_size=3))))
    @example((1, [(0,)]))
    @example((2, [(0, 1), (0, 1)]))
    @example((2, [(0, 1), (1, 0), (0, 1)]))
    def test_against_naive_closure(self, case):
        # odd generators, identity generators and m <= 2 included: the table
        # is not confined to Alt_m
        m, gens = case
        assert permgrp._bsgs_order(gens, m) == naive_order(gens)

    def test_largest_degree_the_table_takes(self):
        # 256 points fill a translate table exactly
        assert sims_order([from_cycles(256, [tuple(range(256))])]) == 256

    def test_degree_past_the_table_cap_is_refused(self):
        with pytest.raises(ValueError, match="degree 257 exceeds the Sims table's cap of 256 points"):
            sims_order([from_cycles(257, [tuple(range(257))])])

    @pytest.mark.parametrize("m,orders", [(8, (3, 3, 6)), (9, (2, 3, 7)),
                                          (9, (2, 3, 9)), (9, (3, 3, 6))])
    def test_exhaustive_proof_groups_against_naive_closure(self, monkeypatch, m, orders):
        seen = []
        real = permgrp._bsgs_order

        def recording(gens, degree):
            order = real(gens, degree)
            seen.append((gens, order))
            return order

        monkeypatch.setattr(permgrp, "_bsgs_order", recording)
        assert prove_non_generation(m, Triple(*orders)).method == "exhaustive"
        assert seen
        for gens, order in seen:
            assert order == naive_order(gens)

    def test_primitive_non_alternating_groups(self):
        m11, pgl27, pgaml28 = primitive_groups()
        for gens, order in ((m11, 7920), (pgl27, 336), (pgaml28, 1512)):
            assert sims_order(gens) == order == naive_order(gens)

    @pytest.mark.parametrize("m", [12, 16, 20])
    def test_large_symmetric_and_alternating(self, m):
        sym = [from_cycles(m, [(0, 1)]), from_cycles(m, [tuple(range(m))])]
        assert sims_order(sym) == factorial(m)
        # m is even, so (0 1 2) and the (m-1)-cycle (1 2 ... m-1) generate Alt_m.
        alt = [from_cycles(m, [(0, 1, 2)]), from_cycles(m, [tuple(range(1, m))])]
        assert sims_order(alt) == factorial(m) // 2


def random_even(rng, m, blocks=None):
    """A seeded random even permutation of 0..m-1; with ``blocks`` (a divisor
    of m) one of the wreath product that keeps the blocks of that many
    consecutive points."""
    if blocks is None:
        p = rng.sample(range(m), m)
    else:
        tops = rng.sample(range(m // blocks), m // blocks)
        inner = [rng.sample(range(blocks), blocks) for _ in tops]
        p = [tops[x // blocks] * blocks + inner[x // blocks][x % blocks] for x in range(m)]
    if not cycle_type(tuple(p)).is_even:  # times a transposition inside a block
        p[0], p[1] = p[1], p[0]
    return tuple(p)


def five_words(a, b):
    """The cycle lengths of A, B, AB, AAB and ABB, the words validate reads."""
    return [permgrp._cycle_lengths(w) for w in (a, b, times(a, b), times(a, a, b), times(a, b, b))]


class TestJordan:
    # validate accepts a transitive pair of even permutations when one of
    # five short words has a longest cycle of prime length p, m < 2p and
    # p <= m - 3 (_jordan), and asks the Sims table otherwise
    def test_jordan_pairs_generate_by_the_sims_table(self):
        # random pairs, and pairs of one imprimitive wreath product, on
        # which _jordan must never fire
        rng = random.Random(44)
        fired = imprimitive = 0
        for m in range(8, 14):
            sizes = [None] * 3 + [k for k in range(2, m // 2 + 1) if m % k == 0]
            for _ in range(150):
                blocks = rng.choice(sizes)
                a, b = random_even(rng, m, blocks), random_even(rng, m, blocks)
                if not reaches_every_point([a, b], m):
                    continue
                jordan = any(permgrp._jordan(lengths, m) for lengths in five_words(a, b))
                alt = permgrp._bsgs_order([a, b], m) == factorial(m) // 2
                assert alt or not jordan, (a, b)
                assert witness_of(a, b).validate() == alt, (a, b)
                fired += jordan
                imprimitive += blocks is not None
        assert fired > 250 and imprimitive > 100

    def test_primitive_groups_are_refused(self):
        # even, transitive pairs whose longest cycles are 11 = m, 7 = m - 1
        # and 7 = m - 2: _jordan's p <= m - 3 keeps them off, and the Sims
        # table reads M11, PSL(2,7) and PGammaL(2,8).  3x, then -1/x, is odd,
        # so its pair with x+1, generating PGL(2,7), is refused for that.
        (m11_a, m11_b), (t7, s7, i7), (t8, w8, i8, f8) = primitive_groups()
        pairs = [(m11_a, m11_b, 7920), (t7, i7, 168), (times(i8, w8, t8, f8), w8, 1512),
                 (t7, times(s7, i7), 336)]
        for a, b, order in pairs:
            assert reaches_every_point([a, b], len(a))
            assert sims_order([a, b]) == order
            assert witness_of(a, b).validate() is False, order
        assert max(cycle_type(w8).parts) == 7 and not cycle_type(times(s7, i7)).is_even

    @pytest.mark.parametrize("a,b,group", [
        # blocks {0..3} and {4..7}: 3 is prime but not above m/2
        (((0, 1, 2), (4, 5, 6)), ((0, 4), (1, 5), (2, 7), (3, 6)), 24),
        # a 5-cycle in a transitive group with an odd A: Sym_8
        (((0, 1, 2, 3, 4), (5, 6)), ((0, 1), (4, 5, 6, 7)), factorial(8)),
        # a 5-cycle in an intransitive group
        (((0, 1, 2, 3, 4),), ((5, 6, 7),), 15),
    ], ids=["imprimitive", "odd", "intransitive"])
    def test_not_alt8_though_a_short_cycle_is_prime(self, a, b, group):
        a, b = from_cycles(8, a), from_cycles(8, b)
        assert sims_order([a, b]) == group
        assert witness_of(a, b).validate() is False

    @pytest.mark.parametrize("m,orders", [(m, orders) for m, orders, *_ in ALT_GEN_ROWS])
    def test_sims_table_calls_of_each_table_witness(self, monkeypatch, m, orders):
        # only Alt_9 (3,3,12) and Alt_11 (2,3,11) have no Jordan word
        hint = generating_pair_hint(m, orders)
        found = find_generating_triple(m, Triple(*orders), shape_hint=hint)
        calls = []
        real = permgrp._bsgs_order
        monkeypatch.setattr(permgrp, "_bsgs_order", lambda gens, m: calls.append(gens) or real(gens, m))
        assert found.validate()
        assert len(calls) == ((m, orders) in {(9, (3, 3, 12)), (11, (2, 3, 11))})

    def test_degree_zero_pair_is_refused(self):
        # it raised ValueError from CycleType(()); Alt_2, trivial, is the one
        # intransitive alternating group
        one = CycleType((1,))
        assert GenerationWitness((), (), (1, 1, 1), (one, one, one)).validate() is False
        assert witness_of((0, 1), (0, 1)).validate() is True

    @pytest.mark.parametrize("orders,cut", [((3, 3, 7), 2), ((3, 3), 3)],
                             ids=["two-shapes", "two-orders"])
    def test_fewer_than_three_shapes_or_orders_are_refused(self, orders, cut):
        # validate zips A, B and AB with the shapes and orders, so two of
        # either dropped AB's check: both were accepted
        found = find_generating_triple(8, Triple(3, 3, 15),
                                       shape_hint=generating_pair_hint(8, (3, 3, 15)))
        assert found.validate()
        a, b, shapes = found.gen_a, found.gen_b, found.shapes
        assert GenerationWitness(a, b, orders, shapes[:cut]).validate() is False

    def test_jordan_pair_past_the_sims_table_cap(self):
        # a 293-cycle and a 9-cycle on 300 points: the Sims table refuses
        # the degree, and Jordan's theorem needs no table
        a = from_cycles(300, [tuple(range(293))])
        b = from_cycles(300, [(0,) + tuple(range(292, 300))])
        assert witness_of(a, b).validate() is True
        with pytest.raises(ValueError, match="exceeds the Sims table's cap"):
            sims_order([a, b])


class TestCentraliser:
    # centraliser_gens closes the C(A)-orbits of the exactness tests below;
    # these tests check it against the whole centraliser.
    @pytest.mark.parametrize("m", range(5, 11))
    def test_generators_give_the_centraliser_order(self, m):
        # |C_Sym(A)| = m! / |class of A|, the class-size formula as the oracle
        even = [CycleType(parts) for parts in partitions(m) if CycleType(parts).is_even]
        assert even
        for t in even:
            a = t.lex_min()
            gens = centraliser_gens(a)
            assert all(tuple(g[x] for x in a) == tuple(a[x] for x in g) for g in gens), t
            assert sims_order(gens) == factorial(m) // t.class_size(), t

    @pytest.mark.parametrize("m", range(5, 8))
    def test_generators_give_the_centraliser(self, m):
        # the closure of the generators is C(A) as built point by point
        for parts in partitions(m):
            a = CycleType(parts).lex_min()
            assert group_elements(centraliser_gens(a)) == centraliser(a), parts

    def test_identity_and_single_cycles(self):
        # A = identity: a transposition and an m-cycle, the whole of Sym_m
        ident = centraliser_gens(tuple(range(7)))
        assert ident == [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
        assert sims_order(ident) == factorial(7)
        # one m-cycle: its own rotation only, C_m
        five = CycleType((5,)).lex_min()
        assert centraliser_gens(five) == [five]
        # one 3-cycle next to two fixed points: C_3 x Sym_2
        a = CycleType((3, 1, 1)).lex_min()
        gens = centraliser_gens(a)
        assert len(gens) == 2 and sims_order(gens) == 6


class TestSliceLeads:
    # Named for the B[0] slices it first checked; it checks the lead table
    # of _frame.  The backtrack sets each B[k] only to a point of that
    # table's entry at the OR of bit[x] over F; the oracle closes the
    # pointwise stabiliser of F in C(A) element by element and reads its
    # orbits.
    @staticmethod
    def representatives():
        for m in range(5, 10):
            for parts in partitions(m):
                if 2 <= CycleType(parts).order <= 15:
                    yield CycleType(parts).lex_min()

    @staticmethod
    def leads(a, fixed):
        bit, _, table = permgrp._frame(a)[:3]
        leads = table[functools.reduce(operator.or_, (bit[x] for x in fixed), 0)]
        assert leads == sorted(set(leads)), (a, fixed)
        return set(leads)

    def test_lex_minimal_representatives(self):
        reps = list(self.representatives())
        assert len(reps) == 79
        for a in reps:
            assert self.leads(a, {0}) == centraliser_leads(a, frozenset({0})), a

    def test_random_conjugates(self):
        # the rule reads A's cycles, so it must not rely on A being lex-minimal
        rng = random.Random(21)
        for a in self.representatives():
            for _ in range(2):
                c = tuple(rng.sample(range(len(a)), len(a)))
                moved = conjugate(a, c)
                assert self.leads(moved, {0}) == centraliser_leads(moved, frozenset({0})), moved

    def test_fixed_sets(self):
        # deeper in the walk F = {0..k} and B[0..k-1]; here F is drawn at
        # random, of every size from 0 to m - 1
        rng = random.Random(25)
        for a in self.representatives():
            m = len(a)
            for size in (0, 1, 2, 3, m // 2, m - 1):
                fixed = frozenset(rng.sample(range(m), size))
                assert self.leads(a, fixed) == centraliser_leads(a, fixed), (a, fixed)

    def test_both_branches(self):
        # 0 fixed: 0, the next fixed point, and the first point of each cycle length
        a = CycleType((3, 3, 2, 1)).lex_min()
        assert a[0] == 0 and self.leads(a, {0}) == {0, 1, 3}
        # 0 on a longer cycle: each point of that cycle, and the first of the next
        for parts, leads in [((2, 2, 2, 2), {0, 1, 2}), ((4, 4), {0, 1, 2, 3, 4})]:
            a = CycleType(parts).lex_min()
            assert a[0] != 0 and self.leads(a, {0}) == leads == centraliser_leads(a, frozenset({0}))
        # A = (0)(1 2)(3 4)(5 6)(7 8) with F = {0, 1, 3}: the touched cycles in
        # full, and 5 for the two untouched 2-cycles
        a = CycleType((2, 2, 2, 2, 1)).lex_min()
        assert self.leads(a, {0, 1, 3}) == {0, 1, 2, 3, 4, 5} == centraliser_leads(a, frozenset({0, 1, 3}))


class TestFloor:
    # _class_images refuses B[k] = v when a c in C(A) with c[k] = 0 sends v
    # below B[0]: c^-1 B c would then start below B.  _frame's floor[k][v]
    # is the least such c[v], read off A's cycles; the oracle closes C(A)
    # element by element and reads the least c[v] over the c with c[k] = 0.
    @pytest.mark.parametrize("m", range(1, 9))
    def test_lex_minimal_representatives(self, m):
        for parts in partitions(m):
            a = CycleType(parts).lex_min()
            floor = permgrp._frame(a)[3]
            assert floor[0] is None and floor[1:] == centraliser_floor(a)[1:], a

    def test_random_conjugates(self):
        # the table reads A's cycles, so it must not rely on A being lex-minimal
        rng = random.Random(41)
        for m in range(2, 8):
            for parts in partitions(m):
                c = tuple(rng.sample(range(m), m))
                a = conjugate(CycleType(parts).lex_min(), c)
                floor = permgrp._frame.__wrapped__(a)[3]
                assert floor[0] is None and floor[1:] == centraliser_floor(a)[1:], a

    def test_both_cases(self):
        # A = (0)(1)(2 3)(4 5 6)(7 8 9): x = 1 is the only other fixed point,
        # so c swaps 0 and 1, and each other point goes at best to the first
        # point of its length's first cycle
        a = CycleType((3, 3, 2, 1, 1)).lex_min()
        floor = permgrp._frame(a)[3]
        assert floor[1] == (1, 0, 2, 2, 4, 4, 4, 4, 4, 4)
        assert floor[0] is None and floor[2:] == (None,) * 8
        # A = (0 1)(2 3)(4 5 6): x = 1 sends 0's cycle onto itself, rotated;
        # x = 2 swaps the two 2-cycles, so 0 goes at best to 2
        a = CycleType((3, 2, 2)).lex_min()
        floor = permgrp._frame(a)[3]
        assert floor[1] == (1, 0, 2, 2, 4, 4, 4)
        assert floor[2] == (2, 2, 0, 1, 4, 4, 4)
        assert floor[3] == (2, 2, 1, 0, 4, 4, 4)
        assert floor[4:] == (None,) * 3


def orbit_minima(images, gens):
    """The least element of each orbit of the sorted ``images`` under conjugation
    by the group ``gens`` generate, closing each orbit generator by generator."""
    seen, minima = set(), set()
    for b in images:  # sorted, so each orbit is first met at its least element
        if b in seen:
            continue
        minima.add(b)
        seen.add(b)
        frontier = [b]
        while frontier:
            p = frontier.pop()
            for c in gens:
                q = conjugate(p, c)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
    return minima


class TestBlockWalk:
    # Named for the block walk _class_images replaced; it checks what
    # _class_images builds.
    # The B's _class_images builds for one A are the very tuples the search
    # walks (bench/tracing.py tells B from AB by identity); over them the
    # walk meets the least element of every C(A)-orbit of the class, so no
    # witness is lost.
    @pytest.mark.parametrize("m", range(5, 9))
    def test_meets_every_orbit_minimum(self, m):
        rng = random.Random(m)
        classes = [p for p in partitions(m) if CycleType(p).order > 1]
        walked_total = class_total = 0
        for parts_a in classes:
            if CycleType(parts_a).order > 15:
                continue
            a = CycleType(parts_a).lex_min()
            gens = centraliser_gens(a)
            for parts_b in rng.sample(classes, 3):
                walked = whole_walk(a, [parts_b], partitions(m))
                assert walked == sorted(set(walked))
                whole = class_elements(m, parts_b)
                assert orbit_minima(whole, gens) <= set(walked), (a, parts_b)
                walked_total += len(walked)
                class_total += len(whole)
        assert walked_total < class_total / 2


def led_images(a, classes_b):
    """The oracle's B's of the listed classes whose every B[k] is in
    centraliser_leads of {0..k} and B[0..k-1], and whose every B[x] no c in
    C(A) with c[x] = 0 sends below B[0], sorted."""
    floor = centraliser_floor(a)
    return sorted(b for parts in classes_b for b in class_elements(len(a), parts)
                  if all(b[k] in centraliser_leads(a, frozenset(range(k + 1)) | frozenset(b[:k]))
                         for k in range(len(a)))
                  and all(row is None or row[v] >= b[0] for row, v in zip(floor, b)))


def product_class(a, b):
    """The parts of A*B, A applied first, descending."""
    return tuple(sorted(permgrp._cycle_lengths(tuple(b[x] for x in a)), reverse=True))


class TestClassImages:
    # _class_images builds, in lex order, exactly the led B's of the listed
    # classes whose AB is of a listed AB class; every class lets AB be any
    # permutation.
    # Asked for one root lead v as B[0], it builds that branch: the B's that
    # start with v, and the branches of the sorted root leads concatenate
    # to the whole list.
    @staticmethod
    def check_against_the_oracle(a, classes_b, lists_ab):
        led = led_images(a, classes_b)
        assert whole_walk(a, classes_b, partitions(len(a))) == led, (a, classes_b)
        roots = permgrp._frame(a)[2][1]
        for classes_ab in lists_ab:
            fits = [b for b in led if product_class(a, b) in classes_ab]
            branches = [permgrp._class_images(a, classes_b, classes_ab, v) for v in roots]
            assert [b for branch in branches for b in branch] == fits, (a, classes_b, classes_ab)
            assert all(b[0] == v for v, branch in zip(roots, branches) for b in branch)

    @staticmethod
    def lists_ab(m):
        """The AB classes of every order c < 2m that has an even type on m points."""
        return [classes for classes in (classes_of(m, c) for c in range(1, 2 * m)) if classes]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_class_pair_matches_the_oracle(self, m):
        # every A class against every B class; each pair takes one real AB list in turn
        lists_ab = self.lists_ab(m)
        pairs = itertools.product(partitions(m), repeat=2)
        for i, (parts_a, parts_b) in enumerate(pairs):
            a = CycleType(parts_a).lex_min()
            self.check_against_the_oracle(a, [parts_b], [lists_ab[i % len(lists_ab)]])

    def test_sampled_class_pairs_at_degree_8(self):
        rng = random.Random(8)
        classes = partitions(8)
        for parts_a, parts_b in [rng.sample(classes, 2) for _ in range(8)]:
            a = CycleType(parts_a).lex_min()
            self.check_against_the_oracle(a, [parts_b], rng.sample(self.lists_ab(8), 2))

    @pytest.mark.parametrize("m", range(5, 9))
    def test_sampled_class_lists_match_the_oracle(self, m):
        # lists of 2 or 3 B classes, against a real AB list and a drawn one;
        # the room of a list may admit classes that are not on it
        rng = random.Random(m)
        classes, real = partitions(m), self.lists_ab(m)
        for _ in range(6):
            a = CycleType(rng.choice(classes)).lex_min()
            classes_b = sorted(rng.sample(classes, rng.choice((2, 3))))
            self.check_against_the_oracle(a, classes_b, [rng.choice(real), rng.sample(classes, 3)])

    def test_rooms_that_admit_classes_off_the_list(self):
        # The room of [(4, 4), (2, 2, 1, 1, 1, 1)] admits (4, 2, 1, 1), which is
        # on neither list: a B, or an AB, of that class passes every check on
        # the way down, and only the check on the full B turns it away.
        two, off = [(4, 4), (2, 2, 1, 1, 1, 1)], (4, 2, 1, 1)
        a = CycleType((3, 3, 1, 1)).lex_min()
        assert led_images(a, [off])
        self.check_against_the_oracle(a, two, [two])
        classes_b = [(3, 3, 1, 1), (2, 2, 2, 2)]
        assert off in {product_class(a, b) for b in led_images(a, classes_b)}
        self.check_against_the_oracle(a, classes_b, [two])

    @pytest.mark.parametrize("m,orders,nodes", [
        (8, (4, 4, 6), 568), (9, (2, 3, 9), 123), (9, (3, 3, 6), 390), (12, (6, 7, 7), 2_849)],
        ids=["8-4,4,6", "9-2,3,9", "9-3,3,6", "12-6,7,7"])
    def test_nodes_entered_pinned(self, alarm, m, orders, nodes):
        # Each check prunes only what would fail at the end, so a check that
        # prunes too little keeps every output; only the count of backtrack
        # nodes entered (calls of the inner rec) shows it.  Without the
        # fixed-point spares Alt_9 (3,3,6) entered 1,822 and Alt_12 (6,7,7)
        # 5,347,687; before the a == b rule dropped B classes already settled
        # under the swap A <-> B, Alt_9 (3,3,6) entered 1,501.  Since the
        # walk goes one root branch at a time, a first hit stops at its
        # witness's branch (Alt_8 (4,4,6) 2,385 -> 568, Alt_12 (6,7,7)
        # 14,198 -> 2,849), and an exhaustive walk enters the root once more
        # per extra branch (Alt_9 (2,3,9) 526 -> 529, (3,3,6) 834 -> 839).
        # The floor rule, which refuses a B[k] that a c in C(A) with c[k] = 0
        # sends below B[0], cut Alt_9 (2,3,9) 529 -> 123 and (3,3,6) 839 -> 390.
        rec = next(c for c in permgrp._class_images.__code__.co_consts
                   if getattr(c, "co_name", None) == "rec")
        entered = 0

        def count(frame, event, arg):
            nonlocal entered
            entered += event == "call" and frame.f_code is rec

        sys.setprofile(count)
        try:
            find_generating_triple(m, Triple(*orders))
        finally:
            sys.setprofile(None)
        assert entered == nodes


@st.composite
def permutation_pairs(draw):
    """Two permutations of 0..m-1, m = 5..12; half the time both keep the
    points of one random block of size 1..m-1 inside it, so the pair is
    intransitive."""
    m = draw(st.integers(5, 12))
    if not draw(st.booleans()):
        return m, tuple(draw(st.permutations(range(m)))), tuple(draw(st.permutations(range(m))))
    k = draw(st.integers(1, m - 1))
    label = draw(st.permutations(range(m)))  # block {label[0..k-1]}, the rest in the other

    def block_preserving():
        on_block = draw(st.permutations(range(k))) + draw(st.permutations(range(k, m)))
        out = [0] * m
        for x in range(m):
            out[label[x]] = label[on_block[x]]
        return tuple(out)

    return m, block_preserving(), block_preserving()


class TestTransitivity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(permutation_pairs())
    def test_agrees_with_the_closure(self, pair):
        m, a, b = pair
        assert permgrp._is_transitive(a, b, m) == reaches_every_point([a, b], m)


# The lex-minimal representative of every even class at m = 2..8 but the
# identity at m = 8, whose centraliser, all of Sym_8, takes group_elements
# about 1.5 s to close; the identity at m = 2..7 takes the same code path.
EVEN_REPS = [CycleType(parts).lex_min() for m in range(2, 9)
             for parts in partitions(m) if CycleType(parts).is_even and parts != (1,) * 8]


@functools.lru_cache(maxsize=None)
def centraliser_pairs(a):
    """Each element c of C(A), closed from centraliser_gens, with its inverse."""
    return [(c, tuple(sorted(range(len(c)), key=c.__getitem__)))
            for c in sorted(group_elements(centraliser_gens(a)))]


@functools.lru_cache(maxsize=None)
def fixed_by_a_generator(a):
    """The B's that a generator of C(A) commutes with, so fixes by conjugation."""
    return sorted({b for g in centraliser_gens(a) for b in centraliser(g)})


def transitive_with(a, b):
    """B with the least points of its <A, B>-orbits l_1 < ... < l_k joined:
    what B sent to l_i goes to l_{i+1}, and what it sent to l_k to l_1.  Each
    orbit stays connected, and now leads into the next, so <A, B> is transitive."""
    leads, seen = [], set()
    for p in range(len(a)):
        if p not in seen:
            leads.append(p)
            frontier = [p]
            seen.add(p)
            while frontier:
                x = frontier.pop()
                for y in (a[x], b[x]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
    turn = dict(zip(leads, leads[1:] + leads[:1]))
    return tuple(turn.get(y, y) for y in b)


@functools.lru_cache(maxsize=None)
def symmetric_transitive(a):
    """The B's in C(A), or fixed by a generator of C(A), with <A, B> transitive:
    the B's that some element of C(A) besides 1 may fix, so starts may tie."""
    return sorted(b for b in {c for c, _ in centraliser_pairs(a)} | set(fixed_by_a_generator(a))
                  if reaches_every_point([a, b], len(a)))


class TestOrbitLeast:
    # Named for the orbit-least test it first checked; it checks _orbit_key.
    # The search calls the Sims table on the first B of each key that its
    # walk meets, which is the least of its C(A)-orbit only if the key is
    # exact: equal for two transitive B's exactly when they are C(A)-conjugate.
    @pytest.mark.parametrize("a", EVEN_REPS, ids=str)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_least_conjugate(self, a, data):
        # two B's share a key exactly when their least conjugates c^-1 B c over
        # the whole of C(A) agree, and each conjugate keeps B's key; a B at
        # random is made transitive, and one from symmetric_transitive may tie
        m, pairs = len(a), centraliser_pairs(a)
        key = functools.partial(permgrp._orbit_key, a)
        drawn = [st.permutations(range(m)).map(lambda p: transitive_with(a, tuple(p)))]
        if symmetric_transitive(a):
            drawn.append(st.sampled_from(symmetric_transitive(a)))
        b, other = data.draw(st.one_of(drawn)), data.draw(st.one_of(drawn))
        c, c_inv = data.draw(st.sampled_from(pairs))
        assert key(tuple(c[b[c_inv[x]]] for x in range(m))) == key(b)

        def least(b):
            return min(tuple(c[b[c_inv[x]]] for x in range(m)) for c, c_inv in pairs)

        assert (key(b) == key(other)) == (least(b) == least(other))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_orbit_minimum_and_nothing_else(self, m):
        # every transitive B on m points: the first B of each key, in lex
        # order, is exactly the least of each C(A)-orbit
        whole = sorted(itertools.permutations(range(m)))
        for a in EVEN_REPS:
            if len(a) == m:
                key, firsts = functools.partial(permgrp._orbit_key, a), {}
                transitive = [b for b in whole if reaches_every_point([a, b], m)]
                for b in transitive:
                    firsts.setdefault(key(b), b)
                assert set(firsts.values()) == orbit_minima(transitive, centraliser_gens(a)), a

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(permutation_pairs())
    def test_refuses_a_non_transitive_pair(self, pair):
        # a key read off one orbit could merge two C(A)-orbits, and the
        # search would skip a pair that generates
        m, a, b = pair
        key = functools.partial(permgrp._orbit_key, a)
        if reaches_every_point([a, b], m):
            assert len(key(b)) == m
        else:
            with pytest.raises(ValueError, match="not transitive"):
                key(b)


class TestTypesOfOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 60, 840])
    @pytest.mark.parametrize("m", range(1, 25))
    def test_exact_vs_dividing(self, m, n):
        exact = sorted((p for p in partitions(m) if lcm(*p) == n), reverse=True)
        listed = cycle_types_of_order(m, n)
        assert [t.parts for t in listed] == exact
        assert [t.parts for t in listed if t.is_even] == [
            p for p in exact if sum(1 for x in p if x % 2 == 0) % 2 == 0]

    def test_even_filter(self):
        evens = [t for t in cycle_types_of_order(11, 4) if t.is_even]
        assert all(t.is_even for t in evens)
        assert min(t.cycle_count for t in evens) == 5  # (4)^2(1)^3 and (4)(2)^3(1)

    def test_no_even_type(self):
        assert [t for t in cycle_types_of_order(9, 8) if t.is_even] == []  # (8)(1) is odd

    def test_flat_listing_at_the_degree_cap(self):
        # a lister recursing once per part overflows the stack from m = 990 on
        assert len(cycle_types_of_order(1026, 2)) == 513

    def test_degree_past_the_cap_is_refused(self):
        for _ in range(2):  # a refusal is not memoised
            with pytest.raises(ValueError, match="degree 1027 exceeds supported cap 1026"):
                cycle_types_of_order(permgrp.MAX_DEGREE + 1, 2)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("m,n", [(-1, 2), (5, 0), (5, -2), (0, 1)])
    def test_degree_or_order_below_1_is_refused(self, m, n, warm):
        # (-1, 2), (5, 0) and (5, -2) were listed as no types and memoised;
        # (0, 1) died building an empty CycleType
        permgrp._types_of_order.cache_clear()
        if warm:
            assert cycle_types_of_order(5, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"degree {m} and order {n} must both be at least 1"):
                cycle_types_of_order(m, n)

    def test_huge_degree_is_refused_under_a_memory_cap(self):
        # Under 1 GB of address space the coin-change table for m = 10**9 used
        # to die of MemoryError in all three entry points; the child sets the cap
        child = ("import resource\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from trisat import Triple, permgrp\n"
                 "for f in permgrp.prove_non_generation, permgrp.find_generating_triple, "
                 "permgrp.scott_min_sum:\n"
                 "    try:\n"
                 "        f(10**9, Triple(2, 3, 7))\n"
                 "    except ValueError as exc:\n"
                 "        print(exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=120, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "degree 1000000000 exceeds supported cap 1026\n" * 3


class TestTypesOfOrderMemo:
    def test_repeated_call_returns_the_same_tuple(self):
        listed = cycle_types_of_order(11, 6)
        assert isinstance(listed, tuple)
        assert cycle_types_of_order(11, 6) is listed

    def test_four_fields_against_partitions(self):
        # the listing, its even part, and the fewest cycles of an even type
        # and of any type, read off every partition of m whose lcm is n
        for m in range(1, 13):
            every = partitions(m)
            for n in range(1, 61):
                exact = [p for p in every if lcm(*p) == n]
                evens = [p for p in exact if sum(1 for x in p if x % 2 == 0) % 2 == 0]
                types, even_types, fewest_even, fewest = permgrp._types_of_order(m, n)
                assert [t.parts for t in types] == sorted(exact, reverse=True), (m, n)
                assert [t.parts for t in even_types] == sorted(evens, reverse=True), (m, n)
                assert fewest_even == min(map(len, evens), default=None), (m, n)
                assert fewest == min(map(len, exact), default=None), (m, n)

    def test_refusal_is_not_memoised(self):
        # 7,173,704 partitions: over MAX_CYCLE_TYPES on every call, not just the first
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds supported cap"):
                cycle_types_of_order(120, 60)


class TestGenerationSearch:
    def test_hinted_table_row(self):
        tr = Triple(3, 3, 7)
        hint = generating_pair_hint(9, (3, 3, 7))
        w = find_generating_triple(9, tr, shape_hint=hint)
        assert not isinstance(w, NotFound)
        assert w.shapes == hint
        assert [str(s) for s in w.shapes] == ["(3)^3", "(3)^3", "(7)(1)^2"]
        assert w.validate()

    def test_unhinted_finds_lex_minimal_witness(self):
        w = find_generating_triple(9, Triple(3, 3, 7))
        assert not isinstance(w, NotFound)
        assert w.validate()
        # the (3)(1)^6 class is excluded by Scott's bound, so A sits in (3)^2(1)^3
        assert str(w.shapes[0]) == "(3)^2(1)^3"

    def test_not_generated(self):
        assert isinstance(find_generating_triple(8, Triple(3, 3, 6)), NotFound)

    def test_scott_excluded_classes_are_never_enumerated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(permgrp, "_class_images", lambda *args: calls.append(args) or [])
        out = find_generating_triple(11, Triple(2, 4, 5))
        assert out == NotFound("exhausted all class pairs")
        assert calls == []

    def test_a_repeated_search_reads_no_cycles(self):
        # _frame, memoised per A, is the one walk of A's cycles, and the
        # orbit key reads its length table from there, so a second,
        # identical search builds no frame
        find_generating_triple(9, Triple(2, 3, 9))
        misses = permgrp._frame.cache_info().misses
        assert find_generating_triple(9, Triple(2, 3, 9)) == NotFound("exhausted all class pairs")
        assert permgrp._frame.cache_info().misses == misses

    def test_first_hit_stops_at_the_witness_slice(self, monkeypatch):
        # the one A representative keeps the one hinted B class of 123,200
        # elements: its root branch B[0] = 0 holds none, the branch B[0] = 1
        # holds 6, and the first of them is the witness, so no later branch
        # is built (the whole walk holds 54)
        built = []
        real = permgrp._class_images
        monkeypatch.setattr(permgrp, "_class_images",
                            lambda *args: built.append(out := real(*args)) or out)
        w = find_generating_triple(11, Triple(2, 3, 11), shape_hint=generating_pair_hint(11, (2, 3, 11)))
        assert w.as_dict()["A"] == [0, 1, 2, 4, 3, 6, 5, 8, 7, 10, 9]
        assert w.as_dict()["B"] == [1, 3, 4, 0, 5, 2, 7, 9, 8, 6, 10]
        assert [len(imgs) for imgs in built] == [0, 6]
        assert built[1][0] == w.gen_b

    def test_slow_first_hit_alt12_677(self, alarm):
        # B and AB are both of class (7)(1)^5, so a B needs 5 fixed points and
        # so does its AB; without counting the points that can still become
        # fixed, the backtrack visits 5,347,687 nodes (about 10 s) to build 36 B's
        w = find_generating_triple(12, Triple(6, 7, 7))
        assert w.as_dict()["A"] == [1, 2, 3, 4, 5, 0, 7, 8, 9, 10, 11, 6]
        assert w.as_dict()["B"] == [0, 1, 2, 3, 4, 6, 11, 5, 7, 8, 9, 10]
        assert [str(s) for s in w.shapes] == ["(6)^2", "(7)(1)^5", "(7)(1)^5"]

    # With (2,3,9), (3,3,6), (2,3,12) and (2,3,15) every exhaustive case of the
    # alt-nongen table is compared with the search that calls the Sims table
    # on every surviving pair.  (2,5,7), (4,5,5), (3,4,5) and (10,10,10) add
    # witnesses whose A has no fixed point.
    @pytest.mark.parametrize("orders", SEARCH_GRID_TRIPLES + (
        (4, 4, 6), (2, 3, 9), (3, 3, 6), (2, 3, 12), (2, 3, 15),
        (2, 5, 7), (4, 5, 5), (3, 4, 5), (10, 10, 10)))
    @pytest.mark.parametrize("m", [8, 9])
    def test_matches_unpruned_search(self, monkeypatch, m, orders):
        # Alt_9 (2,3,7): only the (2)^4(1) representative keeps a B class.
        # Alt_9 (3,3,4): the (3)^3 representative walks the B's of two classes.
        # Alt_8 (4,4,6): the witness is found among the B's of two classes.
        # A representative without fixed points has 0 on a longer cycle, so the
        # backtrack sets B[0] only to a point of that cycle or to the first
        # point of one cycle of each other length; ZERO_MOVED names the cases
        # where such an A reaches the transitivity filter.
        # The pairs that reach the Sims table are some of the unpruned
        # search's transitive survivors, in the same order, and they are
        # exactly the least of each C(A)-orbit of those survivors: the
        # survivors are met in lex order and an orbit either survives whole
        # or not at all, so its least element is the first one met.
        walked = set()
        real = permgrp._is_transitive
        monkeypatch.setattr(permgrp, "_is_transitive",
                            lambda a, b, m: walked.add(a) or real(a, b, m))
        sims_calls = []
        real_bsgs = permgrp._bsgs_order
        monkeypatch.setattr(permgrp, "_bsgs_order",
                            lambda gens, m: sims_calls.append(tuple(gens)) or real_bsgs(gens, m))
        tr = Triple(*orders)
        found = search_outcome(find_generating_triple(m, tr))
        assert any(a[0] != 0 for a in walked) == ((m, orders) in ZERO_MOVED)
        pruned_calls = sims_calls.copy()
        sims_calls.clear()
        assert found == search_outcome(unpruned_search(m, tr))
        unpruned = iter(sims_calls)
        assert all(call in unpruned for call in pruned_calls)  # an in-order subsequence
        # ... less the pairs of the class pairs that the a == b rule drops
        dropped = {(a, parts) for a, _, parts_b in swap_plan(m, tr) for parts in parts_b}
        minima, met = set(), set()
        for a, b in sims_calls:
            if (a, b) not in met and (a, cycle_type(b).parts) not in dropped:
                minima.add((a, b))
                met.update((a, conjugate(b, c)) for c in group_elements(centraliser_gens(a)))
        assert minima == set(pruned_calls)

    @pytest.mark.parametrize("orders,transitive,calls", [((2, 3, 9), 13, 4), ((3, 3, 6), 19, 8)],
                             ids=["9-2,3,9", "9-3,3,6"])
    def test_one_sims_table_call_per_centraliser_orbit(self, monkeypatch, orders, transitive, calls):
        # Alt_9 (2,3,9): the walk meets 13 transitive pairs, which fall into
        # 4 C(A)-orbits; only the least pair of each orbit gets a Sims-table
        # call.  Alt_9 (3,3,6) meets 19, in 8 orbits (99 in 13 before the
        # a == b rule dropped the class pairs settled under the swap, and 63
        # and 54 before the floor rule dropped the B's that a C(A)-conjugate
        # moving one of their points to 0 sends below B[0]).
        seen, accepted = [], []
        real = permgrp._bsgs_order
        monkeypatch.setattr(permgrp, "_bsgs_order", lambda gens, m: seen.append(gens) or real(gens, m))
        real_transitive = permgrp._is_transitive
        monkeypatch.setattr(permgrp, "_is_transitive",
                            lambda a, b, m: accepted.append(ok := real_transitive(a, b, m)) or ok)
        assert find_generating_triple(9, Triple(*orders)) == NotFound("exhausted all class pairs")
        assert sum(accepted) == transitive
        assert len(seen) == calls

    def test_swap_rule_drops_only_pairs_that_do_not_generate(self, monkeypatch):
        # With a == b the walks are swap_plan's, up to the witness's A, and
        # every class pair dropped on the way holds no generating pair
        calls = []
        real = permgrp._class_images
        monkeypatch.setattr(permgrp, "_class_images", lambda a, classes_b, classes_ab, first: (
            calls.append((a, classes_b, first)) or real(a, classes_b, classes_ab, first)))
        dropped = []
        for m, orders in SWAP_CASES:
            tr = Triple(*orders)
            calls.clear()
            found = find_generating_triple(m, tr)
            plan = [step for step in swap_plan(m, tr)
                    if isinstance(found, NotFound) or step[0] <= found.gen_a]
            witness = None if isinstance(found, NotFound) else (found.gen_a, found.gen_b[0])
            assert walks_by_a(calls, witness) == [(a, walked) for a, walked, _ in plan if walked], (
                m, orders)
            for a, _, parts_b in plan:
                for parts in parts_b:
                    assert unpruned_search(m, tr, only=[(a, parts)]) == NotFound(
                        "exhausted all class pairs"), (m, orders, a, parts)
                    dropped.append((m, orders, parts))
        assert len(SWAP_CASES) == 297
        assert dropped == [(9, (3, 3, 4), (3, 3, 1, 1, 1)), (9, (3, 3, 6), (3, 3, 1, 1, 1))]

    @pytest.mark.parametrize("m,orders,drops", [
        (12, (6, 6, 6), [0, 0, 1, 2, 4, 5, 6]), (13, (6, 6, 7), [0, 0, 2, 1])])
    def test_swap_rule_at_every_representative(self, monkeypatch, m, orders, drops):
        # Priced over MAX_PAIRS, so searched here with the cap lifted and
        # nothing built: every A representative is reached and asks for its
        # kept classes less the types of those before it.  The last of Alt_13
        # (6,6,7)'s four keeps only earlier types and builds no walk.
        calls = []
        monkeypatch.setattr(permgrp, "MAX_PAIRS", inf)
        monkeypatch.setattr(permgrp, "_class_images", lambda a, classes_b, classes_ab, first: (
            calls.append((a, classes_b, first)) or []))
        tr = Triple(*orders)
        assert find_generating_triple(m, tr) == NotFound("exhausted all class pairs")
        plan = swap_plan(m, tr)
        assert [len(parts_b) for _, _, parts_b in plan] == drops
        assert walks_by_a(calls, None) == [(a, walked) for a, walked, _ in plan if walked]

    def test_a_dropped_class_pair_generates_as_its_mirror_does(self):
        # The rule's premise, on the class pairs swap_plan drops at m <= 8,
        # reached by the search or not: A of type T2 and a B of type T1
        # generate exactly when the representative of T1 and a B of type T2
        # do.  All 11 generate, so the premise is tested on pairs that hold
        # a witness, where dropping a pair without one in its mirror would
        # lose it.
        exhausted = []
        for m, orders in SWAP_CASES:
            tr = Triple(*orders)
            for a, _, parts_b in swap_plan(m, tr) if m <= 8 else ():
                for parts in parts_b:
                    mirror = (CycleType(parts).lex_min(), cycle_type(a).parts)
                    none = isinstance(unpruned_search(m, tr, only=[(a, parts)]), NotFound)
                    assert none == isinstance(unpruned_search(m, tr, only=[mirror]), NotFound)
                    exhausted.append(none)
        assert exhausted == [False] * 11

    def test_no_elements_reason(self):
        out = find_generating_triple(9, Triple(2, 3, 8))  # Alt_9 has no order-8 element
        assert isinstance(out, NotFound)
        assert out.reason == "no elements of required order"

    def test_no_elements_at_large_degree(self):
        # a prime order above m has no cycle type; orders 2 and 3 on 1000
        # points are listed first, past the depth of a recursive lister
        assert find_generating_triple(1000, Triple(2, 3, 1031)) == NotFound(
            "no elements of required order")

    @pytest.mark.parametrize("gen_a,gen_b", [
        ((0, 0, 1, 2, 3), (1, 2, 3, 4, 0)),
        ((1, 2, 0, 3, 4), (1, 1, 0, 3, 4)),
        ((1, 2, 0, 3, 4), (1, 2, 3, 4, 5, 0)),
    ], ids=["A-not-a-permutation", "B-not-a-permutation", "degrees-differ"])
    def test_validate_refuses_what_is_no_pair_of_permutations(self, alarm, gen_a, gen_b):
        # (1, 1, 0, 3, 4) sends 0 and 1 to 1, and nothing to 2: read for its
        # cycles it would loop for ever
        shapes = (CycleType((3, 1, 1)),) * 2 + (CycleType((5,)),)
        assert GenerationWitness(gen_a, gen_b, (3, 3, 5), shapes).validate() is False

    def test_order_dividing_variant(self):
        strict = find_generating_triple(5, Triple(2, 5, 5))
        assert not isinstance(strict, NotFound) and strict.validate()

    def test_bad_hint_raises(self):
        odd = CycleType.parse("2.1^7")  # odd permutation
        with pytest.raises(ValueError):
            find_generating_triple(9, Triple(2, 3, 7), shape_hint=(odd, odd, odd))
        # a hint is taken as given: "7" on 9 points is not padded to 7.1^2
        short = tuple(CycleType.parse(s) for s in ("3^3", "3^3", "7"))
        with pytest.raises(ValueError, match="AB slot"):
            find_generating_triple(9, Triple(3, 3, 7), shape_hint=short)

    @pytest.mark.parametrize("texts", [("3^3", "3^3"), ("3^3", "3^3", "7.1^2", "3^3"), ()],
                             ids=["two", "four", "none"])
    def test_hint_of_other_than_three_types_is_refused(self, texts):
        # two types could not be unpacked, the fourth of four was dropped
        # unread, and an empty hint was taken for no hint
        hint = tuple(CycleType.parse(text) for text in texts)
        named = ", ".join(str(t) for t in hint)
        with pytest.raises(ValueError, match=rf"shape hint \({re.escape(named)}\) gives "
                                             rf"{len(hint)} cycle types, not one each"):
            find_generating_triple(9, Triple(3, 3, 7), shape_hint=hint)


class TestScott:
    def test_pinned_values(self):
        assert scott_min_sum(19, Triple(2, 3, 7)) == 25
        assert scott_min_sum(11, Triple(2, 4, 5)) == 14
        assert scott_min_sum(11, Triple(3, 3, 4)) == 14

    def test_existing_orders_do_not_report_no_element(self):
        val = scott_min_sum(9, Triple(2, 3, 15))  # order 15 exists as (5)(3)(1)
        assert val is not None and val <= 11

    def test_no_element(self):
        assert scott_min_sum(9, Triple(2, 3, 8)) is None

    def test_relaxation_is_a_lower_bound(self):
        # the relaxed minimum never exceeds the all-even-classes minimum
        for m, orders in [(11, (2, 4, 5)), (11, (3, 3, 4)), (19, (2, 3, 7))]:
            relaxed = scott_min_sum(m, Triple(*orders))
            strict = sum(
                min(t.cycle_count for t in cycle_types_of_order(m, n) if t.is_even)
                for n in orders
            )
            assert relaxed <= strict

    @pytest.mark.parametrize("m", range(3, 13))
    def test_against_brute_force_minimum(self, m):
        # fewest[n, even]: the fewest parts of a partition of m with lcm n,
        # and an even count of even parts if even; absent if there is none
        fewest = {}
        for p in partitions(m):
            for key in {(lcm(*p), False), (lcm(*p), sum(x % 2 == 0 for x in p) % 2 == 0)}:
                fewest[key] = min(fewest.get(key, m), len(p))
        # every order n <= 60 in the first slot, and from 3 on in a later one
        # ((2, 2, c) is never hyperbolic)
        for n in range(2, 61):
            for orders in [(n, 60, 60)] + [(2, 7, n)] * (n > 2):
                tr = Triple(*orders)
                if all((k, True) in fewest for k in tr.orders):
                    want = fewest[tr.a, True] + fewest[tr.b, False] + fewest[tr.c, False]
                else:
                    want = None
                assert scott_min_sum(m, tr) == want, (m, orders)


class TestSearchBudget:
    # Candidate pairs: the sizes of the B classes Scott's bound keeps, summed
    # over the A representatives.  The count is pinned by a cap one below it.
    # Alt_11 (2,3,11) is hinted, so only the hinted classes count.
    @pytest.mark.parametrize("m,orders,pairs", [
        (12, (3, 3, 4), 985_600), (14, (2, 3, 7), 22_422_400), (9, (2, 3, 9), 7_840),
        (11, (2, 3, 11), 123_200)])
    def test_refused_before_any_enumeration(self, monkeypatch, m, orders, pairs):
        def never(*args):
            raise AssertionError("enumerated past the budget")

        hint = generating_pair_hint(m, orders)
        monkeypatch.setattr(permgrp, "MAX_PAIRS", pairs - 1)
        for name in ("_class_images", "lex_min_of_type", "_cycle_lengths"):
            monkeypatch.setattr(permgrp, name, never)
        monkeypatch.setattr(permgrp.CycleType, "lex_min", never)  # no A representative either
        with pytest.raises(ValueError, match=f"over {pairs} candidate pairs exceeds supported cap"):
            find_generating_triple(m, Triple(*orders), shape_hint=hint)

    def test_at_the_cap_the_search_runs(self, monkeypatch):
        monkeypatch.setattr(permgrp, "MAX_PAIRS", 7_840)
        assert find_generating_triple(9, Triple(2, 3, 9)) == NotFound("exhausted all class pairs")

    def test_scott_excluded_pairs_are_free(self):
        # every B class is excluded for every A: nothing to count, nothing to walk
        assert find_generating_triple(19, Triple(2, 3, 7)) == NotFound("exhausted all class pairs")

    def test_unfinished_search_is_no_proof(self):
        with pytest.raises(ValueError, match="exceeds supported cap"):
            prove_non_generation(14, Triple(2, 3, 7))


def test_search_grid_slice():
    # the whole of tests/search_grid.py: 1,764 unhinted searches and 4
    # proofs, about 2 s.  The digest has stood since the orbit key; the
    # a == b rule, which keeps every answer and witness, cut the Sims-table
    # calls 545 -> 538.  The _class_images calls and B's built are not
    # pinned: they measure how the walk is split, not what it finds.
    assert len(GRID) + len(PROOFS) == 1768
    sha, calls, _, _ = run_grid(GRID, PROOFS)
    assert (sha, calls) == (
        "b30f386be2a58f45f326bcef84341f538c04a2d9c307bd40531e4524c90d0b6a", 538)


class TestProveNonGeneration:
    def test_scott_route(self):
        out = prove_non_generation(19, Triple(2, 3, 7))
        assert isinstance(out, NonGenerated)
        assert out.method == "scott"
        assert out.detail == {"min_sum": 25, "bound": 21}

    def test_exhaustive_route(self):
        out = prove_non_generation(9, Triple(3, 3, 5))
        assert isinstance(out, NonGenerated) and out.method == "exhaustive"

    def test_alt12_exhaustive_route(self, monkeypatch):
        # alt --m 12 --triple 3,3,4: priced at 985,600 pairs, exhausted with
        # one Sims-table call for each C(A)-orbit of its 48 transitive pairs
        # (60 pairs and 8 calls before the a == b rule)
        calls = []
        real = permgrp._bsgs_order
        monkeypatch.setattr(permgrp, "_bsgs_order", lambda gens, m: calls.append(gens) or real(gens, m))
        out = prove_non_generation(12, Triple(3, 3, 4))
        assert out == NonGenerated("exhaustive", {"reason": "exhausted all class pairs"})
        assert len(calls) == 7

    def test_refuted(self):
        out = prove_non_generation(9, Triple(3, 3, 7))
        assert isinstance(out, Refuted)
        assert out.witness.validate()

    def test_agrees_with_search(self):
        for m, orders in [(8, (3, 3, 6)), (8, (3, 3, 15)), (9, (3, 3, 9))]:
            proof = prove_non_generation(m, Triple(*orders))
            found = find_generating_triple(m, Triple(*orders))
            assert isinstance(proof, Refuted) == (not isinstance(found, NotFound))


#: Each entry point that takes a degree, called at degree m.
DEGREE_TAKERS = {
    "find_generating_triple": lambda m: find_generating_triple(m, Triple(2, 3, 7)),
    "prove_non_generation": lambda m: prove_non_generation(m, Triple(2, 3, 7)),
    "scott_min_sum": lambda m: scott_min_sum(m, Triple(2, 3, 7)),
    "cycle_types_of_order": lambda m: cycle_types_of_order(m, 7),
}


class TestDegreeIsAnInt:
    # lru_cache keys 9.0 as it keys 9, and True as 1: a degree that is not
    # an int is refused before any memo is read, so a cold memo raises no
    # TypeError, and a warm one hands it no answer
    @pytest.mark.parametrize("m", [37.0, True, "37"])  # no other test asks for degree 37
    @pytest.mark.parametrize("name", DEGREE_TAKERS)
    def test_refused_cold(self, name, m):
        with pytest.raises(ValueError, match=f"degree must be an int, got {m!r}"):
            DEGREE_TAKERS[name](m)

    @pytest.mark.parametrize("m", [9.0, 11.0, True])
    @pytest.mark.parametrize("name", DEGREE_TAKERS)
    def test_refused_after_the_int_warmed_the_memo(self, name, m):
        try:
            DEGREE_TAKERS[name](int(m))
        except ValueError:  # True as 1 is below every search's least degree
            pass
        for _ in range(2):
            with pytest.raises(ValueError, match=f"degree must be an int, got {m!r}"):
                DEGREE_TAKERS[name](m)

    def test_scott_min_sum_of_an_int_degree(self):
        # the warm case of the float: scott_min_sum(9, ...) is 11
        assert scott_min_sum(9, Triple(2, 3, 7)) == 11


class TestOrderIsAnInt:
    # the listing of cycle types is memoised per (m, n): an order that is
    # not an int is refused before the memo is read, so a cold memo raises
    # no TypeError, and a warm one, which keys 7.0 as 7, hands it no answer
    @pytest.mark.parametrize("n", [7.0, True, "7"])
    def test_refused_cold(self, n):
        permgrp._types_of_order.cache_clear()
        with pytest.raises(ValueError, match=f"order must be an int, got {re.escape(repr(n))}"):
            cycle_types_of_order(9, n)

    @pytest.mark.parametrize("n", [7.0, True])
    def test_refused_after_the_int_warmed_the_memo(self, n):
        assert cycle_types_of_order(9, int(n))
        for _ in range(2):
            with pytest.raises(ValueError, match=f"order must be an int, got {re.escape(repr(n))}"):
                cycle_types_of_order(9, n)


class TestHintIsOfCycleTypes:
    # a hint entry that is not a CycleType is refused with the slot it sits
    # in, whether or not a search has filled the set-up memos
    TEXTS = ("3^3", "3^3", "7.1^2")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("given,slot", [((0, 1, 2), "A"), ((0,), "A"), ((1,), "B"),
                                            ((2,), "AB")], ids=["all", "A", "B", "AB"])
    def test_refused_naming_the_slot(self, given, slot, warm):
        hint = [CycleType.parse(text) for text in self.TEXTS]
        if warm:
            assert not isinstance(find_generating_triple(9, Triple(3, 3, 7), tuple(hint)), NotFound)
        else:
            for memo in (permgrp._frame, permgrp._room, permgrp._types_of_order):
                memo.cache_clear()
        for i in given:
            hint[i] = self.TEXTS[i]
        text = self.TEXTS[given[0]]
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"shape hint '{re.escape(text)}' for the "
                                                 rf"{slot} slot is not a CycleType"):
                find_generating_triple(9, Triple(3, 3, 7), shape_hint=tuple(hint))
