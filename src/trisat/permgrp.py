"""Exact permutation-group machinery on {0, ..., m-1}.

Covers what the alternating-group saturation method needs: cycle types and
their conjugacy classes, deterministic class enumeration, exact group order
via a Sims table, search for generating pairs of prescribed orders in
Alt_m, and non-generation proofs (Scott's cycle-count bound, else
exhaustion over class pairs).  The search enumerates each B class slice
by slice on B[0], in lexicographic order, and stops at the first witness,
so a hit builds only the slices up to its own.  For each A it walks only
the B whose every point B[k] is the least of its orbit under the pointwise
stabiliser of 0..k and B[0..k-1] in the centraliser C(A) of A, block by
block, and it settles each C(A)-orbit of B with one Sims-table call.
Neither step changes a witness or an answer: the first cuts the pairs
walked, the second the calls to _bsgs_order.  find_generating_triple
states both with the cheaper filters.  One process enumerates each class
slice once, up to MAX_PAIRS image tuples: the lists are shared and
read-only, and stay held until that memo empties or the process exits.

Composition convention: (p * q) applies p first, then q, so
(p * q).images[x] == q.images[p.images[x]].  Cycle types, element orders
and the conjugacy class of a product are unaffected by this choice.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial

from . import rootsys
from .weil import Triple


@dataclass(frozen=True, slots=True)
class Permutation:
    """Immutable permutation of {0..m-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def from_cycles(cls, m: int, cycles) -> "Permutation":
        images = list(range(m))
        for cyc in cycles:
            for u, v in zip(cyc, cyc[1:]):
                images[u] = v
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other; a generator, not itemgetter, which
        # returns a scalar on one point
        q = other.images
        return Permutation(tuple(q[i] for i in self.images))


# Image-tuple kernel: _inv for the Sims table and the orbit step,
# _cycle_lengths for cycle_type and the search.


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _cycle_lengths(images) -> list[int]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        n = 1
        seen[start] = True
        x = images[start]
        while x != start:
            seen[x] = True
            n += 1
            x = images[x]
        lengths.append(n)
    return lengths


#: Hard cap so that accidental huge degrees fail fast instead of allocating:
#: the largest degree whose B/D target (B_r at m = 2r + 2) rootsys accepts.
MAX_DEGREE = 2 * rootsys.MAX_RANK + 2

_SHAPE_TERM = re.compile(r"^([1-9]\d*)(?:\^([1-9]\d*))?$")
_SHAPE_PRETTY = re.compile(r"\(([1-9]\d*)\)(?:\^([1-9]\d*))?")
_SHAPE_PRETTY_WHOLE = re.compile(r"(?:\s*\([1-9]\d*\)(?:\^[1-9]\d*)?)+")


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths (fixed points included), stored descending."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"cycle lengths must be positive integers: {self.parts}")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse "3^3.1^2" (dot-separated) or the pretty form "(3)^3(1)^2"."""
        text = text.strip()
        if "(" in text:
            if not _SHAPE_PRETTY_WHOLE.fullmatch(text):
                raise ValueError(f"cannot parse cycle type {text!r}")
            matches = _SHAPE_PRETTY.findall(text)
        else:
            matches = []
            for term in re.split(r"[.\s]+", text):
                if not term:
                    continue
                m = _SHAPE_TERM.match(term)
                if not m:
                    raise ValueError(f"cannot parse cycle type term {term!r}")
                matches.append(m.groups())
        terms = [(int(length), int(mult or 1)) for length, mult in matches]
        if sum(length * mult for length, mult in terms) > MAX_DEGREE:
            raise ValueError(f"cycle type {text!r} exceeds supported degree cap {MAX_DEGREE}")
        parts = [length for length, mult in terms for _ in range(mult)]
        if not parts:
            raise ValueError(f"empty cycle type {text!r}")
        return cls(tuple(parts))

    @property
    def m(self) -> int:
        return sum(self.parts)

    @property
    def order(self) -> int:
        return reduce(math.lcm, self.parts, 1)

    @property
    def cycle_count(self) -> int:
        return len(self.parts)

    @property
    def is_even(self) -> bool:
        return sum(1 for p in self.parts if p % 2 == 0) % 2 == 0

    def check_slot(self, m: int, n: int, slot: str) -> None:
        """Raise ValueError naming ``slot`` unless this is a class of Alt_m of exact order n."""
        where = f"shape {self} for the {slot} slot"
        if self.m != m:
            raise ValueError(f"{where} has degree {self.m}, expected {m}")
        if self.order != n:
            raise ValueError(f"{where} has order {self.order}, expected {n}")
        if not self.is_even:
            raise ValueError(f"{where} is not even, so not a class of Alt_{m}")

    def class_size(self) -> int:
        """Size of the Sym_m conjugacy class: m! / prod(b^k_b * k_b!)."""
        denom = 1
        for length, k in Counter(self.parts).items():
            denom *= length**k * factorial(k)
        return factorial(self.m) // denom

    def padded(self, m: int) -> "CycleType":
        """Pad with fixed points up to degree m."""
        if m > MAX_DEGREE:
            raise ValueError(f"degree {m} exceeds supported cap {MAX_DEGREE}")
        if self.m > m:
            raise ValueError(f"cycle type {self} exceeds degree {m}")
        return CycleType(self.parts + (1,) * (m - self.m))

    def __str__(self) -> str:
        # parts are stored descending, so the Counter lists them in that order
        return "".join(f"({length})" + (f"^{k}" if k > 1 else "")
                       for length, k in Counter(self.parts).items())


def cycle_type(p: Permutation) -> CycleType:
    return CycleType(tuple(_cycle_lengths(p.images)))


#: Most partitions of m into divisors of n that cycle_types_of_order walks.
#: Tables (to --sample-c 1000), bench workloads and tests walk at most 53
#: (m = 11, order 840); m = 120, order 60 has 7,173,704.
MAX_CYCLE_TYPES = 10_000


@lru_cache(maxsize=None)
def cycle_types_of_order(m: int, n: int) -> tuple[CycleType, ...]:
    """All cycle types on m points whose element order is exactly n.

    Sorted by parts tuple, largest first; CycleType.is_even picks out the
    even ones.  The partitions of m into divisors of n are counted first
    (coin change); more than MAX_CYCLE_TYPES is refused with ValueError.
    The listing is flat: the parts above 1 grow divisor by divisor, largest
    divisor and multiplicity first, and fixed points fill the rest.  Each
    head padded with fixed points is a partition of m, so the count bounds
    every step.  The listing is memoised per (m, n) and returned as a tuple,
    so callers share it and cannot mutate it; a refusal is not memoised, so
    every call over the cap raises again.
    """
    divisors = [d for d in range(1, min(m, n) + 1) if n % d == 0]
    ways = [1] + [0] * m
    for d in divisors:
        for i in range(d, m + 1):
            ways[i] += ways[i - d]
    if ways[m] > MAX_CYCLE_TYPES:
        raise ValueError(f"listing {ways[m]} partitions of {m} into divisors of {n} "
                         f"exceeds supported cap {MAX_CYCLE_TYPES}")
    heads: list[tuple[int, ...]] = [()]
    for d in reversed(divisors[1:]):
        heads = [h + (d,) * k for h in heads for k in range((m - sum(h)) // d, -1, -1)]
    return tuple(CycleType(h + (1,) * (m - sum(h))) for h in heads if reduce(math.lcm, h, 1) == n)


def lex_min_of_type(ct: CycleType) -> Permutation:
    """The lexicographically smallest (by image tuple) permutation of type ct.

    Cycles are laid on consecutive blocks of points in increasing length
    order; each cycle maps its block cyclically upward.  Shorter cycles
    first is forced: closing a cycle writes the block's smallest point,
    which beats any continuation.
    """
    lengths = sorted(ct.parts)
    starts = itertools.accumulate(lengths, initial=0)
    return Permutation.from_cycles(ct.m, [range(s, s + n) for s, n in zip(starts, lengths)])


#: The class slices built so far in this process, by (m, parts, first).
_SLICE_MEMO: dict[tuple[int, tuple[int, ...], int], list[tuple[int, ...]]] = {}


def _class_images(m: int, parts: tuple[int, ...], first: int) -> list[tuple[int, ...]]:
    """The image tuples of cycle type `parts` on m points that send 0 to `first`, sorted.

    One slice of the class: the slices for first = 0, 1, ..., m-1 partition
    it, and every tuple of a slice sorts before every tuple of the next, so
    the generation search enumerates a B class slice by slice on B[0] and
    builds none past the slice of its first witness.
    Point 0 leads the recursion: it is fixed when first == 0, else it opens
    a cycle whose next point is `first`.  Each later cycle is led by the
    smallest point left that is not fixed.  Neither fixed points nor the
    last cycle cost a recursion level: `images` is the identity on every
    point off the cycles laid so far (each branch resets its arm points),
    so the last cycle's arm loop emits `images` as it writes each arm.
    A process builds each slice once: later calls get the same list from
    _SLICE_MEMO, so no caller may mutate it.  The memo empties before it would
    hold more than MAX_PAIRS tuples; until then, or until the process exits,
    it keeps what a large search built.
    """
    key = (m, parts, first)
    if key in _SLICE_MEMO:
        return _SLICE_MEMO[key]
    counts = Counter(parts)
    fixed = counts.pop(1, 0)
    lengths = sorted(counts)
    out: list[tuple[int, ...]] = []
    images = list(range(m))

    def rec(points: tuple[int, ...], fixed: int, left: int):
        # lay `left` cycles longer than 1 and `fixed` fixed points on `points`
        if not left:
            out.append(tuple(images))
            return
        for i in range(fixed + 1):  # points[:i] stay fixed, points[i] leads
            leader, rest = points[i], points[i + 1:]
            for length in lengths:
                if counts[length]:
                    counts[length] -= 1
                    close(leader, itertools.permutations(rest, length - 1), rest, fixed - i, left - 1)
                    counts[length] += 1

    def close(leader: int, arms, rest: tuple[int, ...], fixed: int, left: int):
        # each arm closes the cycle (leader, *arm); `left` cycles longer than 1
        # and `fixed` fixed points take the rest of `rest`
        covers = not (fixed or left)  # the last cycle, on every point left
        for arm in arms:
            images[leader] = arm[0]
            for i in range(len(arm) - 1):
                images[arm[i]] = arm[i + 1]
            images[arm[-1]] = leader
            if left:
                armset = set(arm)
                rec(tuple(p for p in rest if p not in armset), fixed, left)
            else:
                out.append(tuple(images))
                if covers:
                    continue  # the next arm writes every point of `rest` again
            for x in arm:
                images[x] = x
        images[leader] = leader
        if covers:  # the last arm is still written
            for x in rest:
                images[x] = x

    # point 0 leads: a fixed point when first == 0, else on the cycle (0, first, *tail)
    left = sum(counts.values())
    if first == 0:
        if fixed:
            rec(tuple(range(1, m)), fixed - 1, left)
    else:
        rest = tuple(range(1, m))
        others = tuple(p for p in rest if p != first)
        for length in lengths:
            counts[length] -= 1
            arms = ((first,) + tail for tail in itertools.permutations(others, length - 2))
            close(0, arms, rest, fixed, left - 1)
            counts[length] += 1
    del rec, close  # they refer to each other; empty those cells so `out` is freed by refcount
    out.sort()
    if sum(map(len, _SLICE_MEMO.values())) + len(out) > MAX_PAIRS:
        _SLICE_MEMO.clear()
    if len(out) <= MAX_PAIRS:
        _SLICE_MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Sims table (Knuth, Combinatorica 11 (1991) 33-43), base 0..m-1


def _bsgs_order(gens: list[tuple[int, ...]], m: int) -> int:
    """Order of the group generated by the image tuples ``gens`` on m points.

    Beside each coset representative reps[k][j] the table keeps its inverse
    invs[k][j], computed once when the representative enters, so a sift
    step never inverts.  Every product is one itemgetter gather:
    g * u^-1 is itemgetter(*g)(u^-1), u * g is itemgetter(*u)(g).  A product
    is formed only once g moves a point, so m >= 2 and the gather is a tuple.
    """
    ident = tuple(range(m))
    reps = [{k: ident} for k in range(m)]  # reps[k][j] fixes 0..k-1 and sends k to j
    invs = [{k: ident} for k in range(m)]  # invs[k][j] is the inverse of reps[k][j]
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(m)]

    # Every strong generator added below level k lies in <strong[k]>, and
    # R_{m-1}...R_k is closed under right multiplication by strong[k], so
    # that product set is <strong[k]> and the order is prod |R_k|.
    def add(k, g):
        for i in range(k, m):
            if g[i] != i:
                v = invs[i].get(g[i])
                if v is None:
                    break
                g = operator.itemgetter(*g)(v)
        else:
            return  # g sifted to the identity: already a member
        strong[k].append(g)
        for u in list(reps[k].values()):
            close(k, operator.itemgetter(*u)(g))

    def close(k, g):
        v = invs[k].get(g[k])
        if v is None:
            reps[k][g[k]] = g
            invs[k][g[k]] = _inv(g)
            for s in strong[k]:
                close(k, operator.itemgetter(*g)(s))
        else:
            add(k + 1, operator.itemgetter(*g)(v))

    for g in gens:
        add(0, g)
    del add, close  # they refer to each other; empty those cells so `reps` is freed by refcount
    return math.prod(len(r) for r in reps)


def group_order(gens) -> int:
    """Exact order of the permutation group generated by ``gens``."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    m = gens[0].degree
    if any(g.degree != m for g in gens):
        raise ValueError("generators act on different degrees")
    return _bsgs_order([g.images for g in gens], m)


def _cycles(a) -> list[list[int]]:
    """The cycles of the image tuple ``a``, fixed points included, each read
    along a from its least point, in the order of that point."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = a[x]
        cycles.append(cyc)
    return cycles


def _centraliser_gens(a) -> list[tuple[int, ...]]:
    """Generators of the centraliser of the image tuple ``a`` in Sym_m.

    For each cycle length l of a, with k cycles of that length: the rotation
    of the first of them (l > 1), the swap of the first two (k > 1) and the
    cyclic shift of all k (k > 2), each matching the points of the cycles
    along a.  Together they generate prod_l C_l wr Sym_k, the whole
    centraliser (Dixon-Mortimer, Permutation Groups, 1996, section 1.6).
    """
    m = len(a)
    cycles_of: dict[int, list[list[int]]] = {}
    for cyc in _cycles(a):
        cycles_of.setdefault(len(cyc), []).append(cyc)
    gens = []
    for length, cycles in cycles_of.items():
        # each move sends the points of cycles[i] to those of targets[i]
        moves = []
        if length > 1:
            moves.append([cycles[0][1:] + cycles[0][:1]])  # rotate the first
        if len(cycles) > 1:
            moves.append(cycles[1::-1])  # swap the first two
        if len(cycles) > 2:
            moves.append(cycles[1:] + cycles[:1])  # shift all k
        for targets in moves:
            g = list(range(m))
            for cyc, target in zip(cycles, targets):
                for x, y in zip(cyc, target):
                    g[x] = y
            gens.append(tuple(g))
    return gens


def _leads(cycles, fixed) -> set[int]:
    """The least point of each orbit of the pointwise stabiliser of ``fixed`` in C(A).

    ``cycles`` are A's, read by _cycles.  That stabiliser fixes each point of
    a cycle that meets ``fixed``, and moves the other cycles of each length
    onto one another, rotated freely: one orbit per length, led by the first
    point of its first cycle.
    """
    leads: set[int] = set()
    firsts: dict[int, int] = {}
    for cyc in cycles:
        if fixed.isdisjoint(cyc):
            firsts.setdefault(len(cyc), cyc[0])
        else:
            leads.update(cyc)
    return leads.union(firsts.values())


def _block_walk(images, cycles):
    """The tuples of the sorted slice ``images`` that pass the C(A) rule at every position.

    The tuples with one prefix B[0..k-1] form one block, found by bisection.
    Inside it, the block with B[k] = v is walked only if v is in _leads of
    F = {0..k} and B[0..k-1].  Once every orbit is a single point, no block
    below is skipped, so the block is handed out whole.
    """
    if not images:
        return iter(())
    m = len(images[0])

    def blocks(lo, hi, k, fixed):
        leads = _leads(cycles, fixed)
        if len(leads) == m:
            yield images[lo:hi]
            return
        prefix = images[lo][:k]
        for v in sorted(leads):
            start = bisect.bisect_left(images, prefix + (v,), lo, hi)
            end = bisect.bisect_left(images, prefix + (v + 1,), start, hi)
            if start < end:
                yield from blocks(start, end, k + 1, fixed | {k + 1, v})

    return itertools.chain.from_iterable(blocks(0, len(images), 1, {0, 1, images[0][0]}))


def _conjugacy_orbit(b, gens) -> set[tuple[int, ...]]:
    """All c^-1 b c for c in the group generated by ``gens`` (BFS), on m >= 5 points.

    c^-1 p c sends c[x] to c[p[x]]: c gathered by p, then by c^-1, two C-level
    itemgetter calls (on one point itemgetter would return a scalar).
    """
    moves = [(c, operator.itemgetter(*_inv(c))) for c in gens]
    orbit = {b}
    frontier = [b]
    while frontier:
        p = frontier.pop()
        by_p = operator.itemgetter(*p)
        for c, by_cinv in moves:
            q = by_cinv(by_p(c))
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit


def _is_transitive(imgs_a, imgs_b, m: int) -> bool:
    # `reached` grows while it is walked: every point reached from 0 is read once
    seen = [False] * m
    seen[0] = True
    reached = [0]
    for x in reached:
        y = imgs_a[x]
        if not seen[y]:
            seen[y] = True
            reached.append(y)
        y = imgs_b[x]
        if not seen[y]:
            seen[y] = True
            reached.append(y)
    return len(reached) == m


# ---------------------------------------------------------------------------
# Generation search in Alt_m


#: Most candidate (A representative, B) pairs a search may walk, counted from
#: class sizes before anything is enumerated.  It prices whole classes, though
#: the walk skips slices and blocks and a first hit stops at its witness.
#: Alt_12 (3,3,4), priced at 985,600, builds 291,200 B's and walks 8,240 in
#: about 0.67 s CPU with a 59 MB peak (median of 8 fresh processes on a
#: 2-vCPU Xeon VM);
#: Alt_14 (2,3,7), at 22,422,400, ran out of 1 GB of memory when every slice
#: was walked.  It also bounds the image tuples _class_images keeps.
MAX_PAIRS = 1_000_000


@dataclass(frozen=True)
class GenerationWitness:
    """A pair (A, B) in Alt_m with |A| = a, |B| = b, |AB| = c and <A,B> = Alt_m."""

    gen_a: Permutation
    gen_b: Permutation
    orders: tuple[int, int, int]
    shapes: tuple[CycleType, CycleType, CycleType]

    def validate(self) -> bool:
        slots = zip((self.gen_a, self.gen_b, self.gen_a * self.gen_b), self.shapes, self.orders)
        return (
            all(cycle_type(g) == shape and shape.order == n for g, shape, n in slots)
            and group_order([self.gen_a, self.gen_b]) == factorial(self.gen_a.degree) // 2
        )

    def as_dict(self) -> dict:
        return {
            "A": list(self.gen_a.images),
            "B": list(self.gen_b.images),
            "orders": list(self.orders),
            "shapes": [str(s) for s in self.shapes],
        }


@dataclass(frozen=True)
class NotFound:
    """Negative search result, with the reason exhaustion stopped."""

    reason: str


def _even_types(m, n, hint, slot):
    """The even types of order n, or just the shape hint if CycleType.check_slot takes it."""
    if hint is None:
        return [t for t in cycle_types_of_order(m, n) if t.is_even]
    hint.check_slot(m, n, slot)
    return [hint]


def find_generating_triple(
    m: int,
    tr: Triple,
    shape_hint: tuple[CycleType, CycleType, CycleType] | None = None,
) -> GenerationWitness | NotFound:
    """Search Alt_m for A, B with |A| = a, |B| = b, |AB| = c and <A,B> = Alt_m.

    A ranges over one representative per even class of order a (the
    lexicographically minimal element; up to simultaneous conjugation one
    representative suffices).  B ranges over the elements of the even
    classes of order b, in lexicographic order, so the first validated hit
    is the lexicographically minimal witness; the walk stops there.  A
    shape_hint pins the three classes to search.  One plan, made before
    anything is enumerated, keeps for each A type the B classes within
    Scott's room: with A's cycle count and the fewest cycles of an allowed
    AB class, at most m + 2.  It prices the search (more than MAX_PAIRS
    candidate pairs is refused with ValueError) and then drives the walk.
    The filters, cheapest first:

    - a B is walked only if each B[k] is the least point of its orbit
      under the pointwise stabiliser of F = {0..k} and B[0..k-1] in C(A),
      the centraliser of A in Sym_m (_leads reads these points off A's
      cycles; at k = 0 they pick the B[0] slices, and _block_walk the
      blocks below).  Exact: if c fixes F, commutes with A and sends
      B[k] = v below v, then c^-1 B c agrees with B before k, has c[v] at
      k, so sorts before B, and keeps A, the classes of B and AB,
      transitivity and the order of <A, B>.  So the least B of each
      C(A)-orbit is walked, first of its orbit, and the witness with it;
    - a B class outside the plan for A is never enumerated for it; the
      others are enumerated slice by slice on B[0], each slice when the
      walk first reaches it (later A representatives reuse it), so a hit
      leaves the slices past its own unbuilt; the slice of a single kept
      class is walked directly, those of two or more are merged;
    - a pair whose product AB (one itemgetter gather, a fresh tuple) has
      a cycle count that no allowed AB class has is skipped before its
      lengths are sorted, and then one whose sorted lengths are not an
      allowed AB class (the wrong order or class);
    - a pair whose own cycle counts exceed Scott's bound is skipped;
    - a pair with <A, B> not transitive is skipped;
    - a pair whose B is conjugate, under the centraliser C(A) of A in
      Sym_m, to a B already shown not to generate is skipped: c^-1 B c
      keeps A, the classes of B and AB, transitivity and the order of
      <A, B> (Alt_m is normal in Sym_m), so one Sims-table call settles a
      whole C(A)-orbit;
    - the survivors are settled by the exact group order from the Sims table.

    Only B's known not to generate are skipped, so the walk order and the
    first witness are those of the search without the orbit step; `known`
    holds the conjugates in walked slices, those in skipped blocks unmet.
    Each walked pair calls _cycle_lengths on AB, then on B if AB passes,
    _is_transitive if Scott's test passes, and _bsgs_order if <A, B> is
    transitive and B not known: bench/tracing.py reads the funnel off
    these calls.
    """
    if m < 5:
        raise ValueError("need m >= 5")
    types_a, types_b, types_c = [
        _even_types(m, n, hint, slot)
        for n, hint, slot in zip(tr.orders, shape_hint or (None,) * 3, ("A", "B", "AB"))]
    if not (types_a and types_b and types_c):
        return NotFound("no elements of required order")

    target = factorial(m) // 2
    allowed_c = {t.parts for t in types_c}
    counts_c = {len(parts) for parts in allowed_c}
    scott_cap = m + 2
    min_count_c = min(counts_c)
    # every allowed product has at least min_count_c cycles, so a B class
    # over this cap would fail the per-pair Scott test below for every B
    kept = {ta: [tb for tb in types_b if ta.cycle_count + tb.cycle_count + min_count_c <= scott_cap]
            for ta in types_a}
    pairs = sum(tb.class_size() for tbs in kept.values() for tb in tbs)
    if pairs > MAX_PAIRS:
        raise ValueError(f"Alt_{m} {tr} search over {pairs} candidate pairs "
                         f"exceeds supported cap {MAX_PAIRS}")
    # B class slices enumerated so far, by (type, B[0]); later A representatives reuse them
    slices: dict[tuple[CycleType, int], list[tuple[int, ...]]] = {}

    reps = {lex_min_of_type(ta).images: ta for ta in types_a}
    for a_img, ta in sorted(reps.items()):  # images differ, so types are never compared
        centraliser = _centraliser_gens(a_img)
        cycles = _cycles(a_img)
        leads = _leads(cycles, {0})
        times_a = operator.itemgetter(*a_img)  # times_a(b) is the product A*B, a fresh tuple
        known: set[tuple[int, ...]] = set()  # non-generating B not walked yet
        # every B with B[0] = v sorts before every B with B[0] = v + 1
        for first in sorted(leads):
            for tb in kept[ta]:
                if (tb, first) not in slices:
                    slices[tb, first] = _class_images(m, tb.parts, first)
            walk = [_block_walk(slices[tb, first], cycles) for tb in kept[ta]]
            for b_img in walk[0] if len(walk) == 1 else heapq.merge(*walk):
                lengths = _cycle_lengths(times_a(b_img))
                if len(lengths) not in counts_c:
                    continue
                lengths.sort(reverse=True)  # a fresh list
                parts = tuple(lengths)
                if parts not in allowed_c:
                    continue
                if ta.cycle_count + len(_cycle_lengths(b_img)) + len(parts) > scott_cap:
                    continue
                if not _is_transitive(a_img, b_img, m):
                    continue
                if b_img in known:
                    known.remove(b_img)  # the walk meets each B once
                    continue
                if _bsgs_order([a_img, b_img], m) == target:
                    ga, gb = Permutation(a_img), Permutation(b_img)
                    return GenerationWitness(
                        ga, gb, tr.orders, (cycle_type(ga), cycle_type(gb), CycleType(parts))
                    )
                # B's earlier conjugates would have put B in `known`: the rest lie
                # ahead, and of those in a walked slice the ones in a skipped block
                # stay in `known` unmet
                known.update(q for q in _conjugacy_orbit(b_img, centraliser) if q[0] in leads)
                known.remove(b_img)
    return NotFound("exhausted all class pairs")


def scott_min_sum(m: int, tr: Triple) -> int | None:
    """Lower bound for the total cycle count of any (a, b, c) triple in Alt_m.

    Scott's bound: permutations h1, h2, h3 with h1 h2 h3 = 1 generating a
    transitive group on m points have cycle counts summing to at most m + 2.
    The first term minimizes over even classes of order exactly a (the
    classes the generation search draws A from); the other two terms relax
    to all Sym_m classes of the exact order, so the result is a lower bound
    for the constrained minimum and still proves non-generation whenever it
    exceeds m + 2.  Returns None when some order has no even cycle type at
    all, i.e. Alt_m has no element of that order.

    The parity condition (count sum congruent to m mod 2) needs no separate
    check for class triples inside Alt_m: an even permutation on m points
    always has cycle count congruent to m mod 2.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    listed = [cycle_types_of_order(m, n) for n in tr.orders]
    evens = [[t.cycle_count for t in types if t.is_even] for types in listed]
    if not all(evens):
        return None
    return min(evens[0]) + sum(min(t.cycle_count for t in types) for types in listed[1:])


@dataclass(frozen=True)
class NonGenerated:
    """Proof that Alt_m is not (a, b, c)-generated, with the route taken."""

    method: str  # "scott" | "no-elements" | "exhaustive"
    detail: dict

    def as_dict(self) -> dict:
        return {"result": "NonGenerated", "method": self.method, **self.detail}


@dataclass(frozen=True)
class Refuted:
    """Non-generation refuted: a generating witness exists."""

    witness: GenerationWitness

    def as_dict(self) -> dict:
        return {"result": "Refuted", "witness": self.witness.as_dict()}


def prove_non_generation(m: int, tr: Triple) -> NonGenerated | Refuted:
    """Prove Alt_m is not (a, b, c)-generated, or refute with a witness.

    Tries the cheap routes first: no even cycle type of some required
    order, then Scott's bound; otherwise falls back to the exhaustive class
    search of find_generating_triple, whose ValueError above MAX_PAIRS
    passes through: an unfinished search proves nothing.
    """
    if m < 5:
        raise ValueError("need m >= 5")
    bound = scott_min_sum(m, tr)
    if bound is None:
        return NonGenerated("no-elements", {"reason": "some order has no even cycle type"})
    if bound > m + 2:
        return NonGenerated("scott", {"min_sum": bound, "bound": m + 2})
    found = find_generating_triple(m, tr)
    if isinstance(found, NotFound):
        return NonGenerated("exhaustive", {"reason": found.reason})
    return Refuted(found)
