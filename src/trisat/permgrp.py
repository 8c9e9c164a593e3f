"""Exact permutation-group machinery on {0, ..., m-1}.

Covers what the alternating-group saturation method needs: cycle types and
their conjugacy classes, exact group order via a Sims table (which a
witness's validation skips when Jordan's theorem settles it), search for
generating pairs of prescribed orders in Alt_m, and non-generation proofs
(Scott's cycle-count bound, else exhaustion over class pairs).  For each A
the search builds, by one backtrack in lexicographic order, only the B's
of a kept class that keep the C(A) and floor rules (C(A) the centraliser of
A in Sym_m) and whose product AB is of an allowed class.
find_generating_triple states the rules, why they change no witness or
answer, and the cheaper filters.  A walked pair that passes them gets a
Sims-table call only if B is the first of its C(A)-orbit in the walk.
When a = b an A representative walks no B class that is the type of a
representative walked before it: the swap (A, B) -> (B, A) settled that
class pair then.  The walk of each A goes one root branch (one value of
B[0]) at a time, so a first hit builds no branch after its witness's.  A
search keeps one orbit key per C(A)-orbit met in the walk of the current
A.  What lasts from one search to the next is set-up, kept per process:
what each A representative gives the backtrack and the orbit key
(_frame), each class list's room (_room) and, per degree and order, the
cycle types, their even part and their fewest cycles (_types_of_order),
never a B.

A permutation of {0..m-1} is its image tuple p, p[x] the image of x.
The product pq applies p first, then q, so pq[x] == q[p[x]]: one gather,
tuple(q[x] for x in p).  Cycle types, element orders and the conjugacy
class of a product are unaffected by this choice.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial

from . import rootsys
from .weil import Triple


# Image-tuple kernel: _cycle_lengths for cycle_type and the search.  The
# Sims table keeps its own byte strings.


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

# [0-9], not \d: \d matches any Unicode digit, and int() reads them all
_SHAPE_TERM = re.compile(r"^([1-9][0-9]*)(?:\^([1-9][0-9]*))?$")
_SHAPE_PRETTY = re.compile(r"\(([1-9][0-9]*)\)(?:\^([1-9][0-9]*))?")
_SHAPE_PRETTY_WHOLE = re.compile(r"(?:\s*\([1-9][0-9]*\)(?:\^[1-9][0-9]*)?)+")


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths (fixed points included), stored descending."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(type(p) is not int or p < 1 for p in self.parts):
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
            # a dot may have whitespace on either side, but not an empty term
            terms = re.split(r"\s*\.\s*|\s+", text) if text else []
            if "" in terms:
                raise ValueError(f"cannot parse cycle type {text!r}")
            matches = []
            for term in terms:
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
        if self.m != m:
            fault = f"has degree {self.m}, expected {m}"
        elif self.order != n:
            fault = f"has order {self.order}, expected {n}"
        elif not self.is_even:
            fault = f"is not even, so not a class of Alt_{m}"
        else:
            return  # the str(self) of the message is built only on a refusal
        raise ValueError(f"shape {self} for the {slot} slot {fault}")

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

    def lex_min(self) -> tuple[int, ...]:
        """The lexicographically least image tuple of this type.

        Cycles are laid on consecutive blocks of points in increasing length
        order; each cycle maps its block cyclically upward.  Shorter cycles
        first is forced: closing a cycle writes the block's smallest point,
        which beats any continuation.
        """
        images: list[int] = []
        for n in sorted(self.parts):
            start = len(images)
            images += range(start + 1, start + n)
            images.append(start)
        return tuple(images)

    def __str__(self) -> str:
        # parts are stored descending, so the Counter lists them in that order
        return "".join(f"({length})" + (f"^{k}" if k > 1 else "")
                       for length, k in Counter(self.parts).items())


def cycle_type(p: tuple[int, ...]) -> CycleType:
    """The cycle type of the image tuple ``p``; ValueError unless p is a
    permutation of 0..m-1, on which alone _cycle_lengths ends."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {tuple(p)}")
    return CycleType(tuple(_cycle_lengths(p)))


#: Most partitions of m into divisors of n that cycle_types_of_order walks.
#: Tables (to --sample-c 1000), bench workloads and tests walk at most 53
#: (m = 11, order 840); m = 120, order 60 has 7,173,704.
MAX_CYCLE_TYPES = 10_000


def _require_int(value, what: str) -> None:
    """Refuse a ``what`` (a degree, an order) that is not an int, before any
    memo reads it: lru_cache keys 9.0 as it keys 9, and True as 1."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


def cycle_types_of_order(m: int, n: int) -> tuple[CycleType, ...]:
    """All cycle types on m points whose element order is exactly n.

    Sorted by parts tuple, largest first; CycleType.is_even picks out the
    even ones.  The partitions of m into divisors of n are counted first
    (coin change); more than MAX_CYCLE_TYPES is refused with ValueError,
    and so are m over MAX_DEGREE and an m or n below 1, before the count's
    table is allocated.
    The listing is flat: the parts above 1 grow divisor by divisor, largest
    divisor and multiplicity first, and fixed points fill the rest.  Each
    head padded with fixed points is a partition of m, so the count bounds
    every step.  The listing is memoised per (m, n) and returned as a tuple,
    so callers share it and cannot mutate it; a refusal, and a degree or an
    order that is not an int, is not memoised, so every such call raises again.
    """
    _require_int(m, "degree")
    _require_int(n, "order")
    return _types_of_order(m, n)[0]


@lru_cache(maxsize=None)
def _types_of_order(m: int, n: int):
    """The listing of cycle_types_of_order(m, n), its even types, and the
    fewest cycles of an even type and of any type (None where there is no
    such type), memoised per (m, n): the search reads the even types, Scott's
    bound the counts.  Its refusals raise in the body, so none is memoised."""
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds supported cap {MAX_DEGREE}")
    if m < 1 or n < 1:
        raise ValueError(f"degree {m} and order {n} must both be at least 1")
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
    types = tuple(CycleType(h + (1,) * (m - sum(h))) for h in heads if reduce(math.lcm, h, 1) == n)
    evens = tuple(t for t in types if t.is_even)
    return (types, evens, min((t.cycle_count for t in evens), default=None),
            min((t.cycle_count for t in types), default=None))


def lex_min_of_type(ct: CycleType) -> tuple[int, ...]:
    """ct.lex_min(), kept only because bench/tracing.TARGETS names it;
    ROADMAP item 1 removes it together with the tracer's hook on it."""
    return ct.lex_min()


# ---------------------------------------------------------------------------
# Sims table (Knuth, Combinatorica 11 (1991) 33-43), base 0..m-1


def _bsgs_order(gens: list[tuple[int, ...]], m: int) -> int:
    """Order of the group generated by the image tuples ``gens`` on m points.

    Sifted elements and coset representatives reps[k][j] are m-byte image
    strings.  Right factors are 256-byte translate tables, identity past m:
    the strong generators, and each representative's inverse invs[k][j],
    one bytes.maketrans as it enters.  So a product g * t (g first, then t)
    is one C call, g.translate(t), and a sift step never inverts.  Tables
    index by byte, so m > 256 is refused.  The search never gets there: past
    m = 145 even the 3-cycles, the smallest nontrivial class of Alt_m,
    outnumber MAX_PAIRS, so find_generating_triple refuses before any B.
    """
    if m > 256:
        raise ValueError(f"degree {m} exceeds the Sims table's cap of 256 points")
    table = bytes(range(256))
    ident, pad = table[:m], table[m:]
    reps = [{k: ident} for k in range(m)]  # reps[k][j] fixes 0..k-1 and sends k to j
    invs = [{k: table} for k in range(m)]  # invs[k][j] is the inverse of reps[k][j]
    strong: list[list[bytes]] = [[] for _ in range(m)]

    # Every strong generator added below level k lies in <strong[k]>, and
    # R_{m-1}...R_k is closed under right multiplication by strong[k], so
    # that product set is <strong[k]> and the order is prod |R_k|.
    def add(k, g):
        for i in range(k, m):
            if g[i] != i:
                v = invs[i].get(g[i])
                if v is None:
                    break
                g = g.translate(v)
        else:
            return  # g sifted to the identity: already a member
        g += pad
        strong[k].append(g)
        for u in list(reps[k].values()):
            close(k, u.translate(g))

    def close(k, g):
        v = invs[k].get(g[k])
        if v is None:
            reps[k][g[k]] = g
            invs[k][g[k]] = bytes.maketrans(g, ident)
            for s in strong[k]:
                close(k, g.translate(s))
        else:
            add(k + 1, g.translate(v))

    for g in gens:
        add(0, bytes(g))
    del add, close  # they refer to each other; empty those cells so `reps` is freed by refcount
    return math.prod(len(r) for r in reps)


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


class _Leads(dict):
    """The least point of each orbit of the pointwise stabiliser of F in
    C(A), sorted, by the bitmask ``touched`` of the A-cycles that F meets,
    on which alone they depend; each made when first asked for.

    ``cycles`` are A's, read by _cycles.  That stabiliser fixes each point
    of a cycle that meets F, and moves the other cycles of each length onto
    one another, rotated freely: one orbit per length, led by the first
    point of its first cycle.
    """

    def __init__(self, cycles):
        super().__init__()
        self.cycles = cycles

    def __missing__(self, touched):
        leads, firsts = [], {}
        for i, cyc in enumerate(self.cycles):
            if touched >> i & 1:
                leads += cyc
            else:
                firsts.setdefault(len(cyc), cyc[0])
        leads = self[touched] = sorted(leads + list(firsts.values()))
        return leads


@lru_cache(maxsize=None)
def _frame(a):
    """What the search reads off A = ``a`` alone, memoised per A: bit[x],
    the bit of A's cycle through x (bit[m] is 0, for the last step), A's
    inverse, A's _Leads table, the floor table, and length[x], four times
    the length of A's cycle through x, which _orbit_key's kinds start from.
    0 is on A's first cycle, so the leads of B[0] are table[1].  No other
    code reads A's cycles.

    floor[x][v] is the least c[v] over the c in C(A) with c[x] = 0, for x
    != 0 on an A-cycle as long as 0's; floor[x] is None for every other x.
    Such a c sends x's cycle onto 0's, A^j(x) to A^j(0), and every other
    cycle onto any cycle of its length but 0's, rotated freely.  So
    floor[x] is one row, each v's entry the first point of the first cycle
    of v's length other than 0's, with x's cycle overwritten."""
    m = len(a)
    cycles = _cycles(a)
    other: dict[int, int] = {}  # length -> least point of its first cycle but 0's
    for cyc in cycles[1:]:
        other.setdefault(len(cyc), cyc[0])
    # row[v] is v's floor off x's cycle: m where 0's cycle is alone of its
    # length, and then every row overwrites it
    bit, inv, row, length = [0] * (m + 1), [0] * m, [0] * m, [0] * m
    for i, cyc in enumerate(cycles):
        here, least, prev, span = 1 << i, other.get(len(cyc), m), cyc[-1], 4 * len(cyc)
        for x in cyc:
            bit[x], inv[x], row[x], length[x] = here, prev, least, span
            prev = x
    home = cycles[0]  # read along A from 0
    n = len(home)
    floor: list[tuple[int, ...] | None] = [None] * m
    for cyc in cycles:
        if len(cyc) == n:
            for i, x in enumerate(cyc):
                if x != 0:
                    own = row.copy()
                    for j in range(n):
                        own[cyc[(i + j) % n]] = home[j]
                    floor[x] = tuple(own)
    return tuple(bit), tuple(inv), _Leads(cycles), tuple(floor), tuple(length)


@lru_cache(maxsize=None)
def _room(classes):
    """The room of the class list ``classes``, a tuple of parts, memoised per
    list: the most cycles of each length 0..m any class has, the set of
    rooms left by each class, the longest length in the room, and the fewest
    fixed points of a class."""
    counts = [Counter(parts) for parts in classes]
    full = tuple(max(c[n] for c in counts) for n in range(sum(classes[0]) + 1))
    left = frozenset(tuple(r - c[n] for n, r in enumerate(full)) for c in counts)
    return full, left, max(n for n, r in enumerate(full) if r), min(c[1] for c in counts)


def _class_images(a, classes_b, classes_ab, first) -> list[tuple[int, ...]]:
    """The image tuples B that the search walks against A = ``a``, sorted.

    These are the B with B[0] == ``first``, a root lead of A (one root
    branch of the walk), of a class in ``classes_b`` whose AB is of a class
    in ``classes_ab`` (both non-empty lists of parts of degree m) and whose
    every point keeps the C(A) and floor rules, which find_generating_triple
    states.  Per cycle length, the room of a list is the most cycles of
    that length any of its classes has.  A backtrack sets B[0], B[1], ...
    in turn, each to its values in ascending order, so the B's come out
    sorted, and the branches of the root leads, in ascending order,
    concatenate to the sorted list of every such B.
    It tries v at position k only if v is unused and
    - v is in _frame's lead table at the A-cycles that F = {0..k} and
      B[0..k-1] meet (the C(A) rule);
    - floor[k] is None or floor[k][v] >= B[0], in _frame's floor table
      (the floor rule);
    - the edge k -> v closes a B-cycle only of a length with room left in
      the room of ``classes_b``, and opens no path longer than the longest
      length there;
    - the AB-edge it sets, x -> v with A[x] = k, does the same against the
      room of ``classes_ab``;
    - on each side, the points that can still become fixed are at least
      the fixed points still needed: the fewest of a listed class, less
      those closed.  rec carries the excess (the spare) per side.  y can
      still become B-fixed while B[y] is unset and y is unused as a value;
      x can still become AB-fixed while B[A[x]] is unset and x is unused.
    A full B is kept only if the cycles it closed, of B and of AB, form
    exactly one listed class each: the room left is the room less that
    class.  Every kept B passes the cycle and fixed-point checks at every
    k, so what they prune would fail at the end.  Each child restores what
    it changed, so a node reads what the ends at k and x give once for all
    its values.  What A alone gives (_frame, whose lead table grows as
    walks ask) and each list's room (_room) are kept per process, so a
    call builds only its B's.
    """
    m = len(a)
    bit, a_inv, leads_of, floor, _ = _frame(a)
    full_b, left_b, top_b, fewest_b = _room(tuple(classes_b))
    full_ab, left_ab, top_ab, fewest_ab = _room(tuple(classes_ab))
    room_b, room_ab = list(full_b), list(full_ab)  # the room left, restored by each child
    # B and AB so far, as paths of the edges set: each path's two ends
    # name each other in `end` and hold its point count in `size`
    end_b, size_b = list(range(m)), [1] * m
    end_ab, size_ab = list(range(m)), [1] * m
    b, free = [0] * m, [True] * m
    out: list[tuple[int, ...]] = []

    def rec(k, touched, spare_b, spare_ab, leads=None):
        if k == m:
            if tuple(room_b) in left_b and tuple(room_ab) in left_ab:
                out.append(tuple(b))
            return
        if leads is None:
            leads = leads_of[touched]
        x = a_inv[k]  # B[k] = v sets AB[x] = v
        # each child restores what it changes, so these hold for every v:
        # k ends the B-path from s, and x ends the AB-path from sa
        s, nk, sa, nx = end_b[k], size_b[k], end_ab[x], size_ab[x]
        close_b, close_ab = room_b[nk] > 0, room_ab[nx] > 0
        cap_b, cap_ab = top_b - nk, top_ab - nx
        # an edge k -> v != k (x -> v != x in AB) leaves both ends unable to become fixed
        lose_b, lose_ab = spare_b - free[k], spare_ab - free[x]
        below = touched | bit[k + 1]
        fl, b0 = floor[k], b[0]
        for v in leads:
            if not free[v]:
                continue
            if fl is not None and fl[v] < b0:
                continue
            nv, nva = size_b[v], size_ab[v]
            if (not close_b) if s == v else nv > cap_b:
                continue
            if (not close_ab) if sa == v else nva > cap_ab:
                continue
            spare_v = spare_b if v == k else lose_b - (v > k)
            spare_va = spare_ab if v == x else lose_ab - (a[v] > k)
            if spare_v < 0 or spare_va < 0:
                continue
            t, ta = end_b[v], end_ab[v]  # v starts the B-path to t, and the AB-path to ta
            if s == v:
                room_b[nk] -= 1
            else:
                end_b[s], end_b[t] = t, s
                size_b[s] = size_b[t] = nk + nv
            if sa == v:
                room_ab[nx] -= 1
            else:
                end_ab[sa], end_ab[ta] = ta, sa
                size_ab[sa] = size_ab[ta] = nx + nva
            b[k], free[v] = v, False
            rec(k + 1, below | bit[v], spare_v, spare_va)
            free[v] = True
            if sa == v:
                room_ab[nx] += 1
            else:
                end_ab[sa], end_ab[ta] = x, v
                size_ab[sa], size_ab[ta] = nx, nva
            if s == v:
                room_b[nk] += 1
            else:
                end_b[s], end_b[t] = k, v
                size_b[s], size_b[t] = nk, nv

    rec(0, bit[0], m - fewest_b, m - fewest_ab, [first])
    del rec  # it refers to itself; empty its cell so `out` is freed by refcount
    return out


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


def _jordan(lengths, m: int) -> bool:
    """Whether g, of cycle ``lengths`` in a transitive group G on m points,
    proves G >= Alt_m: its longest cycle has prime length p, m < 2p and
    p <= m - 3.  The other lengths are below p, so a power of g is a
    p-cycle.  That makes G primitive: a p-cycle moves blocks in orbits of 1
    or p, and p blocks of 2 or more points need 2p <= m, while one block
    holding all p > m/2 moved points is everything.  Jordan's theorem
    (Wielandt, Finite Permutation Groups, 1964, Thm 13.9; Dixon-Mortimer,
    Permutation Groups, 1996, Thm 3.3E): a primitive group holding a p-cycle
    with p <= m - 3 contains Alt_m."""
    p = max(lengths)
    return m < 2 * p and p <= m - 3 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _orbit_key(a, b):
    """The orbit key of (A, B) = (``a``, ``b``): for B, B' each generating a
    transitive group with A, _orbit_key(a, b) == _orbit_key(a, b') exactly
    when c^-1 B c, which sends c[x] to c[B[x]], is B' for some c in C(A).
    Otherwise it raises ValueError.

    A walk from p numbers the points as it meets them, reading A, then B,
    at each point in turn, and reads off the numbers of each point's two
    images.  The key is the least reading from a point of the rarest kind,
    (A-cycle length, whether B fixes it, whether AB does), ties broken by
    (count, kind).  Exact: such a c keeps each kind and sends the walk
    from p to the walk from c[p]; two equal readings number (A, B) and
    (A, B') alike, so mapping one numbering to the other is a c in C(A)
    that conjugates B to B'.
    """
    m, length = len(a), _frame(a)[4]
    # each point's kind, packed in one int that sorts as the tuple does
    # (_frame's length[p] is 4 times the A-cycle length)
    kind = [length[p] + 2 * (b[p] == p) + (b[a[p]] == p) for p in range(m)]
    rare = min([(kind.count(k), k) for k in set(kind)])[1]
    readings = []
    for p in range(m):
        if kind[p] != rare:
            continue
        label, order, reading = [-1] * m, [p], []
        label[p] = 0
        for x in order:  # `order` grows while it is walked
            y, z = a[x], b[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
            if label[z] < 0:
                label[z] = len(order)
                order.append(z)
            reading.append(label[y] * m + label[z])  # packed, as kind is
        if len(order) < m:
            raise ValueError(f"<A, B> is not transitive: A = {a}, B = {b}")
        readings.append(reading)
    return tuple(min(readings))


# ---------------------------------------------------------------------------
# Generation search in Alt_m


#: Most candidate (A representative, B) pairs a search may walk, counted from
#: class sizes before anything is built.  It prices whole classes, though the
#: backtrack builds only the B's the walk reads, a first hit stops at its
#: witness's A representative, and with a = b the B classes settled under the
#: swap A <-> B are priced but not walked.  Alt_12 (3,3,4), priced at
#: 985,600, builds and walks 21 B's in about 0.005 s CPU with a 15 MB peak,
#: the interpreter's own (median of 5 fresh processes on a 2-vCPU Xeon VM);
#: Alt_14 (2,3,7), at 22,422,400, ran out of 1 GB of memory when every class
#: element was walked.
MAX_PAIRS = 1_000_000


@dataclass(frozen=True)
class GenerationWitness:
    """A pair (A, B) in Alt_m with |A| = a, |B| = b, |AB| = c and <A,B> = Alt_m."""

    gen_a: tuple[int, ...]
    gen_b: tuple[int, ...]
    orders: tuple[int, int, int]
    shapes: tuple[CycleType, CycleType, CycleType]

    def validate(self) -> bool:
        """Whether A and B are permutations of one degree m >= 1 with the
        stated shapes and orders, three of each, and generate Alt_m.  An odd
        A or B, or an intransitive pair past m = 2, is refused; else _jordan
        on A, B, AB, AAB or ABB proves it, and failing that the Sims table's
        order m!/2 decides.  Each answer is the Sims table's alone, except
        that a degree-0 pair is refused and a Jordan pair past its cap of 256
        points accepted, where both raised."""
        a, b = self.gen_a, self.gen_b
        m = len(a)
        if not m or len(b) != m or sorted(a) != list(range(m)) or sorted(b) != list(range(m)):
            return False
        if len(self.shapes) != 3 or len(self.orders) != 3:  # zip would drop AB's check
            return False
        ab = tuple(b[x] for x in a)
        types = [cycle_type(g) for g in (a, b, ab)]
        slots = zip(types, self.shapes, self.orders)
        if not (all(t == shape and shape.order == n for t, shape, n in slots)
                and types[0].is_even and types[1].is_even and (m == 2 or _is_transitive(a, b, m))):
            return False
        words = [t.parts for t in types]
        words += [_cycle_lengths(tuple(ab[x] for x in a)), _cycle_lengths(tuple(b[x] for x in ab))]
        return any(_jordan(w, m) for w in words) or _bsgs_order([a, b], m) == factorial(m) // 2

    def as_dict(self) -> dict:
        return {
            "A": list(self.gen_a),
            "B": list(self.gen_b),
            "orders": list(self.orders),
            "shapes": [str(s) for s in self.shapes],
        }


@dataclass(frozen=True)
class NotFound:
    """Negative search result, with the reason exhaustion stopped."""

    reason: str


def _even_types(m, n, hint, slot):
    """The even types of order n, or just the shape hint if it is a
    CycleType and CycleType.check_slot takes it."""
    if hint is None:
        return _types_of_order(m, n)[1]
    if not isinstance(hint, CycleType):
        raise ValueError(f"shape hint {hint!r} for the {slot} slot is not a CycleType")
    hint.check_slot(m, n, slot)
    return (hint,)


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
    anything is built, keeps for each A type the B classes within Scott's
    room: with A's cycle count and the fewest cycles of an allowed AB
    class, at most m + 2.  It prices the search (more than MAX_PAIRS
    candidate pairs is refused with ValueError) and then drives the walk.
    The filters, cheapest first:

    - a B is walked only if each B[k] is the least point of its orbit
      under the pointwise stabiliser of F = {0..k} and B[0..k-1] in C(A),
      the centraliser of A in Sym_m (_frame's _Leads table reads these
      points off A's cycles, and _class_images keeps to them as it sets
      each B[k]: the C(A) rule), and no c in C(A) with c[k] = 0 sends
      B[k] below B[0] (_frame's floor table: the floor rule).  Exact: if
      c fixes F, commutes with A and sends B[k] = v below v, then c^-1 B c
      agrees with B before k, has c[v] at k, so sorts before B; if c sends
      k to 0 and v below B[0], then c^-1 B c starts with c[v], so sorts
      before B too.  Either conjugate keeps A, the classes of B and AB,
      transitivity and the order of <A, B>.  So the least B of each
      C(A)-orbit is walked, first of its orbit, and the witness with it;
    - a B class outside the plan for A is never built for it, and an A
      representative whose plan keeps no class is not built at all.  For
      each other one _class_images builds the B's of its kept classes that
      keep that rule and whose AB is an allowed class (the right order and
      class), one call per root lead of A as B[0], in ascending order, so
      the walk reads the B's in lexicographic order.  A hit leaves the
      later branches and the later A representatives unbuilt;
    - with a == b, an A representative drops each kept B class that is the
      type of a representative taken before it, and builds no walk if
      none is left.  Exact: (A, B) -> (B, A) keeps <A, B> and sends AB
      to BA = A^-1 (AB) A, of the same class, and the plan is symmetric in
      the two types, so a generating pair of the dropped class pair gives
      one of the mirrored pair, which the earlier walk, whose filters are
      exact, would have returned.  A witness is never in a dropped pair;
    - a pair whose own cycle counts exceed Scott's bound is skipped;
    - a pair with <A, B> not transitive is skipped;
    - a pair whose B has the orbit key (_orbit_key) of a B met earlier in
      the walk of the same A is skipped: the two are C(A)-conjugate, so
      the earlier one settled the same order of <A, B>.  The least B of
      each orbit is walked and passes every filter, so it is the one that
      reaches the Sims table;
    - each survivor is settled by the exact group order from the Sims table.

    Each walked pair calls _cycle_lengths on AB (one itemgetter gather, a
    fresh tuple) and on B, _is_transitive if Scott's test passes, and
    _bsgs_order if <A, B> is transitive and B's key is new: bench/tracing.py
    reads the funnel off these calls, and tells B from AB by the identity
    of the tuples _class_images returned, so every branch's list is held
    until the search returns.  Every AB is of an allowed class,
    so the tracer's product-class pass counts every pair tried; it reads
    its transitive pass off the Sims-table calls, so that counts one
    transitive pair per C(A)-orbit only; _orbit_key, which it does not
    wrap, is timed as the search's own.  The witness's A and B shapes are
    read through cycle_type, never by _cycle_lengths directly, which the
    tracer would count as pairs tried.
    """
    _require_int(m, "degree")
    if m < 5:
        raise ValueError("need m >= 5")
    if shape_hint is not None and len(shape_hint) != 3:
        raise ValueError(f"shape hint ({', '.join(map(str, shape_hint))}) gives "
                         f"{len(shape_hint)} cycle types, not one each for A, B and AB")
    types_a, types_b, types_c = [
        _even_types(m, n, hint, slot)
        for n, hint, slot in zip(tr.orders, shape_hint or (None,) * 3, ("A", "B", "AB"))]
    if not (types_a and types_b and types_c):
        return NotFound("no elements of required order")

    target = factorial(m) // 2
    classes_c = tuple(t.parts for t in types_c)
    scott_cap = m + 2
    min_count_c = min(t.cycle_count for t in types_c)
    # every allowed product has at least min_count_c cycles, so a B class
    # over this cap would fail the per-pair Scott test below for every B
    kept = {ta: [tb for tb in types_b if ta.cycle_count + tb.cycle_count + min_count_c <= scott_cap]
            for ta in types_a}
    pairs = sum(tb.class_size() for tbs in kept.values() for tb in tbs)
    if pairs > MAX_PAIRS:
        raise ValueError(f"Alt_{m} {tr} search over {pairs} candidate pairs "
                         f"exceeds supported cap {MAX_PAIRS}")
    # every walked list stays held until the search returns: bench/tracing.py
    # tells a B from a product by its id, and a product may reuse a freed B's
    held = []

    reps = {ta.lex_min(): ta for ta in types_a if kept[ta]}
    # the types of the A representatives taken so far; a B class, of order
    # b, can be one of them only when a == b
    settled = set()
    for a_img, ta in sorted(reps.items()):  # images differ, so types are never compared
        classes_b = tuple(tb.parts for tb in kept[ta] if tb.parts not in settled)
        settled.add(ta.parts)
        if not classes_b:
            continue
        times_a = operator.itemgetter(*a_img)  # times_a(b) is the product A*B, a fresh tuple
        met = set()  # the orbit key of each C(A)-orbit met in this walk
        for first in _frame(a_img)[2][1]:  # the leads of B[0], ascending
            walk = _class_images(a_img, classes_b, classes_c, first)
            held.append(walk)
            for b_img in walk:
                lengths = _cycle_lengths(times_a(b_img))
                if ta.cycle_count + len(_cycle_lengths(b_img)) + len(lengths) > scott_cap:
                    continue
                if not _is_transitive(a_img, b_img, m):
                    continue
                orbit = _orbit_key(a_img, b_img)
                if orbit in met:
                    continue
                met.add(orbit)
                if _bsgs_order([a_img, b_img], m) == target:
                    return GenerationWitness(a_img, b_img, tr.orders, (
                        cycle_type(a_img), cycle_type(b_img), CycleType(tuple(lengths))))
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
    all, i.e. Alt_m has no element of that order.  Each term is one of
    the two counts _types_of_order keeps per (m, n).

    The parity condition (count sum congruent to m mod 2) needs no separate
    check for class triples inside Alt_m: an even permutation on m points
    always has cycle count congruent to m mod 2.
    """
    _require_int(m, "degree")
    if m < 3:
        raise ValueError("need m >= 3")
    # per order: (types, even types, fewest cycles of an even type, of any type)
    a, b, c = [_types_of_order(m, n) for n in tr.orders]
    if None in (a[2], b[2], c[2]):
        return None
    return a[2] + b[3] + c[3]


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
    _require_int(m, "degree")
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
