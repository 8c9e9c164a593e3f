"""Independent oracles for the exact formulas.

Builds explicit matrices over GF(p) (block rotations, permutation actions
on the standard module), forms the antisymmetric square, and reads
fixed-space dimensions off exact ranks by ``rank_mod_p``; ``from_cycles`` builds a
permutation's image tuple from its cycles and refuses a non-bijection;
``rigid_contains`` states the rigid table as a predicate instead of the
spec rows ``tables`` expands;
``partitions`` lists every partition of m, the check on the cycle-type
lister; ``class_elements`` lists every permutation of one cycle type, the
check on the B's the search builds; ``reaches_every_point`` and ``group_elements`` are naive set-based
closures and ``conjugate`` composes by definition, the checks on the
search's transitivity filter and on the C(A)-orbits its tests close;
``centraliser`` builds a centraliser element by element, and
``centraliser_gens`` names generators of it, checked against it;
``centraliser_leads`` reads orbits off ``centraliser``, the check on
which points the backtrack sets each B[k] to, and ``centraliser_floor``
reads off it where the elements that send a point to 0 send each point,
the check on the values the backtrack refuses for B[k] below B[0]; ``lawther_closed_form`` is
Lawther's closed form for the codimension of the elements of order
dividing a in the classical families, the check on the exponent sums.
Deliberately shares no code with the integer formulas under test: of
trisat it imports only ``rootsys.DynkinType``.

``centraliser``, ``centraliser_leads``, ``centraliser_floor`` and
``class_elements`` are memoised per argument by ``lru_cache``: the
permutation-group tests ask for the same C(A) and the same class again
and again, and each is built element by element.  So each returns a
frozenset or a tuple, never a list or a set: a result is shared by every
test that asks for it, and none can change it for the others.
``centraliser_leads`` takes its fixed points as a frozenset, part of the
memo's key.

A fixed dimension over GF(p) equals the complex one when the element has
order N with p not dividing N.  Then x^N - 1 has no repeated root mod p,
so the element is diagonalisable over the algebraic closure of GF(p), and
its fixed space has the dimension of the eigenvalue 1.  For the principal
pair element the eigenvalues are powers of a zeta of exact order n, so the
power that is 1 mod p is 1 over the complex numbers too.  For a
permutation the characteristic polynomial on the integer lattice is a
product of cyclotomic Phi_d with d | N, and Phi_d(1) = 0 mod p only when d
is a power of p, so only Phi_1 gives the eigenvalue 1.  The builders
check both conditions and raise ValueError when p breaks them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from trisat.rootsys import DynkinType

# 1 + 16 * lcm(1..16), a prime: GF(P) holds i and a zeta of exact order n
# for every n <= 16, and P exceeds every point count the tests use
P = 11_531_521


@lru_cache(maxsize=None)
def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not a prime")


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of the matrix whose rows are the dicts ``rows`` ({column: entry}).

    Each row is reduced against the pivot rows kept so far, always at its
    least column; a row that keeps a nonzero entry is scaled to 1 there and
    kept as the pivot of that column.  Every other column of a pivot row is
    larger, so a reduction never brings back a column it cleared.
    """
    _require_prime(p)
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: v % p for c, v in given.items() if v % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                w = (row.get(c, 0) - f * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


def antisym_fixed_dim(rows, p: int) -> int:
    """dim over GF(p) of the fixed space of the matrix with rows ``rows``
    ({column: entry}) acting on its antisymmetric square.

    Row (i, j) of the square, on the basis e_a ^ e_b (a < b), is
    sum over a, b of g[i][a] g[j][b] e_a ^ e_b, with e_b ^ e_a = -e_a ^ e_b;
    the identity is taken off its diagonal.
    """
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(len(rows)), 2))}
    square = []
    for (i, j), k in index.items():
        row = {k: -1}
        for a, x in rows[i].items():
            for b, y in rows[j].items():
                if a < b:
                    key = index[a, b]
                    row[key] = row.get(key, 0) + x * y
                elif a > b:
                    key = index[b, a]
                    row[key] = row.get(key, 0) - x * y
        square.append(row)
    return len(index) - rank_mod_p(square, p)


def _unit_of_order(q: int, p: int) -> int:
    """An element of exact order q in GF(p)*.

    ValueError when there is none, that is when q does not divide p - 1.
    """
    if (p - 1) % q:
        raise ValueError(f"GF({p}) has no element of exact order {q}")
    primes = [d for d in range(2, q + 1) if q % d == 0 and all(d % e for e in range(2, d))]
    # each w has w^q = 1, and exact order q unless w^(q/d) = 1 for a prime d | q;
    # a generator of GF(p)* gives one, so the search ends
    powers = (pow(g, (p - 1) // q, p) for g in range(2, p))
    return next(w for w in powers if all(pow(w, q // d, p) != 1 for d in primes))


def principal_pair_matrix(r1: int, r2: int, n: int, p: int = P) -> list[dict[int, int]]:
    """Order-n element of SO(2*r1+1) x SO(2*r2+1) over GF(p), principal in each
    factor, as rows ({column: entry}).

    Each factor is a 1 and rotation blocks [[c, -s], [s, c]] for j = 1..rank,
    with c = (z + 1/z)/2 and s = (z - 1/z)/(2i) at z = zeta^j: the block has
    eigenvalues z and 1/z.  zeta has exact order n and i^2 = -1, both taken
    from a unit of exact order 4n, so p = 1 (mod 4n) is needed; otherwise
    ValueError.
    """
    _require_prime(p)
    w = _unit_of_order(4 * n, p)
    zeta, i = pow(w, 4, p), pow(w, n, p)
    assert [k for k in range(1, n + 1) if pow(zeta, k, p) == 1] == [n], (n, p)
    half, half_i = pow(2, -1, p), pow(2 * i, -1, p)
    rows = []
    for rank in (r1, r2):
        pos = len(rows)
        rows.append({pos: 1})
        for j in range(1, rank + 1):
            z, z_inv = pow(zeta, j, p), pow(zeta, -j, p)
            c, s = (z + z_inv) * half % p, (z - z_inv) * half_i % p
            a, b = pos + 2 * j - 1, pos + 2 * j
            rows.append({col: v for col, v in ((a, c), (b, -s % p)) if v})
            rows.append({col: v for col, v in ((a, s), (b, c)) if v})
    return rows


def principal_pair_fixed_dim(r1: int, r2: int, n: int, p: int = P) -> int:
    """dim of the fixed space on so_{2(r1+r2+1)} of principal_pair_matrix(r1, r2, n)."""
    return antisym_fixed_dim(principal_pair_matrix(r1, r2, n, p), p)


def standard_module_matrix(perm: tuple[int, ...]) -> list[dict[int, int]]:
    """Integer matrix of the image tuple ``perm`` on the standard module, as rows.

    The basis is f_i = e_i - e_{m-1} for i < m-1.  perm sends f_i to
    e_{perm[i]} - e_{perm[m-1]} = f_{perm[i]} - f_{perm[m-1]}, where f_{m-1} = 0.
    """
    m = len(perm)
    rows: list[dict[int, int]] = [{} for _ in range(m - 1)]
    for i in range(m - 1):
        for r, v in ((perm[i], 1), (perm[-1], -1)):
            if r < m - 1:
                rows[r][i] = v  # perm[i] != perm[m-1], so no entry is written twice
    return rows


def standard_module_fixed_dim(perm: tuple[int, ...], p: int = P) -> int:
    """dim of the fixed space of the image tuple ``perm`` on so_{m-1}, the
    antisymmetric square of the standard module, by rank over GF(p).

    ValueError when p divides the order of perm.
    """
    lengths, seen = [], set()
    for start in range(len(perm)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    order = math.lcm(*lengths)
    if order % p == 0:
        raise ValueError(f"p = {p} divides the element order {order}")
    return antisym_fixed_dim(standard_module_matrix(perm), p)


def from_cycles(m: int, cycles) -> tuple[int, ...]:
    """The image tuple on 0..m-1 that sends each point of each of ``cycles``
    to the next, the last to the first, and fixes the rest.

    ValueError unless the result is a permutation: cycles that share a
    point can send two points to one.
    """
    images = list(range(m))
    for cyc in cycles:
        cyc = tuple(cyc)
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            images[x] = y
    if sorted(images) != list(range(m)):
        raise ValueError(f"not a permutation of 0..{m - 1}: {tuple(images)}")
    return tuple(images)


def partitions(m: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of m as a descending tuple, parts at most ``largest``."""
    if m == 0:
        return [()]
    top = m if largest is None else min(m, largest)
    return [(first,) + rest for first in range(1, top + 1) for rest in partitions(m - first, first)]


@lru_cache(maxsize=None)
def class_elements(m: int, parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every permutation of 0..m-1 with cycle lengths ``parts``, as sorted image tuples.

    Cycles are laid one at a time: each is led by the least point on no
    cycle yet, takes one of the lengths left, and runs through an ordered
    choice of the other points left.
    """
    out = []

    def lay(images: list, left: list[int], lengths: list[int]):
        if not left:
            out.append(tuple(images))
            return
        lead, rest = left[0], left[1:]
        for n in set(lengths):
            others = list(lengths)
            others.remove(n)
            for arm in itertools.permutations(rest, n - 1):
                cycle = (lead,) + arm
                laid = list(images)
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    laid[x] = y
                lay(laid, [p for p in rest if p not in arm], others)

    lay([None] * m, list(range(m)), list(parts))
    return tuple(sorted(out))


def reaches_every_point(gens: list[tuple[int, ...]], m: int) -> bool:
    """Whether the image tuples ``gens`` move point 0 to every point of 0..m-1."""
    reached = {0}
    while True:
        grown = reached | {g[x] for g in gens for x in reached}
        if grown == reached:
            return len(reached) == m
        reached = grown


def group_elements(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every element of the group the image tuples ``gens`` generate, by closure."""
    elems = {tuple(range(len(gens[0])))}
    while True:
        grown = elems | {tuple(g[i] for i in p) for p in elems for g in gens}
        if grown == elems:
            return elems
        elems = grown


def conjugate(p: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """c^-1 p c as an image tuple: apply c^-1, then p, then c."""
    c_inv = sorted(range(len(c)), key=c.__getitem__)
    return tuple(c[p[c_inv[x]]] for x in range(len(c)))


@lru_cache(maxsize=None)
def centraliser(a: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Every element of C(a), the centraliser of ``a`` in Sym_m.

    Every c with c[a[x]] == a[c[x]] for all x is built point by point: once
    c[x] = y is chosen, c[a[x]] = a[y] is forced, and a choice that clashes
    with an earlier value or repeats one is dropped.
    """
    m = len(a)
    elements = set()

    def grow(c: list):
        if None not in c:
            elements.add(tuple(c))
            return
        x0 = c.index(None)
        for y0 in range(m):
            if y0 in c:
                continue
            d, x, y = list(c), x0, y0
            while d[x] is None and y not in d:
                d[x] = y
                x, y = a[x], a[y]
            if d[x] == y:
                grow(d)

    grow([None] * m)
    return frozenset(elements)


def centraliser_gens(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators of C(a), the centraliser of ``a`` in Sym_m.

    For each cycle length l of a, with k cycles of that length: the rotation
    of the first of them (l > 1), the swap of the first two (k > 1) and the
    cyclic shift of all k (k > 2), each matching the points of the cycles
    along a.  Together they generate prod_l C_l wr Sym_k, the whole
    centraliser (Dixon-Mortimer, Permutation Groups, 1996, section 1.6).
    Cycles are read along a from their least point, in the order of it.
    """
    m = len(a)
    cycles_of: dict[int, list[list[int]]] = {}
    seen: set[int] = set()
    for start in range(m):
        if start in seen:
            continue
        cyc = [start]
        while a[cyc[-1]] != start:
            cyc.append(a[cyc[-1]])
        seen.update(cyc)
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


@lru_cache(maxsize=None)
def centraliser_leads(a: tuple[int, ...], fixed: frozenset[int]) -> frozenset[int]:
    """The least point of each orbit of the pointwise stabiliser of ``fixed`` in C(a).

    The elements of centraliser(a) with c[x] == x for every x in ``fixed``
    form the stabiliser; the orbit of x is {c[x]} over them.
    """
    stabiliser = [c for c in centraliser(a) if all(c[x] == x for x in fixed)]
    return frozenset(min(c[x] for c in stabiliser) for x in range(len(a)))


@lru_cache(maxsize=None)
def centraliser_floor(a: tuple[int, ...]) -> tuple[tuple[int, ...] | None, ...]:
    """For each x, the least c[v] for each v over the c in centraliser(a)
    with c[x] == 0, or None where no such c exists."""
    floor: list[list[int] | None] = [None] * len(a)
    for c in centraliser(a):
        x = c.index(0)
        floor[x] = [min(pair) for pair in zip(floor[x], c)] if floor[x] is not None else list(c)
    return tuple(None if row is None else tuple(row) for row in floor)


def lawther_closed_form(t: DynkinType, a: int) -> int:
    """Lawther's closed form for codim G_[a] in the classical families."""
    r = t.rank
    h = {"A": r + 1, "B": 2 * r, "C": 2 * r, "D": 2 * r - 2}.get(t.family)
    if h is None:
        raise ValueError(f"{t} is not classical")
    alpha, beta = divmod(h, a)  # h = alpha*a + beta, 0 <= beta < a
    eps_a, eps_alpha = a % 2, alpha % 2
    full = alpha**2 * a + beta * (2 * alpha + 1)
    if t.family == "A":
        return full - 1
    half = full // 2 + eps_a * ((alpha + 1) // 2)
    if t.family == "D":
        return half + alpha + 1 - eps_alpha
    return half


def rigid_contains(t: DynkinType, orders: tuple[int, int, int]) -> bool:
    """Whether (t, triple) falls under some rigid row."""
    a, b, c = orders
    label = str(t)
    if label == "A1":
        return True
    if label == "A2":
        return a == 2
    if label in ("A3", "A4"):
        return a == 2 and b == 3
    if label in ("B2", "C2"):
        # same root system, so B2 inherits the C2 row
        return b == 3
    if label == "G2":
        return a == 2 and c == 5
    return False
