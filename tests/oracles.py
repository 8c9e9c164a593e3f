"""Independent oracles for the exact formulas.

Builds explicit real orthogonal matrices (block rotations, permutation
actions on the standard module), forms the antisymmetric square, and reads
fixed-space dimensions off numeric ranks; ``from_cycles`` builds a
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
which points the backtrack sets each B[k] to; ``lawther_closed_form`` is
Lawther's closed form for the codimension of the elements of order
dividing a in the classical families, the check on the exponent sums.
Deliberately shares no code with the integer formulas under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from trisat.rootsys import DynkinType


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def principal_pair_matrix(r1: int, r2: int, n: int) -> np.ndarray:
    """Order-n element of SO(2*r1+1) x SO(2*r2+1), principal in each factor.

    Each factor is a 1 and rotations by 2*pi*j/n for j = 1..rank.
    """
    blocks = []
    for rank in (r1, r2):
        blocks.append(np.eye(1))
        blocks.extend(_rotation(2 * np.pi * j / n) for j in range(1, rank + 1))
    return _block_diag(blocks)


def antisym_square(mat: np.ndarray) -> np.ndarray:
    """Action induced on the antisymmetric square, basis e_i ^ e_j (i < j)."""
    m = mat.shape[0]
    ii = np.array([i for i in range(m) for j in range(i + 1, m)], dtype=int)
    jj = np.array([j for i in range(m) for j in range(i + 1, m)], dtype=int)
    return (mat[np.ix_(ii, ii)] * mat[np.ix_(jj, jj)]
            - mat[np.ix_(jj, ii)] * mat[np.ix_(ii, jj)])


def fixed_dim_numeric(mat: np.ndarray) -> int:
    """dim of the fixed space of mat acting on its antisymmetric square.

    The rank tolerance is absolute: numpy's default is relative to the
    largest singular value, so when mat is the identity up to rounding the
    noise left in the difference would count as rank.
    """
    a = antisym_square(mat)
    d = a.shape[0]
    if d == 0:
        return 0
    return d - np.linalg.matrix_rank(a - np.eye(d), tol=1e-9)


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


def standard_module_matrix(p: tuple[int, ...]) -> np.ndarray:
    """Orthogonal (m-1)x(m-1) matrix of the image tuple p on the complement of the ones line."""
    m = len(p)
    perm = np.zeros((m, m))
    for i, j in enumerate(p):
        perm[j, i] = 1.0
    basis = np.zeros((m, m - 1))
    for i in range(m - 1):
        basis[i, i] = 1.0
        basis[i + 1, i] = -1.0
    q, _ = np.linalg.qr(basis)
    return q.T @ perm @ q


def partitions(m: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of m as a descending tuple, parts at most ``largest``."""
    if m == 0:
        return [()]
    top = m if largest is None else min(m, largest)
    return [(first,) + rest for first in range(1, top + 1) for rest in partitions(m - first, first)]


def class_elements(m: int, parts) -> list[tuple[int, ...]]:
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
    return sorted(out)


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


def centraliser(a: tuple[int, ...]) -> set[tuple[int, ...]]:
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
    return elements


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


def centraliser_leads(a: tuple[int, ...], fixed) -> set[int]:
    """The least point of each orbit of the pointwise stabiliser of ``fixed`` in C(a).

    The elements of centraliser(a) with c[x] == x for every x in ``fixed``
    form the stabiliser; the orbit of x is {c[x]} over them.
    """
    stabiliser = [c for c in centraliser(a) if all(c[x] == x for x in fixed)]
    return {min(c[x] for c in stabiliser) for x in range(len(a))}


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
