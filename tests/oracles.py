"""Independent oracles for the exact formulas.

Builds explicit real orthogonal matrices (block rotations, permutation
actions on the standard module), forms the antisymmetric square, and reads
fixed-space dimensions off numeric ranks; ``rigid_contains`` states the
rigid table as a predicate instead of the spec rows ``tables`` expands;
``partitions`` lists every partition of m, the check on the cycle-type
lister; ``reaches_every_point`` and ``group_elements`` are naive set-based
closures and ``conjugate`` composes by definition, the checks on the
search's transitivity filter and its conjugation orbits;
``centraliser_slice_leads`` builds a centraliser element by element, the
check on which B[0] slices the search walks.
Deliberately shares no code with the integer formulas under test.
"""

from __future__ import annotations

import numpy as np

from trisat.permgrp import Permutation
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


def standard_module_matrix(p: Permutation) -> np.ndarray:
    """Orthogonal (m-1)x(m-1) matrix of p on the complement of the ones line."""
    m = p.degree
    perm = np.zeros((m, m))
    for i, j in enumerate(p.images):
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


def centraliser_slice_leads(a: tuple[int, ...]) -> set[int]:
    """The least point of each orbit of the stabiliser of 0 in the centraliser of ``a``.

    Every c with c[a[x]] == a[c[x]] for all x is built point by point: once
    c[x] = y is chosen, c[a[x]] = a[y] is forced, and a choice that clashes
    with an earlier value or repeats one is dropped.  The elements with
    c[0] == 0 form the stabiliser; the orbit of x is {c[x]} over them.
    """
    m = len(a)
    stabiliser = []

    def grow(c: list):
        if None not in c:
            if c[0] == 0:
                stabiliser.append(tuple(c))
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
    return {min(c[x] for c in stabiliser) for x in range(m)}


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
