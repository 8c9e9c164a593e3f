"""Static data for irreducible root systems.

Everything downstream needs only exponent-derived quantities: the exponent
multiset e_1 <= ... <= e_r and, read from it once per type, the table
DynkinType.principal_dims of the principal fixed dimensions
sum_j (1 + 2*floor(e_j / n)), whose entry at n = 1 is the adjoint group
dimension sum(2*e_j + 1).  Exponent lists are the classical ones
(Bourbaki, Groupes et algebres de Lie, planches I-IX).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

#: Smallest rank for which each classical family is taken as irreducible here,
#: in all_types order.
_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 4}

#: The exceptional types, in all_types order, with their exponents.
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}

#: Hard cap so that accidental huge ranks fail fast instead of allocating.
MAX_RANK = 512

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")  # not \d, which matches any Unicode digit


@dataclass(frozen=True)
class DynkinType:
    """An irreducible Dynkin type, e.g. DynkinType("D", 7)."""

    family: str
    rank: int

    def __post_init__(self):
        lo = _RANK_MIN.get(self.family)  # None unless the family is classical
        ranks = () if lo else [r for f, r in _EXCEPTIONAL_EXPONENTS if f == self.family]
        if not (lo or ranks):
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.rank) is not int or self.rank < 1:  # a bool is not a rank
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} exceeds supported cap {MAX_RANK}")
        if lo:
            if self.rank < lo:
                raise ValueError(f"{self.family}_r requires rank >= {lo}")
        elif self.rank not in ranks:
            raise ValueError(f"{self.family}_r exists only for rank {', '.join(map(str, ranks))}")

    @staticmethod
    @lru_cache(maxsize=1024)
    def parse(text: str) -> "DynkinType":
        """Parse a label like "E8" or "D13".

        Every label of one type gives the same shared instance, so the
        memos keyed on a type find it by identity, and its principal_dims
        table and its label are built once.  The result is memoised per
        label text, up to 1,024 texts; a refusal is not memoised.
        """
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return _shared(m.group(1), int(m.group(2)))

    @cached_property
    def principal_dims(self) -> tuple:
        """dims[n] = sum_j (1 + 2*floor(e_j / n)) for 1 <= n <= top = e_max + 1.

        This is the fixed dimension of an order-n element in the principal
        PGL_2: dims[1] is dim g, the identity's, and dims[top] is the rank,
        as is the value for every n > top, which the table does not hold.
        dims[0] is None, as no element has order 0.  With at_least[v] the
        number of exponents >= v, sum_j floor(e_j / n) = sum_k at_least[k*n],
        so the table takes O(e_max log e_max) steps; it is built once per
        instance, on first read.
        """
        exps = exponents(self)
        top = exps[-1] + 1
        at_least = [0] * (top + 1)
        for e in exps:
            at_least[e] += 1
        for v in range(top - 1, 0, -1):
            at_least[v] += at_least[v + 1]
        return (None,) + tuple(self.rank + 2 * sum(at_least[n::n]) for n in range(1, top + 1))

    @cached_property
    def label(self) -> str:
        """The type's name, e.g. "D7": formed once per instance, on first
        read, and what str() and every certificate give."""
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


#: DynkinType memoised per (family, rank): the instance parse and all_types hand out.
_shared = lru_cache(maxsize=None)(DynkinType)


@lru_cache(maxsize=None)
def exponents(t: DynkinType) -> tuple[int, ...]:
    """Exponents of the root system of type ``t``, sorted ascending.

    A_r: 1..r;  B_r, C_r: 1, 3, ..., 2r-1;  D_r: 1, 3, ..., 2r-3 together
    with r-1 (a repeated value when r is even);  E/F/G: literal lists.
    """
    r = t.rank
    if t.family == "A":
        return tuple(range(1, r + 1))
    if t.family in ("B", "C"):
        return tuple(range(1, 2 * r, 2))
    if t.family == "D":
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return _EXCEPTIONAL_EXPONENTS[(t.family, t.rank)]


def adjoint_dim(t: DynkinType) -> int:
    """Dimension of the adjoint simple group of type ``t``: sum(2*e_j + 1),
    read from ``t.principal_dims`` as the fixed dimension of the identity."""
    return t.principal_dims[1]


def all_types(max_rank: int) -> list[DynkinType]:
    """Every valid irreducible type of rank <= max_rank, in a fixed order,
    as the instances DynkinType.parse shares."""
    keys = [(f, r) for f, lo in _RANK_MIN.items() for r in range(lo, max_rank + 1)]
    return [_shared(f, r) for f, r in keys + list(_EXCEPTIONAL_EXPONENTS) if r <= max_rank]
