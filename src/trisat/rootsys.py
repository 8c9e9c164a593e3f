"""Static data for irreducible root systems.

Everything downstream needs only exponent-derived quantities: the exponent
multiset e_1 <= ... <= e_r and the adjoint group dimension sum(2*e_j + 1).
Exponent lists are the classical ones (Bourbaki, Groupes et algebres de
Lie, planches I-IX).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

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
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} exceeds supported cap {MAX_RANK}")
        if lo:
            if self.rank < lo:
                raise ValueError(f"{self.family}_r requires rank >= {lo}")
        elif self.rank not in ranks:
            raise ValueError(f"{self.family}_r exists only for rank {', '.join(map(str, ranks))}")

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        """Parse a label like "E8" or "D13".

        Every label of one type gives the same shared instance, so the
        memos keyed on a type find it by identity; a refusal is not memoised.
        """
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return _shared(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


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


@lru_cache(maxsize=None)
def adjoint_dim(t: DynkinType) -> int:
    """Dimension of the adjoint simple group of type ``t``: sum(2*e_j + 1).

    Memoised per type, so callers share it.
    """
    return sum(2 * e + 1 for e in exponents(t))


def all_types(max_rank: int) -> list[DynkinType]:
    """Every valid irreducible type of rank <= max_rank, in a fixed order,
    as the instances DynkinType.parse shares."""
    keys = [(f, r) for f, lo in _RANK_MIN.items() for r in range(lo, max_rank + 1)]
    return [_shared(f, r) for f, r in keys + list(_EXCEPTIONAL_EXPONENTS) if r <= max_rank]
