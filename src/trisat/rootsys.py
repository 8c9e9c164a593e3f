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

FAMILIES = "ABCDEFG"

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

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass(frozen=True, order=True)
class DynkinType:
    """An irreducible Dynkin type, e.g. DynkinType("D", 7)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} exceeds supported cap {MAX_RANK}")
        if self.family in _RANK_MIN:
            lo = _RANK_MIN[self.family]
            if self.rank < lo:
                raise ValueError(f"{self.family}_r requires rank >= {lo}")
        elif (self.family, self.rank) not in _EXCEPTIONAL_EXPONENTS:
            ranks = ", ".join(str(r) for f, r in _EXCEPTIONAL_EXPONENTS if f == self.family)
            raise ValueError(f"{self.family}_r exists only for rank {ranks}")

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        """Parse a label like "E8" or "D13"."""
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


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
    """Dimension of the adjoint simple group of type ``t``: sum(2*e_j + 1)."""
    return sum(2 * e + 1 for e in exponents(t))


def all_types(max_rank: int) -> list[DynkinType]:
    """Every valid irreducible type of rank <= max_rank, in a fixed order."""
    keys = [(f, r) for f, lo in _RANK_MIN.items() for r in range(lo, max_rank + 1)]
    return [DynkinType(f, r) for f, r in keys + list(_EXCEPTIONAL_EXPONENTS) if r <= max_rank]
