"""Cohomology dimension formulas for triangle-group representations.

For a hyperbolic triangle group T = <x, y, z : x^a = y^b = z^c = xyz = 1>
acting on the Lie algebra g of a simple group via Ad o rho, Weil's formulas
give

    dim Z^1 = 2 dim g + i* - (dim g^x + dim g^y + dim g^z)
    dim H^1 =   dim g + i + i* - (dim g^x + dim g^y + dim g^z)

where i, i* are the invariant dimensions on g and its dual.  For the
representation induced from the principal homomorphism PGL_2 -> G the fixed
spaces are exponent sums, dim g^x = sum_j (1 + 2*floor(e_j / a)), and the
invariants vanish.  The same exponent sum equals the codimension of the
subvariety of elements of order dividing a.  Each type holds these sums in
one table, DynkinType.principal_dims, indexed by the order up to
top = e_max + 1; every larger order gives the rank.  principal_fixed_dim and
h1_principal read that table by index, so the sum is computed in one place.

The value types every deformation route shares live here too: Triple,
CohomologyReport, and the verdict (Status, Verdict) that each route returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootsys import DynkinType


@dataclass(frozen=True)
class Triple:
    """An ordered hyperbolic triple (a, b, c), normalized to a <= b <= c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)
                and a >= 2 and b >= 2 and c >= 2):
            raise ValueError(f"triple entries must be integers >= 2, got {(a, b, c)}")
        if not a <= b <= c:
            a, b, c = sorted((a, b, c))
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)
        # hyperbolic: 1/a + 1/b + 1/c < 1, exactly
        if b * c + a * c + a * b >= a * b * c:
            raise ValueError(f"({a},{b},{c}) is not hyperbolic")

    @classmethod
    def parse(cls, text: str) -> "Triple":
        parts = text.replace(" ", "").split(",")
        if len(parts) == 3 and "" not in parts:  # an empty term is refused, not dropped
            values = [int(p) for p in parts]  # a term int() cannot read is refused in its words
            # int() also reads "1_0", "+7" and non-ASCII digits such as "٧"
            if all(p.isascii() and p.isdigit() for p in parts):
                return cls(*values)
        raise ValueError(f"expected three comma-separated integers, got {text!r}")

    @property
    def orders(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class CohomologyReport:
    """Z^1 and H^1 dimensions together with the data that produced them."""

    dim_g: int
    fixed_dims: tuple[int, int, int]
    z1: int
    h1: int

    def as_dict(self) -> dict:
        return {
            "dim_g": self.dim_g,
            "fixed": list(self.fixed_dims),
            "z1": self.z1,
            "h1": self.h1,
        }


class Status:
    SATURATED = "Saturated"
    UNKNOWN = "Unknown"
    RIGID_ZERO = "RigidZero"


@dataclass(frozen=True)
class Verdict:
    """A saturation decision with a replayable certificate."""

    status: str
    method: str
    certificate: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"status": self.status, "method": self.method, "certificate": self.certificate}


def principal_fixed_dim(t: DynkinType, n: int) -> int:
    """Fixed-space dimension of an order-n generator under the principal action.

    Equals sum_j (1 + 2*floor(e_j / n)) over the exponents of ``t``: entry n
    of ``t.principal_dims``, or the rank once n is past the table.  An order
    that is not an int, or is below 2, is refused.
    """
    if not isinstance(n, int):
        raise ValueError(f"generator order must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"generator order must be >= 2, got {n}")
    dims = t.principal_dims
    return dims[n] if n < len(dims) else t.rank


@lru_cache(maxsize=None)
def weil_h1(dim_g: int, fixed: tuple[int, int, int]) -> CohomologyReport:
    """Apply Weil's Z^1/H^1 formulas to explicit fixed-space dimensions.

    The invariants are taken as i = i* = 0: every action fed into the
    formula here has trivial invariants (dense or principal image in a
    simple adjoint group).  The report is memoised per (dim_g, fixed), so
    callers share it (it is frozen) and ``fixed`` must be a tuple of three,
    one per generator, else ValueError; a refusal is not memoised, so every
    call with inconsistent fixed dims raises again.  An unhashable
    ``fixed``, such as a list, raises TypeError from the memo before the
    body runs: a check ahead of the memo would cost every call a frame.
    lru_cache keys 28.0 as it keys 28, so a dimension that is not an int is
    refused here, before anything is stored under it; one that hits a report
    an int call stored gets that report.
    """
    if type(fixed) is not tuple or len(fixed) != 3:
        raise ValueError(f"fixed must hold three dimensions, one per generator, got {fixed!r}")
    if type(dim_g) is not int or any(type(f) is not int for f in fixed):
        raise ValueError(f"dimensions must be ints, got dim_g {dim_g!r} and fixed {fixed!r}")
    if any(f < 0 or f > dim_g for f in fixed):
        raise ValueError(f"fixed dims {fixed} out of range [0, {dim_g}]")
    total = sum(fixed)
    z1 = 2 * dim_g - total
    h1 = dim_g - total
    if h1 < 0:
        raise ValueError(f"negative H^1 = {h1}: inconsistent fixed dims {fixed} for dim {dim_g}")
    return CohomologyReport(dim_g, fixed, z1, h1)


def h1_principal(t: DynkinType, tr: Triple) -> CohomologyReport:
    """H^1 of T on g for the representation through the principal PGL_2.

    dim H^1 = dim g - sum over the three generator orders of the exponent
    fixed-space sums; the invariants vanish for the principal action.  Each
    sum is entry n of ``t.principal_dims`` (dim g is entry 1), or the rank
    once n is past the table, as in principal_fixed_dim.
    """
    dims, rank = t.principal_dims, t.rank
    end = len(dims)
    a, b, c = tr.a, tr.b, tr.c
    fixed = (dims[a] if a < end else rank, dims[b] if b < end else rank,
             dims[c] if c < end else rank)
    return weil_h1(dims[1], fixed)

