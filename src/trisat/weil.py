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
subvariety of elements of order dividing a.

The value types every deformation route shares live here too: Triple,
CohomologyReport, and the verdict (Status, Verdict) that each route returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootsys import DynkinType, adjoint_dim, exponents


@dataclass(frozen=True)
class Triple:
    """An ordered hyperbolic triple (a, b, c), normalized to a <= b <= c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        vals = (self.a, self.b, self.c)
        if not all(isinstance(v, int) and v >= 2 for v in vals):
            raise ValueError(f"triple entries must be integers >= 2, got {vals}")
        a, b, c = sorted(vals)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        # hyperbolic: 1/a + 1/b + 1/c < 1, exactly
        if b * c + a * c + a * b >= a * b * c:
            raise ValueError(f"({a},{b},{c}) is not hyperbolic")

    @classmethod
    def parse(cls, text: str) -> "Triple":
        parts = [p for p in text.replace(" ", "").split(",") if p]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated integers, got {text!r}")
        return cls(*(int(p) for p in parts))

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


@lru_cache(maxsize=None)
def principal_fixed_dim(t: DynkinType, n: int) -> int:
    """Fixed-space dimension of an order-n generator under the principal action.

    Equals sum_j (1 + 2*floor(e_j / n)) over the exponents of ``t``.  The
    value is memoised per (t, n), so callers share it; a refusal is not
    memoised, so every call with n < 2 raises again.
    """
    if n < 2:
        raise ValueError(f"generator order must be >= 2, got {n}")
    return sum(1 + 2 * (e // n) for e in exponents(t))


@lru_cache(maxsize=None)
def weil_h1(dim_g: int, fixed: tuple[int, int, int]) -> CohomologyReport:
    """Apply Weil's Z^1/H^1 formulas to explicit fixed-space dimensions.

    The invariants are taken as i = i* = 0: every action fed into the
    formula here has trivial invariants (dense or principal image in a
    simple adjoint group).  The report is memoised per (dim_g, fixed), so
    callers share it (it is frozen) and ``fixed`` must be a tuple; a refusal
    is not memoised, so every call with inconsistent fixed dims raises again.
    """
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
    fixed-space sums; the invariants vanish for the principal action.
    """
    fixed = (principal_fixed_dim(t, tr.a), principal_fixed_dim(t, tr.b),
             principal_fixed_dim(t, tr.c))
    return weil_h1(adjoint_dim(t), fixed)

