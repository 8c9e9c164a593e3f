"""Deformation method through SO(2k+1) x SO(2r-2k-1) inside PSO(2r).

A representation of the triangle group landing in the subgroup
H = SO(2k+1) x SO(2r-2k-1) of the adjoint group of type D_r deforms to a
Zariski dense one whenever

    H^1(T, h_1) + H^1(T, h_2)  <  H^1(T, Ad o rho restricted to so_2r)

holds (with a few side conditions on k when b = 3 or (a, c) = (2, 5)).
The left side is two principal H^1 values.  For the right side, so_2r
restricted to H splits as

    so_{2k+1}  +  so_{2l+1}  +  V_1 (x) V_2,        l = r - k - 1,

and each factor acts on its standard module V_i through its order-n
principal element, with eigenvalues exp(2*pi*i*j/n) for |j| <= rank.  The
fixed dimension on each so block is the principal exponent sum of
weil.principal_fixed_dim (of type B_k, or A1 for so_3); on V_1 (x) V_2 it
is the number of pairs (j_1, j_2) with |j_1| <= k, |j_2| <= l and
n | j_1 + j_2.  Everything is integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import DynkinType, _shared
from .weil import (CohomologyReport, Status, Triple, Verdict, h1_principal,
                   principal_fixed_dim, weil_h1)


def _block_type(rank: int) -> DynkinType:
    """The shared type of so_{2*rank+1}: B_rank, or A1 for so_3 (the adjoint A1 module)."""
    return _shared("A", 1) if rank == 1 else _shared("B", rank)


@lru_cache(maxsize=None, typed=True)
def so_fixed_dim(r1: int, r2: int, n: int) -> int:
    """dim of the fixed space on so_{2(r1+r2+1)} of the order-n element of
    SO(2*r1+1) x SO(2*r2+1) that is principal in each factor.

    The two so blocks give principal exponent sums; on V_1 (x) V_2 the pairs
    (j_1, j_2) with n | j_1 + j_2 are counted through the residues of j_1.
    The value is memoised per (r1, r2, n) and their types, so callers share
    it and a float or a bool never reads an int's entry; a refusal is not
    memoised, so every call with an r1, r2 or n that is not an int, or with
    n < 2, raises again.
    """
    if any(type(x) is not int for x in (r1, r2, n)):
        raise ValueError(f"ranks and order must be ints, got {(r1, r2, n)!r}")
    blocks = principal_fixed_dim(_block_type(r1), n) + principal_fixed_dim(_block_type(r2), n)
    residues = Counter(j % n for j in range(-r1, r1 + 1))
    return blocks + sum(residues[-j % n] for j in range(-r2, r2 + 1))


@dataclass(frozen=True)
class BibiConfig:
    """Factor ranks for SO(2k+1) x SO(2(r-k-1)+1) < PSO(2r), normalized k < r-k-1."""

    r: int
    k: int

    def __post_init__(self):
        if type(self.r) is not int or self.r < 4:  # a bool or float is not a rank
            raise ValueError("need r >= 4")
        if type(self.k) is not int or self.k < 1:
            raise ValueError("need k >= 1")
        if not self.k < self.r - self.k - 1:
            raise ValueError(
                f"need k < r-k-1 (k={self.k}, r={self.r}); r = 2k+1 is excluded"
            )

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.k, self.r - self.k - 1)


def h1_bibi(cfg: BibiConfig, tr: Triple) -> CohomologyReport:
    """H^1 of T on so_2r through the product of the two principal blocks.

    so_fixed_dim gives the fixed dimension per generator order; the action
    has no invariants, so H^1 = dim so_2r minus the three fixed dimensions.
    """
    r1, r2 = cfg.ranks
    fixed = (so_fixed_dim(r1, r2, tr.a), so_fixed_dim(r1, r2, tr.b), so_fixed_dim(r1, r2, tr.c))
    return weil_h1(cfg.r * (2 * cfg.r - 1), fixed)


def _side_conditions(r1: int, r2: int, tr: Triple) -> list[str]:
    """Violated side conditions of the deformation theorem, if any, for the
    factor ranks r1 and r2."""
    violations = []
    if tr.b == 3 and (2 <= r1 <= 3 or 2 <= r2 <= 3):
        violations.append("b = 3 requires factor ranks disjoint from {2, 3}")
    if tr.c == 5 and tr.a == 2 and (r1 == 3 or r2 == 3):
        violations.append("(a, c) = (2, 5) requires no factor of rank 3")
    return violations


def bibi_criterion(cfg: BibiConfig, tr: Triple) -> Verdict:
    """Saturation test for type D_r via the SO x SO embedding.

    Saturated iff all side conditions hold and
    h1(B_k) + h1(B_{r-k-1}) < h1_bibi(cfg, tr) strictly.
    """
    r1, r2 = cfg.ranks
    report = h1_bibi(cfg, tr)
    # SO(3) = PGL_2 is locally rigid (H^1 = 0); the rank-3 factor rides G2 < B3,
    # whose deformed H^1 is the principal one where the side conditions hold
    lhs_parts = (h1_principal(_block_type(r1), tr).h1, h1_principal(_block_type(r2), tr).h1)
    lhs = sum(lhs_parts)
    cert = {
        "r": cfg.r,
        "k": cfg.k,
        "factors": [f"B{r1}", f"B{r2}"],
        "triple": list(tr.orders),
        "lhs": lhs,
        "lhs_parts": list(lhs_parts),
        "rhs": report.h1,
        "fixed": list(report.fixed_dims),
    }
    violations = _side_conditions(r1, r2, tr)
    if violations:
        cert["side_conditions"] = violations
        return Verdict(Status.UNKNOWN, "bibi", cert)
    if lhs < report.h1:
        return Verdict(Status.SATURATED, "bibi", cert)
    cert["reason"] = "inequality not strict"
    return Verdict(Status.UNKNOWN, "bibi", cert)


def search_bibi(r: int, tr: Triple) -> Verdict:
    """Try every admissible k ascending; first Saturated wins.

    Unknown verdicts carry the per-k reasons so the search can be replayed.
    """
    if type(r) is not int or r < 4:  # a bool, float or str is not a rank, as in BibiConfig
        raise ValueError("need r >= 4")
    attempts = []
    for k in range(1, r // 2):
        verdict = bibi_criterion(BibiConfig(r, k), tr)
        if verdict.status == Status.SATURATED:
            return verdict
        attempts.append({"k": k, "certificate": verdict.certificate})
    return Verdict(
        Status.UNKNOWN,
        "bibi",
        {"r": r, "triple": list(tr.orders), "attempts": attempts},
    )
