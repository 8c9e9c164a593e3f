"""Deformation method through SO(2k+1) x SO(2r-2k-1) inside PSO(2r).

A representation of the triangle group landing in the subgroup
H = SO(2k+1) x SO(2r-2k-1) of the adjoint group of type D_r deforms to a
Zariski dense one whenever

    H^1(T, h_1) + H^1(T, h_2)  <  H^1(T, Ad o rho restricted to so_2r)

holds (with a few side conditions on k when b = 3 or (a, c) = (2, 5)).
The left side is two principal H^1 values.  The right side is computed
exactly from eigenvalue multisets: each factor acts on its odd orthogonal
block with eigenvalues lambda^{-2k}, ..., lambda^{2k} for lambda a
primitive 2n-th root of unity, the two blocks merge over the common
modulus 2n, and the fixed-space dimension on so_2r is

    C(m_1, 2) + C(m_-1, 2) + (1/2) sum_{lambda != +-1} m_lambda^2.

All eigenvalues are tracked as integer residues modulo 2n; nothing here is
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .rootsys import DynkinType
from .weil import CohomologyReport, Status, Triple, Verdict, h1_principal, weil_h1


@dataclass(frozen=True)
class EigenvalueMultiset:
    """Eigenvalues of a finite-order orthogonal element, as residues mod N.

    Residue j stands for exp(2*pi*i*j/N).  Multiplicities must satisfy the
    real-conjugation symmetry mult(j) == mult(N - j).
    """

    modulus: int
    mults: Mapping[int, int]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        clean = {int(j): int(k) for j, k in self.mults.items() if k}
        for j, k in clean.items():
            if not 0 <= j < self.modulus:
                raise ValueError(f"residue {j} out of range mod {self.modulus}")
            if k < 0:
                raise ValueError(f"negative multiplicity at residue {j}")
            if clean.get((self.modulus - j) % self.modulus, 0) != k:
                raise ValueError(f"conjugation symmetry broken at residue {j}")
        object.__setattr__(self, "mults", dict(sorted(clean.items())))

    @property
    def dimension(self) -> int:
        return sum(self.mults.values())

    def mult(self, j: int) -> int:
        return self.mults.get(j % self.modulus, 0)

    def merge(self, other: "EigenvalueMultiset") -> "EigenvalueMultiset":
        """Union of two multisets over the same modulus."""
        if other.modulus != self.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        merged = dict(self.mults)
        for j, k in other.mults.items():
            merged[j] = merged.get(j, 0) + k
        return EigenvalueMultiset(self.modulus, merged)


def so_fixed_dim(ev: EigenvalueMultiset) -> int:
    """dim of the fixed space of Ad(t) on so_m for t with eigenvalues ``ev``.

    so_m is the antisymmetric square of the standard module, whence
    C(m_1, 2) + C(m_-1, 2) + (1/2) sum over conjugate pairs of m_lambda^2.
    """
    n = ev.modulus
    m_plus = ev.mult(0)
    m_minus = ev.mult(n // 2) if n % 2 == 0 else 0
    square_sum = 0
    for j, k in ev.mults.items():
        if j == 0 or (n % 2 == 0 and j == n // 2):
            continue
        square_sum += k * k
    if square_sum % 2:
        raise ValueError("odd sum of squared multiplicities: symmetry violated")
    return m_plus * (m_plus - 1) // 2 + m_minus * (m_minus - 1) // 2 + square_sum // 2


def principal_block_eigenvalues(rank: int, n: int) -> EigenvalueMultiset:
    """Eigenvalues of the order-n principal element of SO(2*rank+1).

    These are lambda^{2j} for j = -rank..rank with lambda a primitive
    2n-th root of unity: residues 2j mod 2n, ambient dimension 2*rank + 1.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if n < 2:
        raise ValueError("order must be >= 2")
    mod = 2 * n
    mults: dict[int, int] = {}
    for j in range(-rank, rank + 1):
        r = (2 * j) % mod
        mults[r] = mults.get(r, 0) + 1
    return EigenvalueMultiset(mod, mults)


@dataclass(frozen=True)
class BibiConfig:
    """Factor ranks for SO(2k+1) x SO(2(r-k-1)+1) < PSO(2r), normalized k < r-k-1."""

    r: int
    k: int

    def __post_init__(self):
        if self.r < 4:
            raise ValueError("need r >= 4")
        if self.k < 1:
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

    Per generator order n, the two block multisets merge over modulus 2n
    and so_fixed_dim gives the fixed dimension; the action has no
    invariants, so H^1 = dim so_2r minus the three fixed dimensions.
    """
    r1, r2 = cfg.ranks
    fixed = []
    for n in tr.orders:
        ev = principal_block_eigenvalues(r1, n).merge(principal_block_eigenvalues(r2, n))
        fixed.append(so_fixed_dim(ev))
    dim_g = cfg.r * (2 * cfg.r - 1)
    return weil_h1(dim_g, tuple(fixed))


def _side_conditions(cfg: BibiConfig, tr: Triple) -> list[str]:
    """Violated side conditions of the deformation theorem, if any."""
    violations = []
    factors = set(cfg.ranks)
    if tr.b == 3 and factors & {2, 3}:
        violations.append("b = 3 requires factor ranks disjoint from {2, 3}")
    if (tr.a, tr.c) == (2, 5) and 3 in factors:
        violations.append("(a, c) = (2, 5) requires no factor of rank 3")
    return violations


def _lhs_h1(rank: int, tr: Triple) -> int:
    """Principal H^1 of the rank-``rank`` odd orthogonal factor.

    The rank-1 factor is the standard representation into SO(3), which is
    locally rigid, so it contributes 0.  The rank-3 factor rides the
    G2 -> B3 two-step ladder, whose deformed H^1 equals the principal
    value; the side conditions guard the cases where that ladder fails.
    """
    if rank == 1:
        return 0
    return h1_principal(DynkinType("B", rank), tr).h1


def bibi_criterion(cfg: BibiConfig, tr: Triple) -> Verdict:
    """Saturation test for type D_r via the SO x SO embedding.

    Saturated iff all side conditions hold and
    h1(B_k) + h1(B_{r-k-1}) < h1_bibi(cfg, tr) strictly.
    """
    r1, r2 = cfg.ranks
    report = h1_bibi(cfg, tr)
    lhs_parts = (_lhs_h1(r1, tr), _lhs_h1(r2, tr))
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
    violations = _side_conditions(cfg, tr)
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
    if r < 4:
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
