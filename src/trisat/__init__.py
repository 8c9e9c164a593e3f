"""trisat: exact saturation tests for hyperbolic triangle groups.

Decides whether the triangle group T_{a,b,c} is saturated with finite
simple quotients of a given Dynkin type, by exact integer computation of
first-cohomology dimensions along three deformation routes: principal
ladders, SO(2k+1) x SO(2r-2k-1) embeddings in type D, and alternating
group quotients inside odd orthogonal groups.
"""

from .altmethod import alt_saturation_check, h1_alt, perm_eigenvalues_on_standard
from .bibi import (
    BibiConfig,
    EigenvalueMultiset,
    bibi_criterion,
    h1_bibi,
    principal_block_eigenvalues,
    search_bibi,
    so_fixed_dim,
)
from .fixtures import check_table
from .permgrp import (
    CycleType,
    GenerationWitness,
    NonGenerated,
    NotFound,
    Permutation,
    Refuted,
    cycle_type,
    cycle_types_of_order,
    find_generating_triple,
    group_order,
    lex_min_of_type,
    prove_non_generation,
    scott_min_sum,
)
from .rootsys import DynkinType, adjoint_dim, all_types, exponents
from .saturation import Status, Verdict, classify_ladder, decide, ladder_verdict
from .weil import (
    CohomologyReport,
    Triple,
    codim_order_variety,
    h1_principal,
    principal_fixed_dim,
    weil_h1,
)

__version__ = "0.1.0"

__all__ = [
    "BibiConfig",
    "CohomologyReport",
    "CycleType",
    "DynkinType",
    "EigenvalueMultiset",
    "GenerationWitness",
    "NonGenerated",
    "NotFound",
    "Permutation",
    "Refuted",
    "Status",
    "Triple",
    "Verdict",
    "adjoint_dim",
    "all_types",
    "alt_saturation_check",
    "bibi_criterion",
    "check_table",
    "classify_ladder",
    "codim_order_variety",
    "cycle_type",
    "cycle_types_of_order",
    "decide",
    "exponents",
    "find_generating_triple",
    "group_order",
    "h1_alt",
    "h1_bibi",
    "h1_principal",
    "ladder_verdict",
    "lex_min_of_type",
    "perm_eigenvalues_on_standard",
    "principal_block_eigenvalues",
    "principal_fixed_dim",
    "prove_non_generation",
    "scott_min_sum",
    "search_bibi",
    "so_fixed_dim",
    "weil_h1",
]
