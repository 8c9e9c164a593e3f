"""trisat: exact saturation tests for hyperbolic triangle groups.

Decides whether the triangle group T_{a,b,c} is saturated with finite
simple quotients of a given Dynkin type, by exact integer computation of
first-cohomology dimensions along three deformation routes: principal
ladders, SO(2k+1) x SO(2r-2k-1) embeddings in type D, and alternating
group quotients inside odd orthogonal groups.

The names below are the ones the CLI calls and the types they return.
Building blocks (permutation groups, fixed dimensions, root data) are
imported from their own modules, e.g. ``from trisat.permgrp import
prove_non_generation``.
"""

from .altmethod import alt_saturation_check, h1_alt
from .bibi import BibiConfig, bibi_criterion, h1_bibi, search_bibi
from .fixtures import check_table
from .permgrp import CycleType
from .rootsys import DynkinType
from .saturation import decide, ladder_verdict
from .weil import CohomologyReport, Status, Triple, Verdict, h1_principal

__version__ = "0.1.0"

__all__ = [
    "BibiConfig",
    "CohomologyReport",
    "CycleType",
    "DynkinType",
    "Status",
    "Triple",
    "Verdict",
    "alt_saturation_check",
    "bibi_criterion",
    "check_table",
    "decide",
    "h1_alt",
    "h1_bibi",
    "h1_principal",
    "ladder_verdict",
    "search_bibi",
]
