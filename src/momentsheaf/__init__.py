"""momentsheaf: exact intersection-cohomology sheaves on moment graphs.

The package computes the canonical sheaf on a moment graph (vertex modules
are free graded modules over Q[x1..xn], edges carry quotient rings along
their direction forms), reads off local and global equivariant intersection
cohomology, and cross-checks the resulting Kazhdan-Lusztig polynomials
against an independent Hecke-algebra recursion.
"""

from .coxeter import (
    CartanDatum,
    Reflection,
    WeylElement,
    WeylGroup,
    bruhat_leq,
    build_weyl_group,
    minimal_coset_reps,
    weyl_group,
)
from .errors import ConsistencyError, ResourceCapError, ValidationError
from .hecke_oracle import KLTable, kl_polynomial, parabolic_kl
from .klpoly import KLPolynomial
from .moment_graph import (
    MomentGraph,
    Subgraph,
    above,
    above_punctured,
    interval,
    load_graph,
    planar_family,
    planar_slice,
    save_graph,
    schubert_moment_graph,
    to_dot,
    up_edges,
    whole,
)
from .sheaf import (
    GammaSheaf,
    GradedFreeModule,
    RhoMap,
    SectionSpace,
    boundary_image,
    canonical_sheaf,
    check_sections,
    global_hilbert,
    monotonicity_check,
    planar_image,
    polygon_image,
    sections,
    sheaf_dump,
    stalk_poincare,
    stalk_table_csv,
    structure_sheaf,
    verify_pure,
    vpath_map,
)

__all__ = [
    "CartanDatum",
    "ConsistencyError",
    "GammaSheaf",
    "GradedFreeModule",
    "KLPolynomial",
    "KLTable",
    "MomentGraph",
    "Reflection",
    "ResourceCapError",
    "RhoMap",
    "SectionSpace",
    "Subgraph",
    "ValidationError",
    "WeylElement",
    "WeylGroup",
    "above",
    "above_punctured",
    "boundary_image",
    "bruhat_leq",
    "build_weyl_group",
    "canonical_sheaf",
    "check_sections",
    "global_hilbert",
    "interval",
    "kl_polynomial",
    "load_graph",
    "minimal_coset_reps",
    "monotonicity_check",
    "parabolic_kl",
    "planar_family",
    "planar_image",
    "planar_slice",
    "polygon_image",
    "save_graph",
    "schubert_moment_graph",
    "sections",
    "sheaf_dump",
    "stalk_poincare",
    "stalk_table_csv",
    "structure_sheaf",
    "to_dot",
    "up_edges",
    "verify_pure",
    "vpath_map",
    "weyl_group",
    "whole",
]

__version__ = "0.1.0"
