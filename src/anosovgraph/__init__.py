"""Decision engine and witness constructor for Anosov automorphisms of
2-step nilpotent Lie algebras built from finite simple graphs.

Pipeline: a graph's coherent components and quotient graph, a holonomy group
of graph automorphisms acting on the components, rational decomposition of
the stabilizer representations, the splitting criterion per orbit, and an
exactly certified integer witness when the criterion holds.
"""

from .analysis import AnalysisReport, analyze, quotient_dot
from .errors import (
    BoundExceeded,
    CancelToken,
    GraphInputError,
    NotAnAutomorphism,
    OperationCancelled,
    PermutationError,
    PreconditionViolation,
    SeedSearchExhausted,
    WitnessAssemblyError,
    WitnessRefused,
)
from .exactmat import RationalMatrix
from .families import (
    FamilyInstance,
    FamilySpec,
    family_I,
    family_I_modified,
    family_II,
    family_II_z4,
    generate,
)
from .graphs import (
    CoherentPartition,
    Graph,
    VertexPermutation,
    coherent_components,
    complete_bipartite,
    complete_graph,
    component_order_group,
    cycle_graph,
    discrete_graph,
    induced_component_permutation,
    is_graph_automorphism,
    parse_graph,
    parse_holonomy_generators,
    path_graph,
    prec,
    preserves_prec,
)
from .holonomy import HolonomyAction, build_action
from .hyperbolicity import (
    HyperbolicityCertificate,
    char_poly,
    exterior_square_char_poly,
    is_c_hyperbolic,
    is_integer_like,
)
from .liealg import (
    GraphLieAlgebra,
    build_algebra,
    extend_to_algebra,
    extension_char_poly,
    is_algebra_automorphism,
)
from .polynomials import IntPolynomial, parse_polynomial
from .repdecomp import (
    CyclicRepDecomposition,
    Decision,
    OrbitVerdict,
    decide,
    decompose_cyclic_perm_rep,
    orbit_verdict,
    trivial_holonomy_check,
)
from .witness import (
    Witness,
    assemble_witness,
    build_witness,
    choose_exponents,
    find_seed,
    seed_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundExceeded",
    "CancelToken",
    "CoherentPartition",
    "CyclicRepDecomposition",
    "Decision",
    "FamilyInstance",
    "FamilySpec",
    "Graph",
    "GraphInputError",
    "GraphLieAlgebra",
    "HolonomyAction",
    "HyperbolicityCertificate",
    "IntPolynomial",
    "NotAnAutomorphism",
    "OperationCancelled",
    "OrbitVerdict",
    "PermutationError",
    "PreconditionViolation",
    "RationalMatrix",
    "SeedSearchExhausted",
    "VertexPermutation",
    "Witness",
    "WitnessAssemblyError",
    "WitnessRefused",
    "analyze",
    "assemble_witness",
    "build_action",
    "build_algebra",
    "build_witness",
    "char_poly",
    "choose_exponents",
    "coherent_components",
    "complete_bipartite",
    "complete_graph",
    "component_order_group",
    "cycle_graph",
    "decide",
    "decompose_cyclic_perm_rep",
    "discrete_graph",
    "extend_to_algebra",
    "extension_char_poly",
    "exterior_square_char_poly",
    "family_I",
    "family_II",
    "family_II_z4",
    "family_I_modified",
    "find_seed",
    "generate",
    "induced_component_permutation",
    "is_algebra_automorphism",
    "is_c_hyperbolic",
    "is_graph_automorphism",
    "is_integer_like",
    "orbit_verdict",
    "parse_graph",
    "parse_holonomy_generators",
    "parse_polynomial",
    "path_graph",
    "prec",
    "preserves_prec",
    "quotient_dot",
    "seed_catalog",
    "trivial_holonomy_check",
]
