"""grakit: exact combinatorics and algebra of graph associahedra.

Tubes and nested sets of finite simple graphs, face and h-vectors with toric
Betti numbers, exact sparse ranks and chain complexes, the graded commutative
models of reconnectads with their gravity and hypercommutative relation
calculus, and the cellular chain complex certifying the quadratic presentations.
"""

from .engine import (
    GRCOM,
    GRGERST,
    GrComX,
    RelationSet,
    check_axioms,
    check_gravity_relations,
    derivation,
    free_weight2_basis,
    gerst_derivation_matrix,
    gravity_dims,
    gravity_generator,
    gravity_relations,
    hypercom_relations,
    relation_pairing,
)
from .exactla import ChainComplex, QMatrix, homology_dims, rank
from .graphs import (
    CapExceededError,
    DanglingEndpointError,
    DuplicateLabelError,
    EMPTY_GRAPH,
    Graph,
    GraphError,
    LoopEdgeError,
    NotConnectedError,
    automorphisms,
    connected_components,
    disjoint_union,
    family,
    induced,
    is_connected,
    make_graph,
    parse_graph,
    reconnected_complement,
)
from .groebner import (
    CobarComplex,
    boundary,
    cobar_complex,
    induction,
    is_normal,
    koszul_check,
    normal_counts,
    normal_monomials,
    reduction,
    weight2_leading_tubes,
)
from .polycomb import betti, f_vector, h_poly_from_descents, h_poly_from_f
from .tubings import (
    NestedSet,
    NestedTree,
    descents,
    enumerate_nested,
    is_nested,
    lex_key,
    maximal_nested,
    nested_set,
    nested_set_from_json,
    nested_tree,
    node_graph,
    proper_tubes,
    quadratic_divisor,
    tubes,
)

__version__ = "0.1.0"
