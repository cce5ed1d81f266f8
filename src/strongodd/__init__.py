"""Strong odd colorings: exact solvers, constructive algorithms for
tree-like graph classes, generators, and verifiers."""

from .graphs import (
    Coloring,
    DiGraph,
    Graph,
    Hypergraph,
    InputError,
    InvariantViolated,
    MultiplicityRule,
    ODD_RULE,
    PlaneGraph,
    join_with_clique,
    square,
    strong_product,
)
from .ktree import KTreeSeq, Layering, bfs_layering, build_ktree, validate_bfs_properties
from .sums import Sum, SumDesc, Summand, build_sum, natural_layering, validate_natural_properties
from .verify import (
    CheckReport,
    PartialColoring,
    is_facially_odd,
    is_hypergraph_strong_odd,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
    is_strong_odd_on_set,
    plane_to_strong_odd,
)
from .solver import (
    BudgetExceeded,
    ConstraintSet,
    SolverBudget,
    TooLarge,
    chi_exact,
    chi_iso_exact,
    chi_odd_exact,
    chi_so_constrained,
    chi_so_exact,
    enumerate_oracle,
)
from .gadgets import (
    gen_gk,
    gen_iso_gadget,
    gen_random_maximal_outerplanar,
    gen_random_partial_ktree,
)
from .treewidth import clique_coloring, color_tw, InputNotSubgraph, NotAStepClique

__all__ = [name for name in dir() if not name.startswith("_")]
