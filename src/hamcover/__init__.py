"""hamcover: cover the edges of expander-like graphs by Hamilton cycles.

The pipeline packs edge-disjoint Hamilton cycles greedily, then covers
the leftover edges forest by forest: each round builds one linear forest
over the uncovered edges, merges it into a seed path and finds a cycle
with a rotation-extension search that protects the forest edges. Exact
brute-force oracles (subset-DP Hamiltonicity, exhaustive expansion checks)
provide the ground truth at small scale.
"""

from .graph import (
    Graph,
    GraphError,
    build_graph,
    complete_graph,
    cycle_graph,
    diameter,
    induced_subgraph,
    neighborhood_of_set,
    path_graph,
    petersen_graph,
    read_edge_list,
    write_edge_list,
)
from .gnp import ExpanderParams, RngSeed, expander_params, expander_params_for_gnp, sample_gnp
from .expansion import (
    ExpansionReport,
    diameter_bound_check,
    large_expansion_witness_search,
    peel_non_expanding,
    small_expansion_witness_search,
)
from .rotation import (
    Chord,
    ExtendAt,
    HamiltonResult,
    RotationConstraints,
    RotationError,
    Stuck,
    find_hamilton_cycle,
    rotate_until_extendable,
)
from .families import (
    ExtensionBudget,
    MergeOutcome,
    PathFamily,
    merge_into_single_path,
    reduce_family,
)
from .cover import (
    CoverCertificate,
    CoverOutcome,
    ExperimentReport,
    cover_graph,
    cover_matching,
    cover_matching_once,
    extract_packing,
    greedy_edge_coloring,
    greedy_maximal_matching,
    run_gnp_experiment,
)
from .oracle import (
    OracleVerdict,
    backtracking_hamiltonian,
    exhaustive_expansion_check,
    held_karp_hamiltonian,
    validate_cover,
    validate_family,
)

__version__ = "0.1.0"
