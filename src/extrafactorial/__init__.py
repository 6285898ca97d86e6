"""Extra-factorial sums of complete weighted graphs.

Closed-form per-edge Hamiltonian-cycle length statistics (no factorial
enumeration required), together with a lazy cycle enumerator that serves as
the brute-force verification oracle at small orders.
"""

from .cycles import (
    DEFAULT_ENUMERATION_CAP,
    EdgePairKind,
    HamiltonianCycle,
    brute_force_sum_through,
    count_all,
    count_through_edge,
    count_through_pair,
    cycle_length,
    edge_pair_kind,
    enumerate_all,
    enumerate_through_edge,
    enumerate_through_pair,
)
from .efs import (
    EdgeStatistics,
    derived_graph,
    edge_statistics,
    efs_all,
    extra_factorial_sum,
    mean_length_all,
    mean_length_not_through,
    mean_length_through,
    mean_squared_length,
    summational_graph,
)
from .graph import (
    CompleteWeightedGraph,
    EdgeKey,
    build_graph,
    edge_key,
    format_weight,
    parse_graph,
    random_graph,
    serialize_graph,
)
from .profile import (
    ProfileComparison,
    RankedProfile,
    compare_profiles,
    export_profile_csv,
    ranked_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CompleteWeightedGraph",
    "DEFAULT_ENUMERATION_CAP",
    "EdgeKey",
    "EdgePairKind",
    "EdgeStatistics",
    "HamiltonianCycle",
    "ProfileComparison",
    "RankedProfile",
    "brute_force_sum_through",
    "build_graph",
    "compare_profiles",
    "count_all",
    "count_through_edge",
    "count_through_pair",
    "cycle_length",
    "derived_graph",
    "edge_key",
    "edge_pair_kind",
    "edge_statistics",
    "efs_all",
    "enumerate_all",
    "enumerate_through_edge",
    "enumerate_through_pair",
    "export_profile_csv",
    "extra_factorial_sum",
    "format_weight",
    "mean_length_all",
    "mean_length_not_through",
    "mean_length_through",
    "mean_squared_length",
    "parse_graph",
    "random_graph",
    "ranked_profile",
    "serialize_graph",
    "summational_graph",
    "__version__",
]
