"""Capacity outer bounds for private quadratic monomial computation.

Evaluates the order-dependent outer bound on the rate of privately retrieving
one quadratic monomial W^(k) W^(l) of f uniform F_q messages from n
databases, and searches for monomial orderings that minimize it.
"""
from .bound import BoundParams, BoundReport, capacity_outer_bound, partial_bound
from .coloring import ColorPartition, color_sets, color_sets_even, color_sets_odd, ec_order, validate_coloring
from .entropy import EntropyCache
from .graphs import (
    Graph,
    all_edges,
    chromatic_index,
    connected_components,
    cycle_census,
    distance,
    edge_count,
    edge_from_index,
    edge_index,
    induced_cycle_vector,
    is_matching,
    is_near_perfect_matching,
    is_perfect_matching,
    matching_size,
    periphery,
    simple_path_counts,
)
from .search import (
    SearchConfig,
    SearchResult,
    count_distinct_paths,
    count_graph_classes,
    directed_random_search,
    e_ec_search,
    ebg_order,
    exhaustive_search,
    ldf_order,
    order_inner_edges,
)

__version__ = "1.0.0"

__all__ = [
    "BoundParams",
    "BoundReport",
    "ColorPartition",
    "EntropyCache",
    "Graph",
    "SearchConfig",
    "SearchResult",
    "all_edges",
    "capacity_outer_bound",
    "chromatic_index",
    "color_sets",
    "color_sets_even",
    "color_sets_odd",
    "connected_components",
    "count_distinct_paths",
    "count_graph_classes",
    "cycle_census",
    "directed_random_search",
    "distance",
    "e_ec_search",
    "ebg_order",
    "ec_order",
    "edge_count",
    "edge_from_index",
    "edge_index",
    "exhaustive_search",
    "induced_cycle_vector",
    "is_matching",
    "is_near_perfect_matching",
    "is_perfect_matching",
    "ldf_order",
    "matching_size",
    "order_inner_edges",
    "partial_bound",
    "periphery",
    "simple_path_counts",
    "validate_coloring",
]
