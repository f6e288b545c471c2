"""Directed-graph substrate: the network graph and residual-graph algorithms."""

from .digraph import DiGraph
from .bitset import (
    BitsetDiGraph,
    MaskReindex,
    ProcessIndex,
    closure_mask,
    component_containing,
    component_masks,
    iter_bits,
    popcount,
)
from .connectivity import (
    can_reach,
    condensation,
    has_path,
    is_strongly_connected,
    mutually_reachable,
    reachable_from,
    scc_of,
    set_reaches_set,
    strongly_connected_components,
    transitive_closure,
)

__all__ = [
    "BitsetDiGraph",
    "DiGraph",
    "MaskReindex",
    "ProcessIndex",
    "can_reach",
    "closure_mask",
    "component_containing",
    "component_masks",
    "condensation",
    "has_path",
    "is_strongly_connected",
    "iter_bits",
    "mutually_reachable",
    "popcount",
    "reachable_from",
    "scc_of",
    "set_reaches_set",
    "strongly_connected_components",
    "transitive_closure",
]
