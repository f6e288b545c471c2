"""Directed-graph substrate: the network graph and residual-graph algorithms."""

from .digraph import DiGraph, reachable_from
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

__all__ = [
    "BitsetDiGraph",
    "DiGraph",
    "MaskReindex",
    "ProcessIndex",
    "closure_mask",
    "component_containing",
    "component_masks",
    "iter_bits",
    "popcount",
    "reachable_from",
]
