"""The network graph as sets: the form ``residual_graph`` hands back.

The paper works with the *network graph* ``G = (P, C)`` whose vertices are
processes and whose edges are unidirectional channels, and with *residual
graphs* ``G \\ f`` obtained by deleting the processes and channels that a
failure pattern ``f`` allows to fail.  ``src/`` decides on their bitmask form,
:class:`~repro.graph.BitsetDiGraph`; :class:`DiGraph` is what
:meth:`FailProneSystem.residual_graph
<repro.failures.FailProneSystem.residual_graph>` hands out (built by
:meth:`BitsetDiGraph.to_digraph`), and :func:`reachable_from` is the one
traversal kept on it.  The set-based container and algorithms the bitmask
layer is tested against live with the tests.

Iteration is deterministic: neighbour order is edge-insertion order (the
adjacency is dict-backed, never a hash set, so no traversal depends on
``PYTHONHASHSEED``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..types import Channel, ProcessId


class DiGraph:
    """A directed graph over ``vertices`` with the ``(src, dst)`` ``edges``.

    An edge's endpoints become vertices too; self-loops are ignored (the
    paper's channel set holds only channels between distinct processes).
    """

    def __init__(self, vertices: Iterable[ProcessId], edges: Iterable[Channel]) -> None:
        # Adjacency is dict-of-dicts (values unused): a dict preserves
        # insertion order, so every neighbour iteration is deterministic.
        succ: Dict[ProcessId, Dict[ProcessId, None]] = {v: {} for v in vertices}
        for src, dst in edges:
            targets = succ.setdefault(src, {})
            succ.setdefault(dst, {})
            if src != dst:
                targets[dst] = None
        self._succ = succ

    def has_vertex(self, v: ProcessId) -> bool:
        """Return whether ``v`` is a vertex of the graph."""
        return v in self._succ

    def successors(self, v: ProcessId) -> Tuple[ProcessId, ...]:
        """Out-neighbours of ``v``, in deterministic edge-insertion order."""
        return tuple(self._succ.get(v, ()))


def reachable_from(graph: DiGraph, sources: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
    """Return every vertex reachable from any vertex in ``sources``.

    Sources themselves are always included (a vertex reaches itself via the
    empty path).  Sources that are not vertices of ``graph`` are ignored.
    """
    frontier = [v for v in sources if graph.has_vertex(v)]
    seen: Set[ProcessId] = set(frontier)
    while frontier:
        v = frontier.pop()
        for w in graph.successors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)
