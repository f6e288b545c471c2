"""The network graph as sets: the form ``src/`` hands back to its callers.

The paper works with the *network graph* ``G = (P, C)`` whose vertices are
processes and whose edges are unidirectional channels, and with *residual
graphs* ``G \\ f`` obtained by deleting the processes and channels that a
failure pattern ``f`` allows to fail.  ``src/`` decides on their bitmask form,
:class:`~repro.graph.BitsetDiGraph`; :class:`DiGraph` is what
:attr:`FailProneSystem.graph <repro.failures.FailProneSystem.graph>` and
``residual_graph`` hand out (built by :meth:`BitsetDiGraph.to_digraph`), and
:func:`reachable_from` is the one traversal kept on it.  The set-based
algorithms the bitmask layer is tested against live with the tests.

Iteration is deterministic: vertex order is insertion order and neighbour
order edge-insertion order (the adjacency is dict-backed, never a hash set, so
no traversal depends on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..types import Channel, ProcessId


class DiGraph:
    """A simple directed graph over hashable vertices.

    Parameters
    ----------
    vertices:
        Initial vertices. Optional; vertices are also added implicitly by
        :meth:`add_edge`.
    edges:
        Initial ``(src, dst)`` edges.
    """

    def __init__(
        self,
        vertices: Optional[Iterable[ProcessId]] = None,
        edges: Optional[Iterable[Channel]] = None,
    ) -> None:
        # Adjacency is dict-of-dicts (values unused): a dict preserves
        # insertion order, so every neighbour iteration is deterministic.
        self._succ: Dict[ProcessId, Dict[ProcessId, None]] = {}
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for src, dst in edges:
                self.add_edge(src, dst)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: ProcessId) -> None:
        """Add vertex ``v`` (no-op if already present)."""
        if v not in self._succ:
            self._succ[v] = {}

    def add_edge(self, src: ProcessId, dst: ProcessId) -> None:
        """Add the directed edge ``src -> dst``; endpoints are added as needed.

        Self-loops are ignored: the paper's channel set contains only channels
        between distinct processes, and a self-loop never affects reachability.
        """
        if src == dst:
            self.add_vertex(src)
            return
        self.add_vertex(src)
        self.add_vertex(dst)
        self._succ[src][dst] = None

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> List[ProcessId]:
        """Vertices in insertion order."""
        return list(self._succ)

    @property
    def vertex_set(self) -> FrozenSet[ProcessId]:
        """Vertices as a frozen set."""
        return frozenset(self._succ)

    def edges(self) -> Iterator[Channel]:
        """Iterate over all ``(src, dst)`` edges."""
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def edge_set(self) -> FrozenSet[Channel]:
        """All edges as a frozen set."""
        return frozenset(self.edges())

    def has_vertex(self, v: ProcessId) -> bool:
        """Return whether ``v`` is a vertex of the graph."""
        return v in self._succ

    def successors(self, v: ProcessId) -> Tuple[ProcessId, ...]:
        """Out-neighbours of ``v``, in deterministic edge-insertion order."""
        return tuple(self._succ.get(v, ()))

    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._succ)

    def num_edges(self) -> int:
        """Number of edges."""
        return sum(len(dsts) for dsts in self._succ.values())

    def __contains__(self, v: ProcessId) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.vertex_set == other.vertex_set and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:  # pragma: no cover - graphs are rarely hashed
        return hash((self.vertex_set, self.edge_set()))

    def __repr__(self) -> str:
        return "DiGraph(|V|={}, |E|={})".format(self.num_vertices(), self.num_edges())

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
