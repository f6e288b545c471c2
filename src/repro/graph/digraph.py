"""A small directed-graph type tailored to the paper's network model.

The paper works with the *network graph* ``G = (P, C)`` whose vertices are
processes and whose edges are unidirectional channels, and with *residual
graphs* ``G \\ f`` obtained by deleting the processes and channels that a
failure pattern ``f`` allows to fail.  All connectivity notions used by the
paper (``f``-availability, ``f``-reachability, the component ``U_f``) reduce to
reachability and strongly connected components of such graphs, so this module
provides exactly those primitives with no external dependencies.

The implementation favours clarity and determinism: vertex iteration order is
insertion order, *neighbour* iteration order is edge-insertion order (the
adjacency structure is dict-backed, never a hash set, so no traversal depends
on ``PYTHONHASHSEED``), and all algorithms are iterative (no recursion) so that
large simulated networks do not hit Python's recursion limit.
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
        self._pred: Dict[ProcessId, Dict[ProcessId, None]] = {}
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
            self._pred[v] = {}

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
        self._pred[dst][src] = None

    def remove_vertex(self, v: ProcessId) -> None:
        """Remove vertex ``v`` and every incident edge."""
        if v not in self._succ:
            return
        for w in self._succ.pop(v):
            self._pred[w].pop(v, None)
        for w in self._pred.pop(v):
            self._succ[w].pop(v, None)

    def remove_edge(self, src: ProcessId, dst: ProcessId) -> None:
        """Remove the edge ``src -> dst`` if present."""
        if src in self._succ:
            self._succ[src].pop(dst, None)
        if dst in self._pred:
            self._pred[dst].pop(src, None)

    def copy(self) -> "DiGraph":
        """Return an independent copy of the graph."""
        g = DiGraph()
        for v in self._succ:
            g.add_vertex(v)
        for src, dsts in self._succ.items():
            for dst in dsts:
                g.add_edge(src, dst)
        return g

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

    def has_edge(self, src: ProcessId, dst: ProcessId) -> bool:
        """Return whether the edge ``src -> dst`` is present."""
        return src in self._succ and dst in self._succ[src]

    def successors(self, v: ProcessId) -> Tuple[ProcessId, ...]:
        """Out-neighbours of ``v``, in deterministic edge-insertion order."""
        return tuple(self._succ.get(v, ()))

    def predecessors(self, v: ProcessId) -> Tuple[ProcessId, ...]:
        """In-neighbours of ``v``, in deterministic edge-insertion order."""
        return tuple(self._pred.get(v, ()))

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

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def without(
        self,
        vertices: Iterable[ProcessId] = (),
        edges: Iterable[Channel] = (),
    ) -> "DiGraph":
        """Return a copy with the given vertices (and incident edges) and edges removed.

        This is the *residual graph* operation ``G \\ f`` of the paper when
        ``vertices`` is the set of crash-prone processes and ``edges`` the set
        of disconnection-prone channels of a failure pattern ``f``.
        """
        removed_vertices = set(vertices)
        removed_edges = set((src, dst) for src, dst in edges)
        g = DiGraph()
        for v in self._succ:
            if v not in removed_vertices:
                g.add_vertex(v)
        for src, dsts in self._succ.items():
            if src in removed_vertices:
                continue
            for dst in dsts:
                if dst in removed_vertices:
                    continue
                if (src, dst) in removed_edges:
                    continue
                g.add_edge(src, dst)
        return g

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def complete(cls, processes: Iterable[ProcessId]) -> "DiGraph":
        """The complete network graph: every ordered pair of distinct vertices.

        This is the paper's network graph ``G = (P, C)`` where ``C`` contains a
        channel for every ordered pair of processes.
        """
        procs = list(processes)
        g = cls(vertices=procs)
        for p in procs:
            for q in procs:
                if p != q:
                    g.add_edge(p, q)
        return g


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
