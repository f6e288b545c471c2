"""Set-based connectivity algorithms: the oracle the bitmask view is tested against.

Everything the paper needs from graph theory, written the obvious way on this
module's own set-based container, :class:`SetGraph`:

* the network graph ``G`` of a system (:func:`network`) and the residual graph
  ``G \\ f`` by set subtraction (:func:`without`, :func:`residual`);
* forward/backward reachability (:func:`reachable_from`, :func:`can_reach`);
* strongly connected components via an iterative Tarjan algorithm
  (:func:`strongly_connected_components`);
* the condensation DAG (:func:`condensation`);
* convenience predicates :func:`is_strongly_connected`,
  :func:`mutually_reachable` and :func:`set_reaches_set` that map directly
  onto the paper's ``f``-availability and ``f``-reachability.

Production code decides on :class:`~repro.graph.BitsetDiGraph` masks and calls
none of these.  A system's network is read from its public serialized form
(:func:`repro.serialization.fail_prone_system_to_dict`: the process list and,
for a sparse network, the channel list), and a residual is subtracted here
from that network, never taken from the system's own residuals, so the
oracle shares no container and no traversal with what ships.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.serialization import fail_prone_system_to_dict
from repro.types import Channel, ProcessId

#: Per fail-prone system (alive): its network graph and the residuals
#: subtracted from it so far, keyed by pattern.
_RESIDUALS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class SetGraph:
    """A directed graph over hashable vertices, as an adjacency dict of dicts.

    Vertex order is insertion order and neighbour order edge-insertion order
    (values unused: a dict, never a hash set), so no traversal depends on
    ``PYTHONHASHSEED``.  Self-loops are ignored: the paper's channel set holds
    only channels between distinct processes.
    """

    def __init__(self, vertices: Iterable[ProcessId] = (), edges: Iterable[Channel] = ()) -> None:
        self._succ: Dict[ProcessId, Dict[ProcessId, None]] = {}
        for v in vertices:
            self.add_vertex(v)
        for src, dst in edges:
            self.add_edge(src, dst)

    def add_vertex(self, v: ProcessId) -> None:
        self._succ.setdefault(v, {})

    def add_edge(self, src: ProcessId, dst: ProcessId) -> None:
        self.add_vertex(src)
        self.add_vertex(dst)
        if src != dst:
            self._succ[src][dst] = None

    @property
    def vertices(self) -> List[ProcessId]:
        return list(self._succ)

    @property
    def vertex_set(self) -> FrozenSet[ProcessId]:
        return frozenset(self._succ)

    def edges(self) -> Iterator[Channel]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def edge_set(self) -> FrozenSet[Channel]:
        return frozenset(self.edges())

    def has_vertex(self, v: ProcessId) -> bool:
        return v in self._succ

    def successors(self, v: ProcessId) -> Tuple[ProcessId, ...]:
        return tuple(self._succ.get(v, ()))

    def num_vertices(self) -> int:
        return len(self._succ)

    def num_edges(self) -> int:
        return sum(len(dsts) for dsts in self._succ.values())

    def __contains__(self, v: ProcessId) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetGraph):
            return NotImplemented
        return self.vertex_set == other.vertex_set and self.edge_set() == other.edge_set()


def copy_of(graph, vertices: Iterable[ProcessId]) -> SetGraph:
    """What ``graph`` shows through ``has_vertex`` and ``successors`` (all a
    shipped ``residual_graph`` offers) over the candidate ``vertices``, as an
    oracle container."""
    present = [v for v in vertices if graph.has_vertex(v)]
    return SetGraph(present, ((v, w) for v in present for w in graph.successors(v)))


def without(
    graph: SetGraph, vertices: Iterable[ProcessId] = (), edges: Iterable[Channel] = ()
) -> SetGraph:
    """A copy of ``graph`` without ``vertices`` (and their edges) and ``edges``.

    The residual graph ``G \\ f`` when ``vertices`` are the crash-prone
    processes and ``edges`` the disconnect-prone channels of ``f``.
    """
    removed_vertices = set(vertices)
    removed_edges = set(edges)
    return SetGraph(
        (v for v in graph.vertices if v not in removed_vertices),
        (
            (src, dst)
            for src, dst in graph.edges()
            if src not in removed_vertices
            and dst not in removed_vertices
            and (src, dst) not in removed_edges
        ),
    )


def network(system) -> SetGraph:
    """The network graph of ``system``, built once from its serialized form:
    the ``"channels"`` list, or every ordered pair of distinct processes when
    the network is complete and lists none."""
    return _memo(system)[0]


def residual(system, pattern) -> SetGraph:
    """``G \\ f`` for ``pattern`` subtracted from :func:`network`; memoized per
    ``(system, pattern)`` and shared, so treat it as immutable."""
    graph, residuals = _memo(system)
    cached = residuals.get(pattern)
    if cached is None:
        cached = residuals[pattern] = without(
            graph, pattern.crash_prone, pattern.disconnect_prone
        )
    return cached


def _memo(system) -> Tuple[SetGraph, Dict[object, SetGraph]]:
    memo = _RESIDUALS.get(system)
    if memo is None:
        data = fail_prone_system_to_dict(system)
        processes = data["processes"]
        channels = data.get("channels")
        if channels is None:
            channels = [(p, q) for p in processes for q in processes if p != q]
        graph = SetGraph(processes, (tuple(channel) for channel in channels))
        memo = _RESIDUALS[system] = (graph, {})
    return memo


def reachable_from(graph: SetGraph, sources: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
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


def can_reach(graph: SetGraph, targets: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
    """Return every vertex from which some vertex in ``targets`` is reachable.

    A forward walk over the reversed edges, built here from :meth:`SetGraph.edges`.
    """
    predecessors: Dict[ProcessId, List[ProcessId]] = {}
    for src, dst in graph.edges():
        predecessors.setdefault(dst, []).append(src)
    frontier = [v for v in targets if graph.has_vertex(v)]
    seen: Set[ProcessId] = set(frontier)
    while frontier:
        v = frontier.pop()
        for w in predecessors.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def has_path(graph: SetGraph, src: ProcessId, dst: ProcessId) -> bool:
    """Return whether there is a directed path from ``src`` to ``dst``."""
    if not graph.has_vertex(src) or not graph.has_vertex(dst):
        return False
    return dst in reachable_from(graph, [src])


def strongly_connected_components(graph: SetGraph) -> List[FrozenSet[ProcessId]]:
    """Return the strongly connected components of ``graph``.

    Uses an iterative version of Tarjan's algorithm so that deep graphs do not
    overflow the Python call stack.  Components are returned in reverse
    topological order of the condensation (Tarjan's natural output order); the
    partition itself is what callers rely on.
    """
    index_counter = 0
    index: Dict[ProcessId, int] = {}
    lowlink: Dict[ProcessId, int] = {}
    on_stack: Set[ProcessId] = set()
    stack: List[ProcessId] = []
    components: List[FrozenSet[ProcessId]] = []

    for root in graph.vertices:
        if root in index:
            continue
        # Each work-stack entry is (vertex, iterator over successors).
        work: List[Tuple[ProcessId, List[ProcessId]]] = [(root, list(graph.successors(root)))]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, succs = work[-1]
            advanced = False
            while succs:
                w = succs.pop()
                if w not in index:
                    index[w] = lowlink[w] = index_counter
                    index_counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, list(graph.successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component: Set[ProcessId] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(frozenset(component))
    return components


def scc_of(graph: SetGraph, vertex: ProcessId) -> FrozenSet[ProcessId]:
    """Return the strongly connected component containing ``vertex``.

    Raises ``KeyError`` if ``vertex`` is not a vertex of the graph.
    """
    if not graph.has_vertex(vertex):
        raise KeyError(vertex)
    forward = reachable_from(graph, [vertex])
    backward = can_reach(graph, [vertex])
    return frozenset(forward & backward)


def condensation(graph: SetGraph) -> Tuple[SetGraph, Dict[ProcessId, int]]:
    """Return the condensation DAG and the vertex -> component-index mapping.

    Component indices follow the order returned by
    :func:`strongly_connected_components`.
    """
    components = strongly_connected_components(graph)
    membership: Dict[ProcessId, int] = {}
    for i, comp in enumerate(components):
        for v in comp:
            membership[v] = i
    dag = SetGraph(range(len(components)))
    for src, dst in graph.edges():
        ci, cj = membership[src], membership[dst]
        if ci != cj:
            dag.add_edge(ci, cj)
    return dag, membership


def is_strongly_connected(graph: SetGraph, vertices: Iterable[ProcessId]) -> bool:
    """Return whether all ``vertices`` are mutually reachable in ``graph``.

    Note: following the paper (which assumes message forwarding, i.e. a
    transitive connectivity relation), the test is mutual reachability *within
    the whole graph*, not strong connectivity of the induced subgraph.  The
    empty set and singletons are trivially strongly connected.
    """
    return mutually_reachable(graph, vertices)


def mutually_reachable(graph: SetGraph, vertices: Iterable[ProcessId]) -> bool:
    """Return whether every vertex in ``vertices`` can reach every other one."""
    vs = list(dict.fromkeys(vertices))
    if len(vs) <= 1:
        return all(graph.has_vertex(v) for v in vs)
    if not all(graph.has_vertex(v) for v in vs):
        return False
    anchor = vs[0]
    forward = reachable_from(graph, [anchor])
    backward = can_reach(graph, [anchor])
    return all(v in forward and v in backward for v in vs)


def set_reaches_set(
    graph: SetGraph, sources: Iterable[ProcessId], targets: Iterable[ProcessId]
) -> bool:
    """Return whether *every* target is reachable from *every* source.

    This is the paper's ``f``-reachability shape: a write quorum ``W`` is
    ``f``-reachable from a read quorum ``R`` when every member of ``W`` can be
    reached by every member of ``R`` via a directed path in the residual graph.
    """
    srcs = list(dict.fromkeys(sources))
    tgts = set(targets)
    if not all(graph.has_vertex(v) for v in srcs):
        return False
    if not all(graph.has_vertex(v) for v in tgts):
        return False
    for src in srcs:
        reach = reachable_from(graph, [src])
        if not tgts <= reach:
            return False
    return True


def transitive_closure(graph: SetGraph) -> SetGraph:
    """Return the transitive closure of ``graph``.

    The paper assumes (w.l.o.g.) that connectivity is transitive because
    processes forward every message they receive; taking the closure of a
    residual graph models that assumption explicitly.
    """
    closure = SetGraph(graph.vertices)
    for v in graph.vertices:
        for w in reachable_from(graph, [v]):
            if v != w:
                closure.add_edge(v, w)
    return closure
