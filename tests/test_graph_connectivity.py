"""Tests for the set-based reachability and SCC algorithms (:mod:`oracles.graph`),
and for the one of them the package still exports."""

from repro import graph as shipped

from oracles.graph import (
    SetGraph,
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
    without,
)


def chain(*vertices, container=SetGraph):
    return container([], list(zip(vertices, vertices[1:])))


def test_reachable_from_simple_chain():
    for reach, container in (
        (reachable_from, SetGraph), (shipped.reachable_from, shipped.DiGraph)
    ):
        g = chain("a", "b", "c", container=container)
        assert reach(g, ["a"]) == frozenset({"a", "b", "c"})
        assert reach(g, ["c"]) == frozenset({"c"})


def test_reachable_from_ignores_unknown_sources():
    for reach, container in (
        (reachable_from, SetGraph), (shipped.reachable_from, shipped.DiGraph)
    ):
        assert reach(chain("a", "b", container=container), ["z"]) == frozenset()


def test_can_reach_is_reverse_reachability():
    g = chain("a", "b", "c")
    assert can_reach(g, ["c"]) == frozenset({"a", "b", "c"})
    assert can_reach(g, ["a"]) == frozenset({"a"})


def test_has_path():
    g = chain("a", "b", "c")
    assert has_path(g, "a", "c")
    assert not has_path(g, "c", "a")
    assert not has_path(g, "a", "z")


def test_scc_partition_of_two_cycles():
    g = SetGraph(edges=[("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("b", "c")])
    comps = strongly_connected_components(g)
    assert sorted(map(sorted, comps)) == [["a", "b"], ["c", "d"]]


def test_scc_singletons_in_dag():
    g = chain("a", "b", "c")
    comps = strongly_connected_components(g)
    assert len(comps) == 3
    assert all(len(c) == 1 for c in comps)


def test_scc_of_vertex():
    g = SetGraph(edges=[("a", "b"), ("b", "a"), ("b", "c")])
    assert scc_of(g, "a") == frozenset({"a", "b"})
    assert scc_of(g, "c") == frozenset({"c"})


def test_scc_of_unknown_vertex_raises():
    g = SetGraph(vertices=["a"])
    try:
        scc_of(g, "z")
    except KeyError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected KeyError")


def test_condensation_is_a_dag():
    g = SetGraph(edges=[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")])
    dag, membership = condensation(g)
    assert membership["a"] == membership["b"]
    assert membership["c"] == membership["d"]
    assert membership["a"] != membership["c"]
    assert (membership["b"], membership["c"]) in dag.edge_set()
    # No edges back: acyclic.
    assert (membership["c"], membership["b"]) not in dag.edge_set()


def test_mutual_reachability_uses_whole_graph_paths():
    # a and c are mutually reachable only through b, which is outside the set.
    g = SetGraph(edges=[("a", "b"), ("b", "c"), ("c", "b"), ("b", "a")])
    assert mutually_reachable(g, {"a", "c"})
    assert is_strongly_connected(g, {"a", "b", "c"})


def test_mutual_reachability_failure():
    g = chain("a", "b", "c")
    assert not mutually_reachable(g, {"a", "c"})


def test_singleton_and_empty_sets_strongly_connected():
    g = SetGraph(vertices=["a"])
    assert mutually_reachable(g, {"a"})
    assert mutually_reachable(g, set())
    assert not mutually_reachable(g, {"z"})


def test_set_reaches_set():
    g = SetGraph(edges=[("r1", "w1"), ("r1", "w2"), ("r2", "w1"), ("r2", "w2")])
    assert set_reaches_set(g, {"r1", "r2"}, {"w1", "w2"})
    g = without(g, edges=[("r2", "w2")])
    # w2 still reachable from r2? no direct edge and no path.
    assert not set_reaches_set(g, {"r1", "r2"}, {"w1", "w2"})


def test_set_reaches_set_with_unknown_vertices():
    g = chain("a", "b")
    assert not set_reaches_set(g, {"a"}, {"z"})
    assert not set_reaches_set(g, {"z"}, {"b"})


def test_transitive_closure():
    g = chain("a", "b", "c")
    closure = transitive_closure(g)
    assert {("a", "c"), ("a", "b")} <= closure.edge_set()
    assert ("c", "a") not in closure.edge_set()
