"""Tests for the directed-graph substrate (:mod:`repro.graph.digraph`)."""

from repro.graph import DiGraph


def test_add_vertices_and_edges():
    g = DiGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.has_vertex("a") and g.has_vertex("c")
    assert g.has_edge("a", "b")
    assert not g.has_edge("b", "a")
    assert g.num_vertices() == 3
    assert g.num_edges() == 2


def test_self_loops_are_ignored():
    g = DiGraph()
    g.add_edge("a", "a")
    assert g.has_vertex("a")
    assert g.num_edges() == 0


def test_duplicate_edges_counted_once():
    g = DiGraph(edges=[("a", "b"), ("a", "b")])
    assert g.num_edges() == 1


def test_successors_and_predecessors():
    g = DiGraph(edges=[("a", "b"), ("a", "c"), ("c", "b")])
    # Neighbour iteration is edge-insertion order, not hash order.
    assert g.successors("a") == ("b", "c")
    assert g.predecessors("b") == ("a", "c")


def test_neighbour_order_is_edge_insertion_order():
    g = DiGraph()
    for dst in ("z", "m", "a", "q"):
        g.add_edge("hub", dst)
    assert g.successors("hub") == ("z", "m", "a", "q")
    g.remove_edge("hub", "m")
    g.add_edge("hub", "m")
    assert g.successors("hub") == ("z", "a", "q", "m")
    assert g.predecessors("m") == ("hub",)


def test_remove_vertex_removes_incident_edges():
    g = DiGraph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
    g.remove_vertex("b")
    assert not g.has_vertex("b")
    assert g.has_edge("c", "a")
    assert not g.has_edge("a", "b")
    assert g.num_edges() == 1


def test_remove_edge():
    g = DiGraph(edges=[("a", "b"), ("b", "a")])
    g.remove_edge("a", "b")
    assert not g.has_edge("a", "b")
    assert g.has_edge("b", "a")


def test_copy_is_independent():
    g = DiGraph(edges=[("a", "b")])
    h = g.copy()
    h.add_edge("b", "c")
    assert not g.has_vertex("c")
    assert h.has_edge("b", "c")


def test_equality_ignores_insertion_order():
    g = DiGraph(edges=[("a", "b"), ("b", "c")])
    h = DiGraph(edges=[("b", "c"), ("a", "b")])
    assert g == h


def test_without_vertices_and_edges():
    g = DiGraph.complete(["a", "b", "c", "d"])
    residual = g.without(vertices=["d"], edges=[("a", "b")])
    assert not residual.has_vertex("d")
    assert not residual.has_edge("a", "b")
    assert residual.has_edge("b", "a")
    # Original graph unchanged.
    assert g.has_vertex("d") and g.has_edge("a", "b")


def test_complete_graph():
    g = DiGraph.complete(["a", "b", "c"])
    assert g.num_edges() == 6
    for p in "abc":
        for q in "abc":
            assert g.has_edge(p, q) == (p != q)


def test_contains_and_len():
    g = DiGraph(vertices=["a", "b"])
    assert "a" in g
    assert "z" not in g
    assert len(g) == 2
