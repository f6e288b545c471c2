"""Tests for the directed-graph substrate (:mod:`repro.graph.digraph`)."""

from oracles.graph import without
from repro.graph import DiGraph


def test_add_vertices_and_edges():
    g = DiGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.has_vertex("a") and g.has_vertex("c")
    assert g.edge_set() == {("a", "b"), ("b", "c")}
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


def test_successors():
    g = DiGraph(edges=[("a", "b"), ("a", "c"), ("c", "b")])
    # Neighbour iteration is edge-insertion order, not hash order.
    assert g.successors("a") == ("b", "c")
    assert g.successors("b") == ()


def test_neighbour_order_is_edge_insertion_order():
    g = DiGraph()
    for dst in ("z", "m", "a", "q"):
        g.add_edge("hub", dst)
    assert g.successors("hub") == ("z", "m", "a", "q")
    g.add_edge("hub", "m")
    assert g.successors("hub") == ("z", "m", "a", "q")


def test_equality_ignores_insertion_order():
    g = DiGraph(edges=[("a", "b"), ("b", "c")])
    h = DiGraph(edges=[("b", "c"), ("a", "b")])
    assert g == h


def test_oracle_subtraction_removes_vertices_and_edges():
    g = DiGraph(edges=[(p, q) for p in "abcd" for q in "abcd" if p != q])
    residual = without(g, vertices=["d"], edges=[("a", "b")])
    assert not residual.has_vertex("d")
    assert ("a", "b") not in residual.edge_set()
    assert ("b", "a") in residual.edge_set()
    # Original graph unchanged.
    assert g.has_vertex("d") and ("a", "b") in g.edge_set()


def test_contains_and_len():
    g = DiGraph(vertices=["a", "b"])
    assert "a" in g
    assert "z" not in g
    assert len(g) == 2
