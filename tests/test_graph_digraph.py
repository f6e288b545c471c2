"""Tests for the set-based graph containers: the oracles' own
(:class:`oracles.graph.SetGraph`) and the one ``residual_graph`` hands out
(:class:`repro.graph.DiGraph`, read only through ``has_vertex`` and
``successors``)."""

import pytest

from oracles.graph import SetGraph, without
from repro.graph import DiGraph


def test_add_vertices_and_edges():
    g = SetGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.has_vertex("a") and g.has_vertex("c")
    assert g.edge_set() == {("a", "b"), ("b", "c")}
    assert g.num_vertices() == 3
    assert g.num_edges() == 2


def test_self_loops_are_ignored():
    g = SetGraph()
    g.add_edge("a", "a")
    assert g.has_vertex("a")
    assert g.num_edges() == 0
    shipped = DiGraph([], [("a", "a")])
    assert shipped.has_vertex("a") and shipped.successors("a") == ()


def test_duplicate_edges_counted_once():
    g = SetGraph(edges=[("a", "b"), ("a", "b")])
    assert g.num_edges() == 1
    assert DiGraph([], [("a", "b"), ("a", "b")]).successors("a") == ("b",)


@pytest.mark.parametrize("container", [SetGraph, DiGraph])
def test_successors(container):
    g = container([], [("a", "b"), ("a", "c"), ("c", "b")])
    # Neighbour iteration is edge-insertion order, not hash order.
    assert g.successors("a") == ("b", "c")
    assert g.successors("b") == ()
    assert g.successors("z") == () and not g.has_vertex("z")


@pytest.mark.parametrize("container", [SetGraph, DiGraph])
def test_neighbour_order_is_edge_insertion_order(container):
    g = container(["hub"], [("hub", dst) for dst in ("z", "m", "a", "q", "m")])
    assert g.successors("hub") == ("z", "m", "a", "q")


def test_vertices_without_edges_are_vertices():
    assert DiGraph(["a", "b"], []).has_vertex("b")
    assert SetGraph(["a", "b"]).vertices == ["a", "b"]


def test_equality_ignores_insertion_order():
    g = SetGraph(edges=[("a", "b"), ("b", "c")])
    h = SetGraph(edges=[("b", "c"), ("a", "b")])
    assert g == h


def test_oracle_subtraction_removes_vertices_and_edges():
    g = SetGraph(edges=[(p, q) for p in "abcd" for q in "abcd" if p != q])
    residual = without(g, vertices=["d"], edges=[("a", "b")])
    assert not residual.has_vertex("d")
    assert ("a", "b") not in residual.edge_set()
    assert ("b", "a") in residual.edge_set()
    # Original graph unchanged.
    assert g.has_vertex("d") and ("a", "b") in g.edge_set()


def test_contains_and_len():
    g = SetGraph(vertices=["a", "b"])
    assert "a" in g
    assert "z" not in g
    assert len(g) == 2
