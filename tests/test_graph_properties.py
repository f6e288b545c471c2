"""Property-based tests of the graph algorithms (hypothesis)."""

from hypothesis import given, settings, strategies as st

from oracles.graph import (
    SetGraph,
    can_reach,
    mutually_reachable,
    reachable_from,
    strongly_connected_components,
    transitive_closure,
)

VERTICES = list(range(6))


@st.composite
def random_digraph(draw):
    """A random directed graph over up to 6 integer vertices."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = VERTICES[:n]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            max_size=20,
        )
    )
    return SetGraph(vertices=vertices, edges=edges)


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_sccs_partition_the_vertex_set(graph):
    comps = strongly_connected_components(graph)
    union = set()
    for comp in comps:
        assert not (union & comp), "components must be disjoint"
        union |= comp
    assert union == set(graph.vertices)


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_scc_members_are_mutually_reachable(graph):
    for comp in strongly_connected_components(graph):
        assert mutually_reachable(graph, comp)


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_reachability_is_reflexive_and_transitive(graph):
    for v in graph.vertices:
        reach = reachable_from(graph, [v])
        assert v in reach
        # Transitivity: anything reachable from a reachable vertex is reachable.
        for w in reach:
            assert reachable_from(graph, [w]) <= reach


@given(random_digraph())
@settings(max_examples=60, deadline=None)
def test_can_reach_is_converse_of_reachable_from(graph):
    for v in graph.vertices:
        for w in graph.vertices:
            assert (w in reachable_from(graph, [v])) == (v in can_reach(graph, [w]))


@given(random_digraph())
@settings(max_examples=40, deadline=None)
def test_transitive_closure_preserves_reachability(graph):
    closure = transitive_closure(graph)
    for v in graph.vertices:
        assert reachable_from(graph, [v]) == reachable_from(closure, [v])


@given(random_digraph())
@settings(max_examples=40, deadline=None)
def test_closure_edges_iff_reachable(graph):
    closure = transitive_closure(graph)
    for v in graph.vertices:
        for w in graph.vertices:
            if v == w:
                continue
            assert ((v, w) in closure.edge_set()) == (w in reachable_from(graph, [v]))
