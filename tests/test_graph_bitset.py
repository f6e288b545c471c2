"""Tests for the bitmask graph view (:mod:`repro.graph.bitset`).

The bitmask layer must agree exactly with the set-based algorithms in
:mod:`oracles.graph` — it is a faster representation, never a
different semantics — so most tests here are differential over random graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    BitsetDiGraph,
    MaskReindex,
    ProcessIndex,
    closure_mask,
    component_masks,
    iter_bits,
    popcount,
)

from repro.types import sorted_channels, sorted_processes

from oracles.graph import (
    SetGraph,
    can_reach,
    copy_of,
    reachable_from,
    strongly_connected_components,
    without,
)


def _view(graph, index=None):
    """``graph`` as rows over ``index`` (default: its vertices), encoded here
    edge by edge rather than by the package."""
    if index is None:
        index = ProcessIndex(graph.vertices)
    succ, pred = [0] * len(index), [0] * len(index)
    for src, dst in graph.edges():
        i, j = index.position(src), index.position(dst)
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    return BitsetDiGraph(index, index.mask_of(graph.vertices), succ, pred)


def _network(processes, channels):
    """The network a fail-prone system encodes from a channel list."""
    from repro.failures import FailProneSystem

    return FailProneSystem(processes, [], channels).bitset_graph


def _residual(view, crashed, channels):
    """``view`` without ``crashed`` and the ``channels``, encoded by the index."""
    return view.residual_masks(*view.index.failure_masks(crashed, channels))


def _random_digraph(rng, n, edge_prob):
    names = ["v{}".format(i) for i in range(n)]
    graph = SetGraph(names)
    for src in names:
        for dst in names:
            if src != dst and rng.random() < edge_prob:
                graph.add_edge(src, dst)
    return graph


def test_iter_bits_and_popcount():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert popcount(0) == 0
    assert popcount(0b101001) == 3


def test_process_index_is_sorted_and_stable():
    index = ProcessIndex(["c", "a", "b", "a"])
    assert index.processes == ("a", "b", "c")
    assert index.position("a") == 0
    assert index.process_at(2) == "c"
    assert index.mask_of(["a", "c"]) == 0b101
    assert index.set_of(0b101) == frozenset({"a", "c"})
    assert index.sorted_list(0b110) == ["b", "c"]
    assert index.full_mask == 0b111
    assert len(index) == 3
    assert "a" in index and "z" not in index


def test_a_channel_list_round_trips_through_rows():
    channels = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    view = _network("abc", channels)
    assert view == _view(SetGraph(edges=channels))
    assert copy_of(view.to_digraph(), "abcz") == SetGraph(edges=channels)
    index = view.index
    assert popcount(view.vertex_mask) == 3
    assert view.successor_mask(index.position("a")) == index.mask_of(["b", "c"])
    assert view.predecessor_mask(index.position("c")) == index.mask_of(["a", "b"])


def test_reachability_matches_set_based_algorithms():
    rng = random.Random(5)
    for _ in range(25):
        graph = _random_digraph(rng, rng.randint(2, 9), rng.choice([0.1, 0.25, 0.5]))
        view = _view(graph)
        index = view.index
        for v in graph.vertices:
            mask = index.mask_of([v])
            assert index.set_of(view.reachable_mask(mask)) == reachable_from(graph, [v])
            assert index.set_of(view.can_reach_mask(mask)) == can_reach(graph, [v])


def test_scc_masks_match_tarjan_partition():
    rng = random.Random(11)
    for _ in range(25):
        graph = _random_digraph(rng, rng.randint(2, 9), rng.choice([0.15, 0.3, 0.6]))
        view = _view(graph)
        fast = {view.index.set_of(mask) for mask in view.scc_masks()}
        slow = set(strongly_connected_components(graph))
        assert fast == slow


def test_reader_masks_are_the_can_reach_closures_of_the_components():
    rng = random.Random(13)
    for _ in range(25):
        graph = _random_digraph(rng, rng.randint(2, 9), rng.choice([0.15, 0.3, 0.6]))
        view = _view(graph)
        index = view.index
        assert len(view.reader_masks()) == len(view.scc_masks())
        for component, readers in zip(view.scc_masks(), view.reader_masks()):
            assert index.set_of(readers) == can_reach(graph, index.set_of(component))


def test_scc_masks_order_is_canonical():
    graph = SetGraph(edges=[("d", "c"), ("c", "d"), ("a", "b"), ("b", "a"), ("b", "c")])
    view = _view(graph)
    components = [view.index.set_of(mask) for mask in view.scc_masks()]
    # Ordered by lowest member in ProcessIndex (i.e. sorted) order.
    assert components == [frozenset({"a", "b"}), frozenset({"c", "d"})]


def test_residual_matches_digraph_without():
    rng = random.Random(7)
    for _ in range(20):
        graph = _random_digraph(rng, rng.randint(3, 8), 0.4)
        view = _view(graph)
        vertices = graph.vertices
        crashed = rng.sample(vertices, rng.randint(0, len(vertices) - 1))
        survivors = [v for v in vertices if v not in crashed]
        edges = [
            (s, d)
            for s in survivors
            for d in survivors
            if (s, d) in graph.edge_set() and rng.random() < 0.3
        ]
        residual_view = _residual(view, crashed, edges)
        residual_graph = without(graph, vertices=crashed, edges=edges)
        index = view.index
        assert index.set_of(residual_view.vertex_mask) == residual_graph.vertex_set
        for v in residual_graph.vertices:
            assert index.set_of(
                residual_view.successor_mask(index.position(v))
            ) == frozenset(residual_graph.successors(v))
            assert index.set_of(
                residual_view.predecessor_mask(index.position(v))
            ) == frozenset(src for src, dst in residual_graph.edges() if dst == v)


# --------------------------------------------------------------------- #
# Failure-pattern mask encoding (the Monte Carlo bitset engine's currency)
# --------------------------------------------------------------------- #
def test_failure_masks_round_trip_on_random_fail_prone_systems():
    from repro.failures import random_fail_prone_system

    for seed in range(15):
        system = random_fail_prone_system(
            n=3 + seed % 6,
            num_patterns=4,
            crash_prob=0.3,
            disconnect_prob=0.4,
            seed=seed,
        )
        index = ProcessIndex(system.processes)
        for pattern in system:
            crash_mask, succ_clear, pred_clear = index.failure_masks(
                pattern.crash_prone, pattern.disconnect_prone
            )
            assert index.set_of(crash_mask) == pattern.crash_prone
            assert index.channels_of(succ_clear) == pattern.disconnect_prone
            # Both rows are empty, or one per position and each the other's
            # transpose: the same channels, read from the other endpoint.
            if not pattern.disconnect_prone:
                assert succ_clear == pred_clear == ()
                continue
            assert len(succ_clear) == len(pred_clear) == len(index)
            assert frozenset(
                (index.process_at(i), index.process_at(j))
                for j, row in enumerate(pred_clear)
                for i in iter_bits(row)
            ) == pattern.disconnect_prone


def test_residual_masks_match_the_oracle_with_channels_at_crashed_vertices():
    rng = random.Random(19)
    for _ in range(20):
        graph = _random_digraph(rng, rng.randint(3, 9), 0.5)
        view = _view(graph)
        index = view.index
        vertices = graph.vertices
        crashed = rng.sample(vertices, rng.randint(0, len(vertices) - 1))
        channels = [
            (s, d)
            for s in vertices
            for d in vertices
            if (s, d) in graph.edge_set() and rng.random() < 0.4
        ]
        by_mask = view.residual_masks(*index.failure_masks(crashed, channels))
        oracle = _view(without(graph, vertices=crashed, edges=channels), index)
        assert by_mask.vertex_mask == oracle.vertex_mask
        for position in range(len(index)):
            assert by_mask.successor_mask(position) == oracle.successor_mask(position)
            assert by_mask.predecessor_mask(position) == oracle.predecessor_mask(position)


def test_component_containing_picks_unique_component():
    from repro.graph import component_containing

    components = [0b0011, 0b0100, 0b1000]
    assert component_containing(components, 0b0011) == 0b0011
    assert component_containing(components, 0b0001) == 0b0011
    assert component_containing(components, 0b1000) == 0b1000
    assert component_containing(components, 0b0101) is None  # straddles two
    assert component_containing(components, 0) is None


# --------------------------------------------------------------------- #
# Word-boundary sizes: Python ints are unbounded, but 63/64/65 vertices
# are where a fixed-width implementation would clip or sign-extend.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [63, 64, 65])
def test_word_boundary_ring_reachability(n):
    names = ["v{:03d}".format(i) for i in range(n)]
    graph = SetGraph(names)
    for i in range(n):
        graph.add_edge(names[i], names[(i + 1) % n])
    view = _view(graph)
    index = view.index
    full = (1 << n) - 1
    assert index.full_mask == full
    assert popcount(full) == n
    # Every vertex reaches the whole ring, so the ring is one SCC.
    assert view.reachable_mask(1) == full
    assert view.can_reach_mask(1 << (n - 1)) == full
    assert view.scc_masks() == [full]
    # Crash the top-position vertex: the ring breaks into a path; the
    # remaining graph has n-1 singleton SCCs and the top bit is gone.
    top = index.process_at(n - 1)
    residual = _residual(view, [top], [])
    assert residual.vertex_mask == full >> 1
    assert len(residual.scc_masks()) == n - 1
    # The path still reaches forward from its head across the word boundary.
    assert residual.reachable_mask(1) == full >> 1


@pytest.mark.parametrize("n", [63, 64, 65])
def test_word_boundary_matches_set_based(n):
    rng = random.Random(n)
    names = ["v{:03d}".format(i) for i in range(n)]
    graph = SetGraph(names)
    # Sparse random graph plus a ring to keep things connected enough.
    for i in range(n):
        graph.add_edge(names[i], names[(i + 1) % n])
    for _ in range(2 * n):
        src, dst = rng.sample(names, 2)
        graph.add_edge(src, dst)
    view = _view(graph)
    index = view.index
    probe = rng.sample(names, 5)
    for v in probe:
        mask = index.mask_of([v])
        assert index.set_of(view.reachable_mask(mask)) == reachable_from(graph, [v])
        assert index.set_of(view.can_reach_mask(mask)) == can_reach(graph, [v])
    fast = {index.set_of(mask) for mask in view.scc_masks()}
    assert fast == set(strongly_connected_components(graph))


# ---------------------------------------------------------------------- #
# Order-preserving re-index (the watch-mode cache re-keying primitive)
# ---------------------------------------------------------------------- #
#: Mixed identifier types: ``sort_key`` orders by (type name, repr).
_POOL = ["p{}".format(i) for i in range(40)] + list(range(12))


@given(
    st.sets(st.sampled_from(_POOL), min_size=1, max_size=30),
    st.sets(st.sampled_from(_POOL), min_size=1, max_size=30),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_reindex_agrees_with_decode_and_re_encode(old_processes, new_processes, data):
    """Arbitrary joins and leaves at once: re-keying == decoding then re-encoding."""
    old, new = ProcessIndex(old_processes), ProcessIndex(new_processes)
    reindex = MaskReindex(old, new)
    assert reindex.is_identity() == (old_processes == new_processes)
    shared = sorted(old_processes & new_processes, key=repr)
    for _ in range(8):
        members = data.draw(st.sets(st.sampled_from(shared))) if shared else set()
        mask = old.mask_of(members)
        assert reindex.apply(mask) == new.mask_of(old.set_of(mask))
        if reindex.is_identity():
            assert reindex.apply(mask) == mask
    # Every departed process — and any bit beyond the old index — is refused,
    # alone or mixed into an otherwise mappable mask.
    for process in old_processes - new_processes:
        bit = 1 << old.position(process)
        with pytest.raises(ValueError):
            reindex.apply(bit)
        with pytest.raises(ValueError):
            reindex.apply(bit | old.mask_of(shared))
    with pytest.raises(ValueError):
        reindex.apply(1 << len(old))


def test_reindex_is_a_few_shifts_not_a_table():
    """One join or leave is two segments: the bits below stay, the bits above shift."""
    processes = ["p{:03d}".format(i) for i in range(200)]
    old = ProcessIndex(processes)
    join = MaskReindex(old, ProcessIndex(processes + ["p100-new"]))
    leave = MaskReindex(old, ProcessIndex(processes[:100] + processes[101:]))
    assert "segments=2" in repr(join)
    assert "segments=2" in repr(leave)
    assert join.apply(old.full_mask) == join.target.full_mask ^ (
        1 << join.target.position("p100-new")
    )
    assert leave.apply(old.full_mask ^ (1 << 100)) == leave.target.full_mask


def test_reindexed_graph_matches_a_rebuild_and_carries_components():
    rng = random.Random(11)
    graph = _random_digraph(rng, 14, 0.25)
    old = ProcessIndex(graph.vertices)
    view = _view(graph, old)
    expected_components = list(view.scc_masks())
    # v5 leaves, two processes join (one sorting first, one last).
    survivors = [v for v in graph.vertices if v != "v5"]
    new = ProcessIndex(survivors + ["a-first", "z-last"])
    reindex = MaskReindex(old, new)
    with pytest.raises(ValueError):
        view.reindexed(reindex)  # v5 is still a vertex: nothing to map it to
    residual = _residual(view, ["v5"], [])
    residual.reader_masks()  # memoize components and readers before the move
    moved = residual.reindexed(reindex)
    rebuilt = _view(without(graph, vertices=["v5"]), new)
    assert moved == rebuilt
    assert moved._sccs is not None and moved._readers is not None  # carried, not recomputed
    assert moved.scc_masks() == rebuilt.scc_masks()
    assert moved.reader_masks() == rebuilt.reader_masks()
    assert {new.set_of(c) for c in moved.scc_masks()} == {
        old.set_of(c) for c in residual.scc_masks()
    }
    assert view.scc_masks() == expected_components
    # Round trip through the set-based graph.
    assert copy_of(moved.to_digraph(), new.processes) == without(graph, vertices=["v5"])
    hub = copy_of(moved.with_hub(new.position("a-first")).to_digraph(), new.processes).edge_set()
    assert {("a-first", "v1"), ("v1", "a-first")} <= hub
    assert ("a-first", "z-last") not in hub  # z-last is not a vertex


# ---------------------------------------------------------------------- #
# Module-level closure / SCC routines (shared with the Monte Carlo shards)
# ---------------------------------------------------------------------- #
@given(st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_closure_and_component_functions_agree_with_class_and_set_oracle(n, data):
    """``(vertex mask, rows)`` in, the same answers as the graph class and as
    the set-based ``oracles.graph`` algorithms out — absent vertices,
    empty graphs, complete graphs and everything in between."""
    index = ProcessIndex(range(n))
    vertices = data.draw(st.integers(0, index.full_mask))
    succ, pred = [0] * n, [0] * n
    for i in iter_bits(vertices):
        succ[i] = data.draw(st.integers(0, index.full_mask)) & vertices & ~(1 << i)
        for j in iter_bits(succ[i]):
            pred[j] |= 1 << i
    view = BitsetDiGraph(index, vertices, succ, pred)
    graph = copy_of(view.to_digraph(), index.processes)
    components = component_masks(vertices, succ, pred)
    assert components == BitsetDiGraph(index, vertices, succ, pred).scc_masks()
    assert [index.set_of(c) for c in components] == sorted(
        strongly_connected_components(graph), key=min
    )
    for _ in range(4):
        # Seeds may name absent vertices: they are ignored, as by the class.
        seeds = data.draw(st.integers(0, index.full_mask))
        forward = closure_mask(seeds, vertices, succ)
        backward = closure_mask(seeds, vertices, pred)
        assert forward == view.reachable_mask(seeds)
        assert backward == view.can_reach_mask(seeds)
        present = index.set_of(seeds & vertices)
        assert index.set_of(forward) == reachable_from(graph, present)
        assert index.set_of(backward) == can_reach(graph, present)


# ---------------------------------------------------------------------- #
# The row-free complete form against the same graph spelled out in rows
# ---------------------------------------------------------------------- #
def _rows_of_complete(index, vertices):
    """A graph complete on ``vertices``, built from explicit rows."""
    succ = [vertices & ~(1 << i) if vertices >> i & 1 else 0 for i in range(len(index))]
    return BitsetDiGraph(index, vertices, succ, list(succ))


def _assert_same_graph(fast, slow, seeds):
    index = slow.index
    assert fast.index.processes == index.processes
    assert fast.vertex_mask == slow.vertex_mask
    for i in range(len(index)):
        assert fast.successor_mask(i) == slow.successor_mask(i)
        assert fast.predecessor_mask(i) == slow.predecessor_mask(i)
    assert fast.scc_masks() == slow.scc_masks()
    assert fast.reader_masks() == slow.reader_masks()
    for seed in seeds:
        assert fast.reachable_mask(seed) == slow.reachable_mask(seed)
        assert fast.can_reach_mask(seed) == slow.can_reach_mask(seed)
    fast_graph, slow_graph = fast.to_digraph(), slow.to_digraph()
    assert [
        (v, fast_graph.successors(v)) for v in index.processes if fast_graph.has_vertex(v)
    ] == [(v, slow_graph.successors(v)) for v in index.processes if slow_graph.has_vertex(v)]
    assert fast == slow and slow == fast


@given(st.integers(1, 9), st.sampled_from(["complete", "spelled", "sparse"]), st.data())
@settings(max_examples=300, deadline=None)
def test_complete_form_answers_like_its_rows(n, start, data):
    """Chains of joins, leaves, re-indexes and residuals (crashing nobody,
    some or everybody; clearing nothing, only channels of crashed processes,
    or channels between survivors) keep the row-free form equal to the same
    graph in rows — and keep it row-free until a cleared channel joins two
    survivors."""
    index = ProcessIndex("m{}".format(i) for i in range(n))
    if start == "sparse":
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        channels = [
            (src, dst)
            for src in index.processes
            for dst in index.processes
            if src != dst and rng.random() < 0.6
        ]
        fast = _network(index.processes, channels)
        slow = _view(SetGraph(index.processes, channels), index)
        complete = len(channels) == n * (n - 1)
    else:
        every = [(src, dst) for src in index.processes for dst in index.processes if src != dst]
        fast = BitsetDiGraph.complete(index) if start == "complete" else (
            _network(index.processes, every)
        )
        slow = _rows_of_complete(index, index.full_mask)
        complete = True
    assert (fast._succ is None) == complete
    joiners = iter(["a{}".format(k) for k in range(4)] + ["m{}x".format(k) for k in range(4)])
    for _ in range(data.draw(st.integers(1, 4))):
        step = data.draw(st.sampled_from(["join", "join-absent", "leave", "residual"]))
        if step == "leave" and len(index) == 1:
            step = "residual"
        if step in ("join", "join-absent"):
            joiner = data.draw(st.sampled_from(["a", "m", "z"])) + next(joiners)
            reindex = MaskReindex(index, ProcessIndex(index.processes + (joiner,)))
            index = reindex.target
            fast, slow = fast.reindexed(reindex), slow.reindexed(reindex)
            if step == "join":
                position = index.position(joiner)
                fast, slow = fast.with_hub(position), slow.with_hub(position)
        elif step == "leave":
            departed = data.draw(st.sampled_from(index.processes))
            reindex = MaskReindex(index, ProcessIndex(set(index.processes) - {departed}))
            bit = 1 << index.position(departed)
            fast = fast.residual_masks(bit).reindexed(reindex)
            slow = slow.residual_masks(bit).reindexed(reindex)
            index = reindex.target
        else:
            crash = data.draw(st.integers(0, index.full_mask))
            survivors = fast.vertex_mask & ~crash
            kind = data.draw(st.sampled_from(["none", "crashed", "any", "survivors"]))
            ends = list(iter_bits(survivors)) if kind == "survivors" else range(len(index))
            channels = []
            if kind != "none" and ends:
                for _ in range(data.draw(st.integers(1, 6))):
                    i, j = data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))
                    if i != j and (kind != "crashed" or not (survivors >> i & survivors >> j & 1)):
                        channels.append((index.process_at(i), index.process_at(j)))
            masks = index.failure_masks(index.set_of(crash), channels)
            joins = any(survivors >> index.position(s) & survivors >> index.position(d) & 1
                        for s, d in channels)
            fast, slow = fast.residual_masks(*masks), slow.residual_masks(*masks)
            complete = complete and not joins
        if complete:
            assert fast._succ is None
        seeds = [data.draw(st.integers(0, index.full_mask)) for _ in range(3)]
        _assert_same_graph(fast, slow, seeds)


# ---------------------------------------------------------------------- #
# Ordered decodes: output order is bit order
# ---------------------------------------------------------------------- #
_MASK_SHAPES = ("empty", "one", "two", "half", "full", "random")


def _mask_of_shape(rng, n, shape):
    """A mask over ``n`` positions: 0, 1 or 2 bits, half full, full or random."""
    if shape == "empty":
        return 0
    if shape == "full":
        return (1 << n) - 1
    if shape == "random":
        return rng.getrandbits(n)
    count = {"one": 1, "two": min(2, n), "half": n // 2}[shape]
    return sum(1 << i for i in rng.sample(range(n), count))


def _mixed_ids(rng, n):
    """``n`` distinct ids, integers and strings mixed (``'int'`` sorts before ``'str'``,
    and integers sort by ``repr``: ``10`` before ``9``)."""
    ints = rng.randint(0, n)
    numbers = rng.sample(range(-50, 5000), ints)
    names = ["p{}".format(k) for k in rng.sample(range(5000), n - ints)]
    ids = numbers + names
    rng.shuffle(ids)
    return ids


@given(st.integers(1, 300), st.sampled_from(_MASK_SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ordered_decodes_are_the_sorted_decodes(n, shape, seed):
    """``sorted_list`` equals ``sorted_processes(set_of(mask))`` and ``channel_list``
    equals ``sorted_channels(channels_of(rows))``; both sets equal a bit-by-bit
    decode, on mixed-type ids and on sparse, dense, empty and full masks."""
    rng = random.Random(seed)
    index = ProcessIndex(_mixed_ids(rng, n))
    processes = index.processes
    mask = _mask_of_shape(rng, n, shape)
    members = frozenset(processes[i] for i in range(n) if mask >> i & 1)
    assert index.set_of(mask) == members
    assert index.sorted_list(mask) == sorted_processes(index.set_of(mask))
    # At most 40 non-empty rows keep the repr-sorted reference cheap at n=300.
    rows = [0] * n
    for i in rng.sample(range(n), min(n, 40)):
        rows[i] = _mask_of_shape(rng, n, rng.choice(_MASK_SHAPES))
    channels = frozenset(
        (processes[i], processes[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1
    )
    assert index.channels_of(rows) == channels
    assert index.channel_list(rows) == sorted_channels(index.channels_of(rows))
