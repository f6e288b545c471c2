"""Tests for fail-prone systems (:mod:`repro.failures.failprone`)."""

import pytest

from repro.errors import InvalidFailurePatternError
from repro.failures import FailProneSystem, FailurePattern, large_threshold_system
from repro.graph import DiGraph


def test_construction_and_accessors():
    f1 = FailurePattern(["c"], name="f1")
    system = FailProneSystem(["a", "b", "c"], [f1], name="demo")
    assert system.processes == frozenset({"a", "b", "c"})
    assert len(system) == 1
    assert f1 in system
    assert list(system) == [f1]
    assert "demo" in repr(system)


def test_empty_process_set_rejected():
    with pytest.raises(InvalidFailurePatternError):
        FailProneSystem([], [FailurePattern()])


def test_pattern_with_unknown_process_rejected():
    with pytest.raises(InvalidFailurePatternError):
        FailProneSystem(["a", "b"], [FailurePattern(["z"])])


def test_pattern_with_unknown_channel_rejected():
    with pytest.raises(InvalidFailurePatternError):
        FailProneSystem(["a", "b"], [FailurePattern([], [("a", "z")])])


def test_pattern_channel_must_exist_in_graph():
    graph = DiGraph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "a")])
    with pytest.raises(InvalidFailurePatternError):
        FailProneSystem(["a", "b", "c"], [FailurePattern([], [("a", "c")])], graph=graph)


def test_residual_graph_and_correct_processes():
    f = FailurePattern(["c"], [("a", "b")])
    system = FailProneSystem(["a", "b", "c"], [f])
    residual = system.residual_graph(f)
    assert residual.vertex_set == frozenset({"a", "b"})
    assert not residual.has_edge("a", "b")
    assert residual.has_edge("b", "a")
    assert system.correct_processes(f) == frozenset({"a", "b"})


def test_allows_channel_failures():
    crash_only = FailProneSystem(["a", "b"], [FailurePattern(["a"])])
    with_channels = FailProneSystem(["a", "b"], [FailurePattern([], [("a", "b")])])
    assert not crash_only.allows_channel_failures()
    assert with_channels.allows_channel_failures()


def test_crash_threshold_enumerates_maximal_patterns():
    system = FailProneSystem.crash_threshold(["a", "b", "c", "d"], 2)
    assert len(system) == 6  # C(4, 2)
    assert all(len(f.crash_prone) == 2 for f in system)
    assert not system.allows_channel_failures()


def test_crash_threshold_rejects_bad_k():
    with pytest.raises(ValueError):
        FailProneSystem.crash_threshold(["a", "b"], -1)
    with pytest.raises(ValueError):
        FailProneSystem.crash_threshold(["a", "b"], 2)


def test_crash_threshold_zero_is_failure_free():
    system = FailProneSystem.crash_threshold(["a", "b"], 0)
    assert len(system) == 1
    assert list(system)[0].crash_prone == frozenset()


def test_minority_crashes():
    system = FailProneSystem.minority_crashes(["a", "b", "c", "d", "e"])
    assert all(len(f.crash_prone) == 2 for f in system)
    assert len(system) == 10


def test_maximal_patterns_filters_subsumed():
    small = FailurePattern(["a"], name="small")
    big = FailurePattern(["a", "b"], name="big")
    system = FailProneSystem(["a", "b", "c"], [small, big])
    maximal = system.maximal_patterns()
    assert maximal == (big,)
    # Rotating crash windows of equal size: none subsumes another.
    windows = large_threshold_system(n=252, max_crashes=12)
    assert windows.maximal_patterns() == windows.patterns


def test_with_pattern_and_restrict():
    f1 = FailurePattern(["a"], name="f1")
    f2 = FailurePattern(["b"], name="f2")
    system = FailProneSystem(["a", "b", "c"], [f1])
    extended = system.with_pattern(f2)
    assert len(extended) == 2
    restricted = extended.restrict([f2])
    assert list(restricted) == [f2]
    # original untouched
    assert len(system) == 1


def test_describe_mentions_every_pattern():
    f1 = FailurePattern(["a"], name="f1")
    f2 = FailurePattern(["b"], name="f2")
    system = FailProneSystem(["a", "b", "c"], [f1, f2], name="demo")
    text = system.describe()
    assert "f1" in text and "f2" in text and "demo" in text


def test_graph_copy_is_defensive():
    system = FailProneSystem(["a", "b"], [FailurePattern()])
    graph = system.graph
    graph.remove_vertex("a")
    assert "a" in system.graph.vertices


def test_graph_view_is_shared_and_matches_the_copy():
    system = FailProneSystem(["a", "b"], [FailurePattern()])
    assert system.graph_view is system.graph_view
    assert system.graph_view == system.graph
    assert system.graph is not system.graph_view


def test_graph_with_a_vertex_outside_the_process_set_is_rejected():
    graph = DiGraph(vertices=["a", "b", "stranger"], edges=[("a", "b")])
    with pytest.raises(InvalidFailurePatternError, match="stranger"):
        FailProneSystem(["a", "b"], [FailurePattern()], graph=graph)


def test_caller_graph_is_read_not_kept():
    graph = DiGraph(vertices=["a", "b"], edges=[("a", "b")])
    system = FailProneSystem(["a", "b", "c"], [FailurePattern()], graph=graph)
    graph.add_edge("b", "a")  # the caller's object is theirs to edit
    assert not system.graph_view.has_edge("b", "a")
    assert system.graph_view.has_vertex("c")  # channel-less processes are vertices


# ---------------------------------------------------------------------- #
# Derived systems share the network instead of rebuilding it
# ---------------------------------------------------------------------- #
def _ring_system():
    ring = DiGraph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "c"), ("c", "a")])
    patterns = [FailurePattern([p], name="f" + p) for p in "abc"]
    return FailProneSystem("abc", patterns, graph=ring)


def _derivations(system):
    """Every same-network derivation: the two methods, hardening, four delta ops."""
    from repro.quorums import MembershipDelta, apply_delta
    from repro.quorums.repair import harden_channels

    yield system.with_pattern(FailurePattern(["a", "b"], name="fab"))
    yield system.restrict(system.patterns[:1])
    yield harden_channels(system, [("a", "b")])
    for delta in (
        MembershipDelta(op="suspect", process="a"),
        MembershipDelta(op="trust", process="a"),
        MembershipDelta(op="suspect-channel", src="a", dst="b"),
        MembershipDelta(op="trust-channel", src="a", dst="b"),
    ):
        yield apply_delta(system, delta)[0]


def test_derived_systems_share_the_graph_objects_by_identity():
    system = _ring_system()
    view = system.graph_view  # materialized before deriving, so it is shared too
    for child in _derivations(system):
        assert child.process_index is system.process_index
        assert child.bitset_graph is system.bitset_graph
        assert child.graph_view is view
        assert child.processes is system.processes
    # A system whose set-based graph was never asked for hands down nothing
    # to copy; the child materializes its own, equal, view on demand.
    cold = _ring_system()
    child = cold.restrict(cold.patterns[:1])
    assert child.bitset_graph is cold.bitset_graph
    assert child.graph_view == cold.graph_view == view


def test_derived_systems_still_run_every_constructor_check():
    system = _ring_system()
    with pytest.raises(InvalidFailurePatternError, match="unknown processes"):
        system.with_pattern(FailurePattern(["z"]))
    with pytest.raises(InvalidFailurePatternError, match="outside the process set"):
        system.restrict([FailurePattern([], [("a", "z")])])
    with pytest.raises(InvalidFailurePatternError, match="does not exist in the network graph"):
        system.with_pattern(FailurePattern([], [("b", "a")]))  # the ring is one-way
    # ... and a join keeps the sparse network: the joiner is a hub, no old edge appears.
    from repro.quorums import MembershipDelta, apply_delta

    kept = apply_delta(system, MembershipDelta(op="join", process="d"))[0]
    assert kept.graph_view.has_edge("d", "a") and not kept.graph_view.has_edge("b", "a")


def test_graph_copies_do_not_leak_into_parent_or_child():
    system = _ring_system()
    child = system.restrict(system.patterns[:1])
    for owner in (system, child):
        copy = owner.graph
        copy.remove_vertex("a")
        copy.add_edge("c", "b")
    for owner in (system, child):
        assert owner.graph.vertex_set == frozenset("abc")
        assert not owner.graph.has_edge("c", "b")
        assert not owner.graph_view.has_edge("c", "b")
        assert not owner.bitset_graph.successor_mask(2) >> 1 & 1


# ---------------------------------------------------------------------- #
# warm_caches_from: the repair-path cache hand-off
# ---------------------------------------------------------------------- #
def _warmable_pair(shared, only_old, only_new):
    """Two systems over the same processes/graph with the given pattern split."""
    processes = ["a", "b", "c", "d"]
    old = FailProneSystem(processes, shared + only_old, name="old")
    new = FailProneSystem(processes, shared + only_new, name="new")
    return old, new


def test_warm_caches_from_rejects_mismatched_process_sets():
    old = FailProneSystem(["a", "b", "c"], [FailurePattern(["a"])])
    new = FailProneSystem(["a", "b"], [FailurePattern(["a"])])
    old.residual_graph(old.patterns[0])
    old.residual_bitset(old.patterns[0])
    assert new.warm_caches_from(old) == 0
    assert new._residual_cache == {}
    assert new._residual_bitset_cache == {}


def test_warm_caches_from_rejects_mismatched_graphs():
    graph = DiGraph()
    for p in ("a", "b"):
        graph.add_vertex(p)
    graph.add_edge("a", "b")  # one-way only: differs from the complete default
    old = FailProneSystem(["a", "b"], [FailurePattern()])
    new = FailProneSystem(["a", "b"], [FailurePattern()], graph=graph)
    old.residual_graph(old.patterns[0])
    assert new.warm_caches_from(old) == 0
    assert new._residual_cache == {}


def test_warm_caches_from_adopts_exactly_the_shared_patterns():
    shared = [FailurePattern(["a"], name="fa"), FailurePattern(["b"], name="fb")]
    old, new = _warmable_pair(
        shared,
        only_old=[FailurePattern(["c"], name="old-only")],
        only_new=[FailurePattern(["d"], name="new-only")],
    )
    for pattern in old.patterns:
        old.residual_graph(pattern)
        old.residual_bitset(pattern)
    # 2 shared patterns x (residual graph + residual bitset) = 4 entries;
    # 'old-only' is not a pattern of `new` and must not leak across.
    assert new.warm_caches_from(old) == 4
    assert set(new._residual_cache) == set(shared)
    assert set(new._residual_bitset_cache) == set(shared)


def test_warm_caches_from_adopts_identical_objects():
    shared = [FailurePattern(["a"], name="fa")]
    old, new = _warmable_pair(shared, only_old=[], only_new=[])
    old.residual_graph(shared[0])
    old.residual_bitset(shared[0])
    old.analysis_cache("demo")[shared[0]] = ("payload",)
    adopted = new.warm_caches_from(old)
    assert adopted == 3  # residual graph + bitset + one analysis-cache entry
    assert new.residual_graph(shared[0]) is old.residual_graph(shared[0])
    assert new.residual_bitset(shared[0]) is old.residual_bitset(shared[0])
    assert new.analysis_cache("demo")[shared[0]] is old.analysis_cache("demo")[shared[0]]


def test_warm_caches_from_never_overwrites_existing_entries():
    shared = [FailurePattern(["a"], name="fa")]
    old, new = _warmable_pair(shared, only_old=[], only_new=[])
    old.residual_graph(shared[0])
    old.residual_bitset(shared[0])
    mine = new.residual_graph(shared[0])  # computed before warming
    assert new.warm_caches_from(old) == 1  # only the bitset view is missing
    assert new.residual_graph(shared[0]) is mine
    assert new.residual_bitset(shared[0]) is old.residual_bitset(shared[0])


def test_warm_caches_from_adopts_nothing_from_a_cold_system():
    shared = [FailurePattern(["a"], name="fa")]
    old, new = _warmable_pair(shared, only_old=[], only_new=[])
    assert new.warm_caches_from(old) == 0


def test_warmed_caches_answer_like_cold_ones():
    shared = [
        FailurePattern(["a"], [("c", "d")], name="fa"),
        FailurePattern(["b"], name="fb"),
    ]
    old, new = _warmable_pair(shared, only_old=[], only_new=[])
    for pattern in old.patterns:
        old.residual_graph(pattern)
        old.residual_bitset(pattern)
    new.warm_caches_from(old)
    cold = FailProneSystem(["a", "b", "c", "d"], shared)
    for pattern in shared:
        assert new.residual_graph(pattern) == cold.residual_graph(pattern)
        warm_bits = new.residual_bitset(pattern)
        cold_bits = cold.residual_bitset(pattern)
        assert warm_bits.vertex_mask == cold_bits.vertex_mask
