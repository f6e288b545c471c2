"""Tests for fail-prone systems (:mod:`repro.failures.failprone`)."""

import pytest

from repro.errors import InvalidFailurePatternError
from repro.failures import FailProneSystem, FailurePattern, large_threshold_system

from oracles.graph import copy_of, network


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
    channels = [("a", "b"), ("b", "a")]
    with pytest.raises(InvalidFailurePatternError):
        FailProneSystem(["a", "b", "c"], [FailurePattern([], [("a", "c")])], channels)


def test_residual_graph_and_correct_processes():
    f = FailurePattern(["c"], [("a", "b")])
    system = FailProneSystem(["a", "b", "c"], [f])
    residual = copy_of(system.residual_graph(f), "abc")
    assert residual.vertex_set == frozenset({"a", "b"})
    assert residual.edge_set() == {("b", "a")}
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


def test_derive_appends_and_restricts():
    f1 = FailurePattern(["a"], name="f1")
    f2 = FailurePattern(["b"], name="f2")
    system = FailProneSystem(["a", "b", "c"], [f1])
    extended = system._derive(system.patterns + (f2,))
    assert len(extended) == 2
    restricted = extended._derive([f2])
    assert list(restricted) == [f2]
    # original untouched
    assert len(system) == 1


def test_describe_mentions_every_pattern():
    f1 = FailurePattern(["a"], name="f1")
    f2 = FailurePattern(["b"], name="f2")
    system = FailProneSystem(["a", "b", "c"], [f1, f2], name="demo")
    text = system.describe()
    assert "f1" in text and "f2" in text and "demo" in text


def test_graph_with_a_vertex_outside_the_process_set_is_rejected():
    channels = [("a", "b"), ("stranger", "a"), ("b", "other")]
    with pytest.raises(InvalidFailurePatternError) as error:
        FailProneSystem(["a", "b"], [FailurePattern()], channels)
    assert str(error.value) == (
        "network graph has vertices outside the process set: ['other', 'stranger']"
    )


def test_caller_channels_are_read_not_kept():
    channels = [("a", "b")]
    system = FailProneSystem(["a", "b", "c"], [FailurePattern()], channels)
    channels.append(("b", "a"))  # the caller's list is theirs to edit
    assert network(system).edge_set() == {("a", "b")}
    assert network(system).has_vertex("c")  # channel-less processes are vertices


@pytest.mark.parametrize("extra", [[], [("a", "a")], [("b", "a")]])
def test_a_channel_list_naming_every_channel_is_the_row_free_complete_network(extra):
    """Self-loops are ignored and a repeated channel is one channel."""
    from repro.graph import BitsetDiGraph

    every = [(p, q) for p in "abc" for q in "abc" if p != q]
    system = FailProneSystem("abc", [FailurePattern()], every + extra)
    assert system.bitset_graph._succ is None
    assert system.bitset_graph == BitsetDiGraph.complete(system.process_index)
    sparse = FailProneSystem("abc", [FailurePattern()], every[1:] + extra)
    assert network(sparse).edge_set() == set(every[1:])


def test_an_empty_channel_list_is_a_network_without_channels():
    system = FailProneSystem("abc", [FailurePattern()], [])
    assert network(system).vertex_set == frozenset("abc")
    assert network(system).edge_set() == frozenset()
    assert FailProneSystem("a", [FailurePattern()], []).bitset_graph._succ is None


# ---------------------------------------------------------------------- #
# Derived systems share the network instead of rebuilding it
# ---------------------------------------------------------------------- #
def _ring_system():
    ring = [("a", "b"), ("b", "c"), ("c", "a")]
    patterns = [FailurePattern([p], name="f" + p) for p in "abc"]
    return FailProneSystem("abc", patterns, channels=ring)


def _derivations(system):
    """Every same-network derivation: ``_derive`` itself, hardening, four delta ops."""
    from repro.quorums import MembershipDelta, apply_delta
    from repro.quorums.repair import harden_channels

    yield system._derive(system.patterns + (FailurePattern(["a", "b"], name="fab"),))
    yield system._derive(system.patterns[:1])
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
    for child in _derivations(system):
        assert child.process_index is system.process_index
        assert child.bitset_graph is system.bitset_graph
        assert network(child) == network(system)
        assert child.processes is system.processes


def test_derived_systems_still_run_every_constructor_check():
    system = _ring_system()
    with pytest.raises(InvalidFailurePatternError, match="unknown processes"):
        system._derive(system.patterns + (FailurePattern(["z"]),))
    with pytest.raises(InvalidFailurePatternError, match="outside the process set"):
        system._derive([FailurePattern([], [("a", "z")])])
    with pytest.raises(InvalidFailurePatternError, match="does not exist in the network graph"):
        system._derive(system.patterns + (FailurePattern([], [("b", "a")]),))  # one-way ring
    # ... and a join keeps the sparse network: the joiner is a hub, no old edge appears.
    from repro.quorums import MembershipDelta, apply_delta

    kept = apply_delta(system, MembershipDelta(op="join", process="d"))[0]
    edges = network(kept).edge_set()
    assert ("d", "a") in edges and ("b", "a") not in edges


# ---------------------------------------------------------------------- #
# adopt_residuals: the one hand-off of memoized residuals
# ---------------------------------------------------------------------- #
PROCESSES = ["a", "b", "c", "d"]


def _certified(system):
    """``system`` with every pattern's candidates memoized, as discovery leaves it."""
    for pattern in system.patterns:
        system.residual_bitset(pattern).reader_masks()
    return system


def test_harden_channels_adopts_exactly_the_untouched_patterns():
    from repro.quorums import harden_channels

    untouched = [FailurePattern(["a"], name="fa"), FailurePattern(["b"], [("c", "d")], name="fb")]
    touched = FailurePattern(["d"], [("a", "b"), ("b", "c")], name="fd")
    base = _certified(FailProneSystem(PROCESSES, untouched + [touched]))
    hardened = harden_channels(base, [("a", "b")])
    assert set(hardened._residual_bitset_cache) == set(untouched)
    for pattern in untouched:
        assert hardened.residual_bitset(pattern) is base.residual_bitset(pattern)


def test_adopt_residuals_shares_the_residual_and_its_memos():
    pattern = FailurePattern(["a"], [("c", "d")], name="fa")
    old = _certified(FailProneSystem(PROCESSES, [pattern]))
    new = FailProneSystem(PROCESSES, [pattern])
    assert new.adopt_residuals(old, {pattern: pattern}) == 1
    residual = new.residual_bitset(pattern)
    assert residual is old.residual_bitset(pattern)
    assert residual.reader_masks() is old.residual_bitset(pattern).reader_masks()


def test_reindexed_residual_memo_equals_the_memo_built_from_scratch():
    from repro.quorums import MembershipDelta, apply_delta

    system = _certified(
        FailProneSystem(
            ["b", "c", "d", "e"],
            [
                FailurePattern(["c"], [("d", "e")], name="f1"),
                FailurePattern(["c", "e"], name="f2"),
                FailurePattern(["b"], [("c", "d"), ("e", "c")], name="f3"),
            ],
        )
    )
    # The joiner sorts first, so every bit moves; the leaver moves every bit above it.
    for delta in (MembershipDelta("join", process="a"), MembershipDelta("leave", process="c")):
        new, pattern_map, reindex = apply_delta(system, delta)
        assert not reindex.is_identity()
        assert new.adopt_residuals(system, pattern_map, reindex) == len(pattern_map) >= 2
        scratch = apply_delta(system, delta)[0]  # the same system, nothing carried
        for pattern in pattern_map:
            carried = new.residual_bitset(pattern)
            assert carried._sccs is not None and carried._readers is not None
            fresh = scratch.residual_bitset(pattern)
            assert carried == fresh
            assert carried.scc_masks() == fresh.scc_masks()
            assert carried.reader_masks() == fresh.reader_masks()


def test_adopt_residuals_never_overwrites_an_existing_entry():
    pattern = FailurePattern(["a"], name="fa")
    old = _certified(FailProneSystem(PROCESSES, [pattern]))
    new = FailProneSystem(PROCESSES, [pattern])
    mine = new.residual_bitset(pattern)  # built before the hand-off
    assert new.adopt_residuals(old, {pattern: pattern}) == 0
    assert new.residual_bitset(pattern) is mine


def test_adopt_residuals_from_a_cold_system_hands_nothing_over():
    pattern = FailurePattern(["a"], name="fa")
    old = FailProneSystem(PROCESSES, [pattern])
    new = FailProneSystem(PROCESSES, [pattern])
    assert new.adopt_residuals(old, {pattern: pattern}) == 0
    assert new._residual_bitset_cache == {}


def test_adopt_residuals_refuses_a_residual_naming_a_process_without_a_position():
    from repro.graph import MaskReindex

    pattern = FailurePattern(["a"])
    old = _certified(FailProneSystem(["a", "b", "c"], [pattern]))
    new = FailProneSystem(["a", "b"], [pattern])
    with pytest.raises(ValueError):
        new.adopt_residuals(
            old, {pattern: pattern}, MaskReindex(old.process_index, new.process_index)
        )
    assert new._residual_bitset_cache == {}


# ---------------------------------------------------------------------- #
# Validation is the mask encoding, kept for the residuals
# ---------------------------------------------------------------------- #
class _CountingChannels(frozenset):
    """A channel set that counts how often it is iterated."""

    def __iter__(self):
        self.walks = getattr(self, "walks", 0) + 1
        return super().__iter__()


def _counted_island_system():
    """A zoned island system whose channel sets count their walks.

    The counting starts after each pattern was built, so what is counted is
    the system's own work.
    """
    source = large_threshold_system(n=12, max_crashes=2, zones=3, catastrophic=True)
    patterns = []
    for f in source.patterns:
        pattern = FailurePattern(f.crash_prone, f.disconnect_prone, name=f.name)
        pattern._disconnect_prone = _CountingChannels(pattern.disconnect_prone)
        patterns.append(pattern)
    assert all(f.disconnect_prone for f in patterns)
    return FailProneSystem(source.processes, patterns)


def test_a_channel_set_is_walked_once_from_construction_to_a_validated_witness():
    from repro.quorums import discover_gqs

    system = _counted_island_system()
    result = discover_gqs(system)  # validate=True: the witness is re-checked too
    assert result.exists and result.quorum_system.is_valid()
    assert [f.disconnect_prone.walks for f in system.patterns] == [1] * len(system.patterns)
    # Every kept encoding was used up by its residual: nothing is held twice.
    assert system._pattern_masks == {}


def test_a_hardening_walks_only_the_patterns_it_touches():
    from repro.quorums import discover_gqs
    from repro.quorums.repair import harden_channels
    from repro.types import sorted_channels

    system = _counted_island_system()
    discover_gqs(system)
    # An anchor-internal channel: only the blackout pattern lists it.
    channel = sorted_channels(system.patterns[-1].disconnect_prone)[0]
    assert [channel in f.disconnect_prone for f in system.patterns].count(True) == 1
    hardened = harden_channels(system, [channel])
    result = discover_gqs(hardened)
    # The untouched patterns are carried over as they are — validated, encoded
    # and decomposed once, by the parent — and their channels stay unwalked.
    for pattern, child in zip(system.patterns[:-1], hardened.patterns[:-1]):
        assert child is pattern
        assert pattern.disconnect_prone.walks == 1
    assert channel not in hardened.patterns[-1].disconnect_prone
    # ... and the verdict is the one a system built from scratch reaches.
    scratch = FailProneSystem(system.processes, list(hardened.patterns))
    assert result.exists == discover_gqs(scratch).exists


def _random_sparse_system(rng, n):
    processes = ["p{}".format(i) for i in range(n)]
    network = [
        (src, dst) for src in processes for dst in processes if src != dst and rng.random() < 0.6
    ]
    patterns = []
    for k in range(4):
        crash = [p for p in processes if rng.random() < 0.2][: n - 1]
        survivors = [p for p in processes if p not in crash]
        channels = [
            (src, dst)
            for src in survivors
            for dst in survivors
            if (src, dst) in network and rng.random() < 0.3
        ]
        patterns.append(FailurePattern(crash, channels, name="f{}".format(k)))
    return FailProneSystem(processes, patterns, network)


def _assert_residual_matches_the_set_definition(system, pattern):
    from oracles.graph import residual

    got = system.residual_bitset(pattern)
    assert copy_of(got.to_digraph(), system.process_index.processes) == residual(system, pattern)
    n = len(system.process_index)
    for i in range(n):
        assert got.predecessor_mask(i) == sum(
            1 << j for j in range(n) if got.successor_mask(j) >> i & 1
        )


def test_kept_encodings_build_the_residuals_of_the_set_definition():
    import random

    rng = random.Random(3)
    for _ in range(25):
        system = _random_sparse_system(rng, rng.randint(3, 9))
        # Declared patterns (kept encoding), a derived system's patterns and a
        # pattern the system never declared (encoded on demand) all agree
        # with G \ f computed on sets.
        foreign = FailurePattern(sorted(system.processes)[:1])
        child = system._derive(system.patterns[1:])
        for owner, pattern in [(system, f) for f in system.patterns] + [
            (child, f) for f in child.patterns
        ] + [(system, foreign)]:
            _assert_residual_matches_the_set_definition(owner, pattern)
        assert system._pattern_masks == {}


def _set_based_validation_error(processes, network, patterns):
    """The constructor's contract, stated on sets: the first error, or ``None``."""
    from repro.types import sorted_channels, sorted_processes

    for f in patterns:
        unknown = f.crash_prone - processes
        if unknown:
            return "pattern {!r} references unknown processes {}".format(
                f, sorted_processes(unknown)
            )
        if any(src not in processes or dst not in processes for src, dst in f.disconnect_prone):
            return "pattern {!r} references a channel outside the process set".format(f)
        for src, dst in sorted_channels(f.disconnect_prone):
            if (src, dst) not in network:
                return (
                    "pattern {!r} disconnects channel ({!r}, {!r}) "
                    "that does not exist in the network graph".format(f, src, dst)
                )
    return None


def test_validation_by_encoding_raises_what_the_set_based_checks_would():
    import random

    rng = random.Random(11)
    outsiders = ["x", "y"]
    kinds = ("unknown processes", "outside the process set", "does not exist")
    raised = set()
    for _ in range(200):
        processes = ["p{}".format(i) for i in range(rng.randint(2, 6))]
        network = [
            (src, dst)
            for src in processes
            for dst in processes
            if src != dst and rng.random() < 0.5
        ]
        universe = processes + outsiders
        patterns = []
        for _ in range(3):
            crash = [p for p in universe if rng.random() < 0.15]
            channels = [
                (src, dst)
                for src in universe
                for dst in universe
                if src != dst and src not in crash and dst not in crash and rng.random() < 0.2
            ]
            patterns.append(FailurePattern(crash, channels))
        expected = _set_based_validation_error(frozenset(processes), network, patterns)
        if expected is None:
            FailProneSystem(processes, patterns, network)
            continue
        raised.update(kind for kind in kinds if kind in expected)
        with pytest.raises(InvalidFailurePatternError) as error:
            FailProneSystem(processes, patterns, network)
        assert str(error.value) == expected
    assert raised == set(kinds)  # the battery reaches every error, not just the happy path
