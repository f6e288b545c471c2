"""Island patterns are born in masks and decoded only when their channels are read.

The zoned windows of :func:`large_threshold_system` and the ``wan-i`` epochs of
:func:`multi_region_system` are built with :meth:`FailurePattern.islands`.
Here they are compared with the channel-list patterns of
:mod:`oracles.failures` — equality both ways, hashes, dictionary lookups,
channel sets and residual components — and the decision path is pinned to
never decode them.
"""

import itertools
import pickle

import pytest

from oracles.failures import island_pattern
from repro import api
from repro.errors import InvalidFailurePatternError
from repro.failures import (
    FailProneSystem,
    FailurePattern,
    builtin_fail_prone_system,
    large_threshold_system,
    multi_region_system,
)
from repro.failures.generators import _zone_blocks
from repro.graph import ProcessIndex
from repro.quorums import discover_gqs


def _threshold_zones(system, n, zones):
    processes = sorted(system.processes)
    blocks = _zone_blocks(processes, max(2, n // (2 * zones)), zones)
    return {p: z for z, block in enumerate(blocks) for p in block}


def _region_zones(system):
    return {p: int(p[1 : p.index("m")]) for p in system.processes}


def _families():
    """``(system, zone_of, island pattern names)`` over a grid of both families."""
    for n, k, zones, catastrophic in itertools.product(
        (9, 12, 17), (0, 1, 3), (2, 3), (False, True)
    ):
        system = large_threshold_system(n=n, max_crashes=k, zones=zones, catastrophic=catastrophic)
        yield system, _threshold_zones(system, n, zones), "window-"
    for regions, replicas, primary, epochs in itertools.product(
        (2, 3, 5), (2, 4), (None, 3), (None, 1, 7)
    ):
        system = multi_region_system(
            regions=regions, replicas_per_region=replicas, primary_replicas=primary, epochs=epochs
        )
        yield system, _region_zones(system), "wan-"


def test_island_patterns_equal_the_channel_list_patterns_of_the_set_formula():
    checked = 0
    for system, zone_of, prefix in _families():
        processes = sorted(system.processes)
        islands = [f for f in system.patterns if f.name.startswith(prefix)]
        assert islands
        oracles = [island_pattern(processes, f.crash_prone, zone_of, name=f.name) for f in islands]
        reference = FailProneSystem(processes, oracles)
        for f, g in zip(islands, oracles):
            assert hash(f) == hash(g)
            assert f.channel_count == g.channel_count == len(g.disconnect_prone)
            assert (
                system.residual_bitset(f).scc_masks() == reference.residual_bitset(g).scc_masks()
            )
            assert f == g and g == f
            assert {g: "listed"}[f] == "listed" and {f: "born"}[g] == "born"
            assert f.disconnect_prone == g.disconnect_prone
            checked += 1
        # Distinct island patterns stay distinct.
        assert len(set(islands)) == len(set(oracles))
    assert checked > 100


def test_equal_island_patterns_compare_their_rows_without_decoding():
    first = multi_region_system(regions=4, replicas_per_region=3)
    second = multi_region_system(regions=4, replicas_per_region=3)
    for f, g in zip(first.patterns[:-1], second.patterns[:-1]):
        assert f is not g and f == g and hash(f) == hash(g)
        assert {f: 1}[g] == 1
    assert first.patterns[0] != second.patterns[1]
    assert all(f._disconnect_prone is None for f in first.patterns[:-1] + second.patterns[:-1])


def test_an_island_pattern_survives_pickling_undecoded():
    system = builtin_fail_prone_system("multiregion-4x3")
    pattern = system.patterns[0]
    copy = pickle.loads(pickle.dumps(pattern))
    assert copy == pattern and hash(copy) == hash(pattern) and copy.name == pattern.name
    assert copy._disconnect_prone is None
    assert copy.disconnect_prone == pattern.disconnect_prone
    shipped = pickle.loads(pickle.dumps(system))
    report = api.DiscoveryReport(shipped, discover_gqs(shipped)).to_dict()
    assert report == api.DiscoveryReport(system, discover_gqs(system)).to_dict()


@pytest.fixture
def decodes(monkeypatch):
    """Every channel set decoded from rows, as the row lists handed in."""
    seen = []
    channels_of = ProcessIndex.channels_of

    def counting_channels_of(index, rows):
        seen.append(rows)
        return channels_of(index, rows)

    monkeypatch.setattr(ProcessIndex, "channels_of", counting_channels_of)
    return seen


@pytest.mark.parametrize("name", ["large-threshold-60x3x4", "multiregion-10x5"])
def test_a_validated_discovery_never_decodes_an_island_pattern(decodes, name):
    system = builtin_fail_prone_system(name)
    assert sum(f._encoding is not None for f in system.patterns) == len(system.patterns) - 1
    result = discover_gqs(system, validate=True)
    assert result.exists
    assert decodes == []
    assert system._pattern_masks == {}
    # Nor does the facade's report of it.
    system = api.resolve_system(builtin=name)
    api.DiscoveryReport(system, api.discover(system)).to_dict()
    assert decodes == []
    assert all(f._disconnect_prone is None for f in system.patterns if f._encoding is not None)


def test_islands_must_partition_the_survivors():
    index = ProcessIndex("abcd")
    with pytest.raises(InvalidFailurePatternError, match=r"islands overlap at \['b'\]"):
        FailurePattern.islands(index, 0, [0b0011, 0b0110, 0b1000])
    with pytest.raises(InvalidFailurePatternError, match=r"missing \['c'\], extra \[\]"):
        FailurePattern.islands(index, 0b1000, [0b0011])
    with pytest.raises(InvalidFailurePatternError, match=r"missing \[\], extra \['d'\]"):
        FailurePattern.islands(index, 0b1000, [0b0011, 0b1100])
    with pytest.raises(InvalidFailurePatternError, match="cover exactly"):
        FailurePattern.islands(index, 0b10000, [0b1111])
    pattern = FailurePattern.islands(index, 0b1000, [0b0011, 0b0100])
    assert pattern.crash_prone == frozenset("d")
    assert pattern == FailurePattern("d", [("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")])


def test_a_sparse_network_rejects_an_island_pattern_that_cuts_a_missing_channel():
    processes = list("abcd")
    channels = [(p, q) for p in processes for q in processes if p != q and (p, q) != ("a", "c")]
    born = FailurePattern.islands(ProcessIndex(processes), 0, [0b0011, 0b1100], name="split")
    listed = FailurePattern((), born.disconnect_prone, name="split")
    messages = []
    for pattern in (born, listed):
        with pytest.raises(InvalidFailurePatternError) as error:
            FailProneSystem(processes, [pattern], channels)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert "disconnects channel ('a', 'c') that does not exist in the network graph" in messages[0]


def test_an_island_pattern_over_other_processes_is_encoded_from_its_channels():
    born = FailurePattern.islands(ProcessIndex("abc"), 0b100, [0b001, 0b010])
    system = FailProneSystem("abcd", [born])
    reference = FailProneSystem("abcd", [FailurePattern("c", [("a", "b"), ("b", "a")])])
    assert system.residual_bitset(born).scc_masks() == reference.residual_bitset(
        reference.patterns[0]
    ).scc_masks()
    stranger = FailurePattern.islands(ProcessIndex("abx"), 0, [0b001, 0b110])
    with pytest.raises(InvalidFailurePatternError, match="outside the process set"):
        FailProneSystem("abc", [stranger])
