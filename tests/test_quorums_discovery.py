"""Tests for the GQS decision procedure (:mod:`repro.quorums.discovery`)."""

import pytest

from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import (
    candidate_pairs,
    classify_fail_prone_system,
    discover_gqs,
    gqs_exists,
    strong_system_exists,
)

from oracles.discovery import gqs_exists_bruteforce


def test_figure1_discovery_finds_a_gqs(figure1_system):
    result = discover_gqs(figure1_system)
    assert result.exists
    assert result.quorum_system is not None
    assert result.quorum_system.is_valid()
    # One candidate chosen per pattern.
    assert set(result.choices) == set(figure1_system.patterns)


def test_modified_figure1_has_no_gqs(figure1_modified_system):
    result = discover_gqs(figure1_modified_system)
    assert not result.exists
    assert result.quorum_system is None
    assert not gqs_exists(figure1_modified_system)


def test_candidate_pairs_are_sccs_with_maximal_readers(figure1_system):
    f1 = figure1_system.patterns[0]
    candidates = candidate_pairs(figure1_system, f1)
    write_quorums = {c.write_quorum for c in candidates}
    # Residual graph under f1: a <-> b strongly connected, c a source.
    assert frozenset({"a", "b"}) in write_quorums
    assert frozenset({"c"}) in write_quorums
    for candidate in candidates:
        assert candidate.write_quorum <= candidate.read_quorum


def test_discovery_matches_bruteforce_on_figure1(figure1_system, figure1_modified_system):
    assert gqs_exists(figure1_system) == gqs_exists_bruteforce(figure1_system)
    assert gqs_exists(figure1_modified_system) == gqs_exists_bruteforce(figure1_modified_system)


def test_bruteforce_guard_on_large_systems():
    system = FailProneSystem.crash_threshold(["p{}".format(i) for i in range(7)], 1)
    with pytest.raises(ValueError):
        gqs_exists_bruteforce(system, max_processes=5)


def test_crash_only_threshold_always_admits_gqs():
    for n, k in [(3, 1), (4, 1), (5, 2)]:
        system = FailProneSystem.crash_threshold(["p{}".format(i) for i in range(n)], k)
        assert gqs_exists(system)


def test_crash_majority_has_no_quorum_system():
    # With 2 of 3 processes allowed to crash, no quorum system of any kind exists
    # (read and write quorums of correct processes cannot always intersect).
    system = FailProneSystem.crash_threshold(["a", "b", "c"], 2)
    assert not gqs_exists(system)
    assert not gqs_exists_bruteforce(system)


def test_single_failure_free_pattern_trivially_admits_gqs():
    system = FailProneSystem(["a", "b"], [FailurePattern()])
    result = discover_gqs(system)
    assert result.exists
    gqs = result.quorum_system
    f = system.patterns[0]
    assert gqs.termination_component(f) == frozenset({"a", "b"})


def test_a_system_without_patterns_is_the_failure_free_system():
    # No pattern at all is one place's rule (FailProneSystem): the failure-free
    # pattern alone, so every decision agrees and the witness is {a, b} twice.
    system = FailProneSystem(["a", "b"], [])
    assert system.patterns == (FailurePattern(),)
    result = discover_gqs(system)
    assert result.exists
    assert result.quorum_system.read_quorums == (frozenset({"a", "b"}),)
    assert result.quorum_system.write_quorums == (frozenset({"a", "b"}),)
    assert strong_system_exists(system)
    verdict = classify_fail_prone_system(system)
    assert verdict == {"classical": True, "strong": True, "generalized": True}


def test_classify_fail_prone_system_orders_conditions(figure1_system):
    verdict = classify_fail_prone_system(figure1_system)
    assert verdict["generalized"] is True
    assert verdict["strong"] is False
    assert verdict["classical"] is False


def test_classify_crash_only_system():
    system = FailProneSystem.crash_threshold(["a", "b", "c"], 1)
    verdict = classify_fail_prone_system(system)
    assert verdict == {"classical": True, "strong": True, "generalized": True}


def test_discovery_counts_candidates_and_nodes(figure1_system):
    result = discover_gqs(figure1_system)
    assert result.nodes_explored >= len(figure1_system.patterns)
    assert all(count >= 1 for count in result.candidates_per_pattern.values())


def test_discovery_result_bool(figure1_system, figure1_modified_system):
    assert bool(discover_gqs(figure1_system))
    assert not bool(discover_gqs(figure1_modified_system))


def test_a_witness_is_decoded_only_when_a_caller_reads_it(monkeypatch):
    """Discovery hands its chosen masks to the quorum system and validation runs
    on them: neither a validated watch nor a validated discovery decodes a
    process set until a caller reads the witness, and what it then reads is
    the golden witness, byte for byte."""
    import os

    from repro import api
    from repro.graph import ProcessIndex
    from repro.quorums import MembershipDelta

    decoded = []
    set_of = ProcessIndex.set_of

    def counting_set_of(index, mask):
        decoded.append(mask)
        return set_of(index, mask)

    monkeypatch.setattr(ProcessIndex, "set_of", counting_set_of)
    system = api.resolve_system(builtin="large-threshold-24x2")
    ring = sorted(system.processes)
    watch = api.watch_quorums(system, [
        MembershipDelta("join", process="joiner"),
        MembershipDelta("suspect", process=ring[0]),
        MembershipDelta("trust", process=ring[0]),
        MembershipDelta("suspect-channel", src=ring[1], dst=ring[5]),
        MembershipDelta("trust-channel", src=ring[1], dst=ring[5]),
        MembershipDelta("leave", process="joiner"),
    ])
    assert watch.all_exist and watch.to_json()
    figure1 = api.resolve_system(builtin="figure1")
    result = api.discover(figure1)
    assert result.exists and result.quorum_system.is_valid()
    assert decoded == []

    assert result.choices[figure1.patterns[0]].read_quorum == {"a", "b", "c"}
    assert len(decoded) == 1  # that one field, nothing else
    families = result.quorum_system.read_quorums, result.quorum_system.write_quorums
    assert len(decoded) == 1 + sum(map(len, families))
    golden = os.path.join(os.path.dirname(__file__), "golden", "quorums_discover_figure1.json")
    with open(golden, "r", encoding="utf-8") as handle:
        assert api.DiscoveryReport(figure1, result).to_json() + "\n" == handle.read()
