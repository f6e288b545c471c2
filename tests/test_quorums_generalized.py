"""Tests for generalized quorum systems (:mod:`repro.quorums.generalized`)."""

import pytest

from repro.errors import QuorumAvailabilityError, QuorumConsistencyError
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import (
    GeneralizedQuorumSystem,
    is_f_available,
    threshold_quorum_system,
)

from oracles.predicates import is_f_reachable


def one_way_system():
    """Three processes; only channels a->b and b->c (plus c<->b back-edge) survive."""
    pattern = FailurePattern(
        [],
        [("b", "a"), ("c", "a"), ("a", "c")],
        name="one-way",
    )
    return FailProneSystem(["a", "b", "c"], [pattern]), pattern


def test_f_availability_requires_correct_and_strongly_connected(figure1_system):
    f1 = figure1_system.patterns[0]
    assert is_f_available(figure1_system, f1, {"a", "b"})
    # {a, c} is not strongly connected under f1 (no path a -> c).
    assert not is_f_available(figure1_system, f1, {"a", "c"})
    # Quorums containing the crashed process are never available.
    assert not is_f_available(figure1_system, f1, {"a", "d"})
    # The empty set is not a quorum.
    assert not is_f_available(figure1_system, f1, set())


def test_f_reachability(figure1_system):
    f1 = figure1_system.patterns[0]
    assert is_f_reachable(figure1_system, f1, {"a", "b"}, {"a", "c"})
    # {a, c} cannot be reached from {a, b}: c has no incoming correct channel.
    assert not is_f_reachable(figure1_system, f1, {"a", "c"}, {"a", "b"})
    # Faulty processes disqualify a quorum.
    assert not is_f_reachable(figure1_system, f1, {"a", "b"}, {"a", "d"})


def test_figure1_gqs_is_valid(figure1_gqs):
    assert figure1_gqs.is_valid()
    figure1_gqs.check()  # neither Consistency nor Availability raises
    assert all(figure1_gqs.is_available(f) for f in figure1_gqs.fail_prone)


def test_figure1_termination_components_match_example9(figure1_gqs):
    expected = {
        "f1": {"a", "b"},
        "f2": {"b", "c"},
        "f3": {"c", "d"},
        "f4": {"d", "a"},
    }
    for pattern in figure1_gqs.fail_prone:
        assert figure1_gqs.termination_component(pattern) == frozenset(expected[pattern.name])


def test_termination_component_is_nonempty_for_every_pattern(figure1_gqs):
    assert all(figure1_gqs.termination_component(f) for f in figure1_gqs.fail_prone)


def test_available_pair_returns_validating_quorums(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    pair = figure1_gqs.available_pair(f1)
    assert pair is not None
    read, write = pair
    assert write == frozenset({"a", "b"})
    assert read == frozenset({"a", "c"})


def test_consistency_violation_raises():
    system = FailProneSystem(["a", "b", "c"], [FailurePattern()])
    with pytest.raises(QuorumConsistencyError):
        GeneralizedQuorumSystem(system, [{"a"}], [{"b"}])


def test_availability_violation_raises():
    fail_prone, pattern = one_way_system()
    # Write quorum {a} is available but not reachable from read quorum {c}
    # (no path c -> a), so Availability fails.
    with pytest.raises(QuorumAvailabilityError):
        GeneralizedQuorumSystem(fail_prone, [{"c"}], [{"a", "c"}])
    del pattern


def test_one_way_system_admits_downstream_write_quorum():
    fail_prone, pattern = one_way_system()
    # b and c are mutually connected; both reachable from a.
    gqs = GeneralizedQuorumSystem(fail_prone, [{"a", "b"}], [{"b", "c"}])
    assert gqs.is_valid()
    assert gqs.termination_component(pattern) == frozenset({"b", "c"})


def test_classical_system_lifts_to_gqs(threshold_3_1):
    lifted = GeneralizedQuorumSystem.from_classical(threshold_3_1)
    assert lifted.is_valid()
    # With no channel failures the termination component is all correct processes.
    for pattern in lifted.fail_prone:
        component = lifted.termination_component(pattern)
        assert component == pattern.correct_processes(lifted.processes)


def test_validating_write_quorums(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    validating = figure1_gqs.validating_write_quorums(f1)
    assert validating == [frozenset({"a", "b"})]


def test_describe_contains_components(figure1_gqs):
    text = figure1_gqs.describe()
    assert "U_f" in text
    assert "f1" in text


def test_unknown_process_rejected():
    system = FailProneSystem(["a", "b"], [FailurePattern()])
    with pytest.raises(Exception):
        GeneralizedQuorumSystem(system, [{"a", "z"}], [{"a"}])


def test_termination_component_cached(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    first = figure1_gqs.termination_component(f1)
    second = figure1_gqs.termination_component(f1)
    assert first is second
