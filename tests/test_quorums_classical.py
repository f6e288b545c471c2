"""Tests for classical quorum systems (:mod:`repro.quorums.classical`)."""

import pytest

from repro.errors import (
    InvalidQuorumSystemError,
    QuorumAvailabilityError,
    QuorumConsistencyError,
)
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import QuorumSystem, threshold_quorum_system


def crash_only_system(processes, k):
    return FailProneSystem.crash_threshold(processes, k)


def test_threshold_quorum_system_example6():
    system = threshold_quorum_system(["p{}".format(i) for i in range(5)], 1)
    assert system.is_valid()
    assert all(len(r) == 4 for r in system.read_quorums)
    assert all(len(w) == 2 for w in system.write_quorums)


def test_threshold_rejects_k_too_large():
    with pytest.raises(InvalidQuorumSystemError):
        threshold_quorum_system(["a", "b", "c"], 2)


def test_threshold_k_zero():
    system = threshold_quorum_system(["a", "b"], 0)
    assert system.is_valid()
    assert all(len(w) == 1 for w in system.write_quorums)


def test_consistency_violation_detected():
    fail_prone = crash_only_system(["a", "b", "c", "d"], 0)
    with pytest.raises(QuorumConsistencyError):
        QuorumSystem(fail_prone, [{"a", "b"}], [{"c", "d"}])


def test_availability_violation_detected():
    fail_prone = crash_only_system(["a", "b", "c"], 1)
    # Read quorum {a, b, c} can never be all-correct when one process crashes
    # ... it can actually (only maximal patterns with exactly 1 crash): not available.
    with pytest.raises(QuorumAvailabilityError):
        QuorumSystem(fail_prone, [{"a", "b", "c"}], [{"a"}, {"b"}, {"c"}])


def test_validate_false_defers_checking():
    fail_prone = crash_only_system(["a", "b", "c", "d"], 0)
    system = QuorumSystem(fail_prone, [{"a", "b"}], [{"c", "d"}], validate=False)
    assert not system.is_valid()
    with pytest.raises(
        QuorumConsistencyError,
        match=r"^read quorum \['a', 'b'\] does not intersect write quorum \['c', 'd'\]$",
    ):
        system.check()


def test_channel_failures_rejected_for_classical_systems():
    fail_prone = FailProneSystem(["a", "b"], [FailurePattern([], [("a", "b")])])
    with pytest.raises(InvalidQuorumSystemError):
        QuorumSystem(fail_prone, [{"a"}], [{"a"}])


def test_unknown_process_in_quorum_rejected():
    fail_prone = crash_only_system(["a", "b", "c"], 0)
    with pytest.raises(InvalidQuorumSystemError):
        QuorumSystem(fail_prone, [{"a", "z"}], [{"a"}])


def test_empty_quorum_rejected():
    fail_prone = crash_only_system(["a", "b", "c"], 0)
    with pytest.raises(InvalidQuorumSystemError):
        QuorumSystem(fail_prone, [set()], [{"a"}])


def test_available_quorums_returns_correct_pair():
    system = threshold_quorum_system(["a", "b", "c"], 1)
    pattern = FailurePattern.crash_only(["c"])
    pair = system.available_pair(pattern)
    assert pair is not None
    read, write = pair
    assert "c" not in read and "c" not in write


def test_duplicate_quorums_are_deduplicated():
    fail_prone = crash_only_system(["a", "b"], 0)
    system = QuorumSystem(fail_prone, [{"a"}, {"a"}], [{"a", "b"}])
    assert len(system.read_quorums) == 1
