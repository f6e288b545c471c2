"""Tests for the QS+ baseline: the decision (:mod:`repro.quorums.strong`) and the
set-form validator of a given QS+ (``oracles.predicates.check_strong``)."""

import pytest

from repro.errors import QuorumAvailabilityError, QuorumConsistencyError
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import strong_system_exists, threshold_quorum_system

from oracles.predicates import check_strong, strong_available_pair


def test_crash_only_threshold_admits_strong_system():
    system = FailProneSystem.crash_threshold(["a", "b", "c"], 1)
    assert strong_system_exists(system)


def test_figure1_admits_no_strong_system(figure1_system):
    """The Figure 1 system is the paper's witness that GQS is strictly weaker than QS+."""
    assert not strong_system_exists(figure1_system)


def test_modified_figure1_admits_no_strong_system(figure1_modified_system):
    assert not strong_system_exists(figure1_modified_system)


def test_strong_system_validation_happy_path():
    classical = threshold_quorum_system(["a", "b", "c"], 1)
    check_strong(classical.fail_prone, classical.read_quorums, classical.write_quorums)


def test_strong_system_consistency_violation():
    system = FailProneSystem(["a", "b", "c", "d"], [FailurePattern()])
    with pytest.raises(QuorumConsistencyError):
        check_strong(system, [frozenset("ab")], [frozenset("cd")])


def test_strong_system_availability_requires_strong_connectivity(figure1_system):
    """The Figure 1 quorums are a valid GQS but fail strong Availability under f1."""
    read_quorums = [frozenset("ac"), frozenset("bd")]
    write_quorums = [frozenset("ab"), frozenset("bc"), frozenset("cd"), frozenset("da")]
    with pytest.raises(QuorumAvailabilityError, match=r"pair under f1\("):
        check_strong(figure1_system, read_quorums, write_quorums)


def test_strong_availability_per_pattern():
    pattern = FailurePattern([], [("a", "b")], name="a-to-b-down")
    system = FailProneSystem(["a", "b"], [pattern])
    singletons = [frozenset("a"), frozenset("b")]
    # Individually {a} and {b} are fine but {a} ∪ {b} spanning pairs are not needed:
    # Availability holds because the pair ({a}, {a}) is strongly connected.
    assert strong_available_pair(system, pattern, singletons, singletons) == (
        frozenset("a"), frozenset("a")
    )


def test_strong_system_exists_requires_some_component():
    # Both processes isolated in both directions: residual SCCs are singletons,
    # and the two patterns force two disjoint singletons -> no QS+.
    p1 = FailurePattern(["a"], name="crash-a")
    p2 = FailurePattern(["b"], name="crash-b")
    system = FailProneSystem(["a", "b"], [p1, p2])
    assert not strong_system_exists(system)


def test_strong_system_exists_with_overlapping_components():
    p1 = FailurePattern(["a"], name="crash-a")
    p2 = FailurePattern(["c"], name="crash-c")
    system = FailProneSystem(["a", "b", "c"], [p1, p2])
    assert strong_system_exists(system)
