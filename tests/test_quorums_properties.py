"""Property-based tests for quorum-system predicates and the discovery procedure."""

import random

from hypothesis import given, settings, strategies as st

from repro.failures import FailProneSystem, random_failure_pattern
from repro.quorums import (
    GeneralizedQuorumSystem,
    discover_gqs,
    gqs_exists,
    is_f_available,
    strong_system_exists,
)

from oracles.discovery import gqs_exists_bruteforce
from oracles.predicates import is_f_reachable

PROCESSES = ["p0", "p1", "p2", "p3"]


@st.composite
def small_fail_prone_system(draw):
    """A random fail-prone system over 4 processes with 1-3 patterns."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_patterns = draw(st.integers(min_value=1, max_value=3))
    crash_prob = draw(st.sampled_from([0.0, 0.2, 0.4]))
    disconnect_prob = draw(st.sampled_from([0.0, 0.2, 0.4, 0.7]))
    rng = random.Random(seed)
    patterns = [
        random_failure_pattern(
            PROCESSES,
            rng,
            crash_prob=crash_prob,
            disconnect_prob=disconnect_prob,
            name="f{}".format(i),
        )
        for i in range(num_patterns)
    ]
    return FailProneSystem(PROCESSES, patterns)


@given(small_fail_prone_system())
@settings(max_examples=40, deadline=None)
def test_discovery_agrees_with_bruteforce(system):
    assert gqs_exists(system) == gqs_exists_bruteforce(system)


@given(small_fail_prone_system())
@settings(max_examples=40, deadline=None)
def test_discovered_witness_is_a_valid_gqs(system):
    result = discover_gqs(system)
    if result.exists:
        assert result.quorum_system is not None
        assert result.quorum_system.is_valid()


@given(small_fail_prone_system())
@settings(max_examples=40, deadline=None)
def test_strong_condition_implies_generalized(system):
    """QS+ admissibility implies GQS admissibility (the paper's hierarchy)."""
    if strong_system_exists(system):
        assert gqs_exists(system)


@given(small_fail_prone_system())
@settings(max_examples=30, deadline=None)
def test_termination_components_contain_a_validating_write_quorum(system):
    result = discover_gqs(system)
    if not result.exists:
        return
    gqs = result.quorum_system
    for pattern in system:
        component = gqs.termination_component(pattern)
        validating = gqs.validating_write_quorums(pattern)
        assert validating, "a valid GQS must have a validating write quorum per pattern"
        assert all(w <= component for w in validating)


@given(small_fail_prone_system())
@settings(max_examples=30, deadline=None)
def test_availability_predicates_monotone_under_subsets(system):
    """Any subset of an f-available quorum is f-available; reachability likewise."""
    for pattern in system:
        result = discover_gqs(system)
        if not result.exists:
            return
        pair = result.quorum_system.available_pair(pattern)
        if pair is None:
            continue
        read_quorum, write_quorum = pair
        for member in write_quorum:
            assert is_f_available(system, pattern, {member})
            assert is_f_reachable(system, pattern, {member}, read_quorum)
