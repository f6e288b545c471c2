"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import (
    figure1_fail_prone_system,
    figure1_modified_fail_prone_system,
    figure1_quorum_system,
)
from repro.failures import FailProneSystem, FailurePattern
from repro.protocols import SemiLattice
from repro.quorums import GeneralizedQuorumSystem, threshold_quorum_system


@pytest.fixture(scope="session")
def figure1_gqs() -> GeneralizedQuorumSystem:
    """The paper's running example as a validated generalized quorum system."""
    return figure1_quorum_system()


@pytest.fixture(scope="session")
def figure1_system() -> FailProneSystem:
    """The fail-prone system of Figure 1."""
    return figure1_fail_prone_system()


@pytest.fixture(scope="session")
def figure1_modified_system() -> FailProneSystem:
    """Example 9's modified system F' that admits no GQS."""
    return figure1_modified_fail_prone_system()


@pytest.fixture(scope="session")
def threshold_3_1():
    """A 3-process, 1-crash threshold quorum system (classical)."""
    return threshold_quorum_system(["a", "b", "c"], 1)


@pytest.fixture(scope="session")
def threshold_3_1_gqs(threshold_3_1) -> GeneralizedQuorumSystem:
    """The same threshold system lifted to a generalized quorum system."""
    return GeneralizedQuorumSystem.from_classical(threshold_3_1)


@pytest.fixture()
def crash_only_pattern() -> FailurePattern:
    """A simple crash-only failure pattern over {a, b, c}."""
    return FailurePattern.crash_only(["c"], name="crash-c")


class MaxLattice(SemiLattice):
    """A totally ordered lattice over numbers: join is max.

    A degenerate case for the lattice tests — with a total order, Comparability
    is trivial and the interesting properties are the validity conditions.
    """

    def bottom(self) -> float:
        return float("-inf")

    def join(self, first, second):
        return max(first, second)

    def leq(self, first, second) -> bool:
        return first <= second


@pytest.fixture()
def max_lattice() -> MaxLattice:
    """A fresh :class:`MaxLattice`."""
    return MaxLattice()
