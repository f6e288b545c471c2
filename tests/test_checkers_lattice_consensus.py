"""Tests for the lattice agreement and consensus property checkers."""

import pytest

from repro.checkers import check_consensus, check_lattice_agreement
from repro.errors import HistoryError
from repro.history import History, OperationRecord
from repro.protocols import SetLattice


def propose(pid, value, result, start=0.0, end=1.0):
    return OperationRecord(pid, "propose", value, result, start, end)


def pending_propose(pid, value, start=0.0):
    return OperationRecord(pid, "propose", value, None, start, None)


# --------------------------------------------------------------------------- #
# Lattice agreement
# --------------------------------------------------------------------------- #
def test_lattice_empty_history_ok():
    assert check_lattice_agreement(History()).ok


def test_lattice_valid_outputs():
    h = History(
        [
            propose("a", frozenset("a"), frozenset("ab")),
            propose("b", frozenset("b"), frozenset("ab")),
        ]
    )
    result = check_lattice_agreement(h)
    assert result.ok and not result.violations


def test_lattice_comparability_violation():
    h = History(
        [
            propose("a", frozenset("a"), frozenset("a")),
            propose("b", frozenset("b"), frozenset("b")),
        ]
    )
    result = check_lattice_agreement(h)
    assert not result.comparability
    assert not result.ok
    assert any("comparability" in v for v in result.violations)


def test_lattice_downward_validity_violation():
    h = History([propose("a", frozenset("a"), frozenset("b"))])
    result = check_lattice_agreement(h)
    assert not result.downward_validity


def test_lattice_upward_validity_violation():
    h = History([propose("a", frozenset("a"), frozenset("az"))])
    result = check_lattice_agreement(h)
    assert not result.upward_validity


def test_lattice_incomplete_proposals_count_as_inputs():
    # b's proposal never returned, but its input may legitimately appear in outputs.
    h = History(
        [
            propose("a", frozenset("a"), frozenset("ab")),
            pending_propose("b", frozenset("b")),
        ]
    )
    assert check_lattice_agreement(h).ok


def test_lattice_custom_lattice(max_lattice):
    h = History([propose("a", 3, 5), propose("b", 5, 5)])
    assert check_lattice_agreement(h, lattice=max_lattice).ok
    bad = History([propose("a", 3, 2)])
    assert not check_lattice_agreement(bad, lattice=max_lattice).downward_validity


def test_lattice_rejects_foreign_operations():
    h = History([OperationRecord("a", "read", None, None, 0, 1)])
    with pytest.raises(HistoryError):
        check_lattice_agreement(h)


# --------------------------------------------------------------------------- #
# Consensus
# --------------------------------------------------------------------------- #
def test_consensus_agreement_and_validity_hold():
    h = History([propose("a", "x", "x"), propose("b", "y", "x")])
    result = check_consensus(h)
    assert result.ok
    assert result.decided_values == ["x", "x"]


def test_consensus_agreement_violation():
    h = History([propose("a", "x", "x"), propose("b", "y", "y")])
    result = check_consensus(h)
    assert not result.agreement
    assert not result.ok


def test_consensus_validity_violation():
    h = History([propose("a", "x", "z")])
    result = check_consensus(h)
    assert not result.validity


def test_consensus_termination_check():
    h = History([propose("a", "x", "x"), pending_propose("b", "y")])
    ok_without = check_consensus(h)
    assert ok_without.termination  # not requested
    failed = check_consensus(h, required_to_terminate={"a", "b"})
    assert not failed.termination
    assert failed.non_terminated == ["b"]
    passed = check_consensus(h, required_to_terminate={"a"})
    assert passed.termination


def test_consensus_termination_only_counts_invoking_processes():
    h = History([propose("a", "x", "x")])
    result = check_consensus(h, required_to_terminate={"a", "b", "c"})
    assert result.termination


def test_consensus_rejects_foreign_operations():
    h = History([OperationRecord("a", "write", 1, "ack", 0, 1)])
    with pytest.raises(HistoryError):
        check_consensus(h)
