"""Tests for the register linearizability checkers."""

import pytest

from repro.checkers import (
    DependencyGraphChecker,
    check_register_linearizability,
    check_register_witness_first,
)
from repro.errors import HistoryError
from repro.history import History, OperationRecord


def op(pid, kind, arg, result, start, end, op_id=None):
    if op_id is None:
        op_id = int(start * 1000) + hash(pid) % 97
    return OperationRecord(pid, kind, arg, result, start, end, op_id=op_id)


def history(*records):
    return History(records)


# --------------------------------------------------------------------------- #
# Wing-Gong checker: positive cases
# --------------------------------------------------------------------------- #
def test_empty_history_is_linearizable():
    assert bool(check_register_linearizability(history()))


def test_sequential_write_then_read():
    h = history(
        op("a", "write", 1, "ack", 0, 1),
        op("b", "read", None, 1, 2, 3),
    )
    assert bool(check_register_linearizability(h, initial_value=0))


def test_read_of_initial_value():
    h = history(op("a", "read", None, 0, 0, 1))
    assert bool(check_register_linearizability(h, initial_value=0))


def test_concurrent_reads_may_split_around_write():
    # Both reads overlap the write; one sees old, one sees new -> linearizable.
    h = history(
        op("a", "write", 1, "ack", 0, 10),
        op("b", "read", None, 0, 1, 2),
        op("c", "read", None, 1, 3, 4),
    )
    assert bool(check_register_linearizability(h, initial_value=0))


def test_concurrent_writes_any_order():
    h = history(
        op("a", "write", 1, "ack", 0, 10),
        op("b", "write", 2, "ack", 0, 10),
        op("c", "read", None, 1, 11, 12),
    )
    assert bool(check_register_linearizability(h, initial_value=0))


def test_incomplete_write_may_take_effect():
    h = history(
        op("a", "write", 5, None, 0, None),
        op("b", "read", None, 5, 10, 11),
    )
    assert bool(check_register_linearizability(h, initial_value=0))


def test_incomplete_write_may_be_ignored():
    h = history(
        op("a", "write", 5, None, 0, None),
        op("b", "read", None, 0, 10, 11),
    )
    assert bool(check_register_linearizability(h, initial_value=0))


def test_witness_is_a_valid_sequential_execution():
    h = history(
        op("a", "write", 1, "ack", 0, 1),
        op("b", "write", 2, "ack", 2, 3),
        op("c", "read", None, 2, 4, 5),
    )
    outcome = check_register_linearizability(h, initial_value=0)
    assert outcome.is_linearizable
    kinds = [record.kind for record in outcome.witness]
    assert kinds.count("read") == 1
    assert len(outcome.witness) == 3


# --------------------------------------------------------------------------- #
# Wing-Gong checker: negative cases
# --------------------------------------------------------------------------- #
def test_stale_read_after_write_completes_is_rejected():
    h = history(
        op("a", "write", 1, "ack", 0, 1),
        op("b", "read", None, 0, 2, 3),
    )
    outcome = check_register_linearizability(h, initial_value=0)
    assert not outcome.is_linearizable
    assert outcome.reason


def test_read_of_never_written_value_is_rejected():
    h = history(op("a", "read", None, 99, 0, 1))
    assert not check_register_linearizability(h, initial_value=0).is_linearizable


def test_new_old_inversion_rejected():
    # r1 follows r2 in real time but returns the older value.
    h = history(
        op("a", "write", 1, "ack", 0, 1),
        op("b", "write", 2, "ack", 2, 3),
        op("c", "read", None, 2, 4, 5),
        op("d", "read", None, 1, 6, 7),
    )
    assert not check_register_linearizability(h, initial_value=0).is_linearizable


def test_read_must_not_resurrect_overwritten_value():
    h = history(
        op("a", "write", 1, "ack", 0, 1),
        op("a", "write", 2, "ack", 2, 3),
        op("b", "read", None, 1, 4, 5),
    )
    assert not check_register_linearizability(h, initial_value=0).is_linearizable


def test_non_register_operation_rejected():
    h = history(op("a", "propose", 1, 1, 0, 1))
    with pytest.raises(HistoryError):
        check_register_linearizability(h)


@pytest.mark.parametrize(
    "check", [check_register_linearizability, check_register_witness_first]
)
def test_foreign_operation_kind_is_rejected_by_every_register_path(check):
    """Regression: the witness path filters by kind, so it used to certify a
    history after ignoring every operation it did not understand."""
    h = history(
        op("a", "snapshot_write", 1, "ack", 0, 1, op_id=1),
        op("b", "rea", None, 7, 2, 3, op_id=2),
    )
    with pytest.raises(HistoryError) as raised:
        check(h)
    assert str(raised.value) == (
        "register histories may only contain read/write operations, got 'snapshot_write'"
    )


def test_state_bound_guard():
    records = [op("p{}".format(i), "write", i, "ack", 0, 100, op_id=i) for i in range(12)]
    with pytest.raises(HistoryError) as raised:
        check_register_linearizability(History(records), max_states=10)
    assert str(raised.value) == "linearizability search exceeded 10 states; history too large"


def test_the_search_has_no_selector():
    """One complete search: no ``mode=`` picks a formulation, and the
    witness-first path takes no caller-supplied write order."""
    h = history(op("a", "write", 1, "ack", 0, 1))
    with pytest.raises(TypeError):
        check_register_linearizability(h, mode="streaming")
    with pytest.raises(TypeError):
        check_register_witness_first(h, versions={0: 1})


# --------------------------------------------------------------------------- #
# Dependency-graph checker (Appendix B)
# --------------------------------------------------------------------------- #
def test_dependency_graph_accepts_correct_write_order():
    w1 = op("a", "write", 1, "ack", 0, 1, op_id=1)
    w2 = op("b", "write", 2, "ack", 2, 3, op_id=2)
    r1 = op("c", "read", None, 2, 4, 5, op_id=3)
    checker = DependencyGraphChecker(history(w1, w2, r1), initial_value=0)
    assert checker.check([w1, w2])
    versions = {1: (1, 1), 2: (2, 2)}  # the protocol's order, as Figure 4 tags writes
    assert checker.check(sorted(checker.writes, key=lambda w: versions[w.op_id]))


def test_dependency_graph_rejects_wrong_write_order():
    w1 = op("a", "write", 1, "ack", 0, 1, op_id=1)
    w2 = op("b", "write", 2, "ack", 2, 3, op_id=2)
    r1 = op("c", "read", None, 2, 4, 5, op_id=3)
    checker = DependencyGraphChecker(history(w1, w2, r1), initial_value=0)
    # Putting w2 before w1 contradicts both real time and the read of 2.
    assert not checker.check([w2, w1])


def test_dependency_graph_requires_distinct_written_values():
    w1 = op("a", "write", 1, "ack", 0, 1, op_id=1)
    w2 = op("b", "write", 1, "ack", 2, 3, op_id=2)
    with pytest.raises(HistoryError):
        DependencyGraphChecker(history(w1, w2))


def test_dependency_graph_rejects_unknown_read_value():
    w1 = op("a", "write", 1, "ack", 0, 1, op_id=1)
    r1 = op("c", "read", None, 7, 4, 5, op_id=2)
    checker = DependencyGraphChecker(history(w1, r1), initial_value=0)
    with pytest.raises(HistoryError):
        checker.check([w1])


def test_dependency_graph_write_order_must_be_permutation():
    w1 = op("a", "write", 1, "ack", 0, 1, op_id=1)
    w2 = op("b", "write", 2, "ack", 2, 3, op_id=2)
    checker = DependencyGraphChecker(history(w1, w2), initial_value=0)
    with pytest.raises(HistoryError):
        checker.check([w1])


def test_dependency_graph_read_of_initial_value_precedes_all_writes():
    w1 = op("a", "write", 1, "ack", 5, 6, op_id=1)
    r0 = op("b", "read", None, 0, 0, 1, op_id=2)
    checker = DependencyGraphChecker(history(w1, r0), initial_value=0)
    assert checker.check([w1])


def test_dependency_graph_agrees_with_wing_gong_on_valid_history():
    w1 = op("a", "write", 1, "ack", 0, 2, op_id=1)
    w2 = op("b", "write", 2, "ack", 1, 3, op_id=2)
    r1 = op("c", "read", None, 1, 4, 5, op_id=3)
    h = history(w1, w2, r1)
    wing_gong = check_register_linearizability(h, initial_value=0)
    assert wing_gong.is_linearizable
    checker = DependencyGraphChecker(h, initial_value=0)
    # The read of 1 after both writes completes forces w2 before w1.
    assert checker.check([w2, w1])
    assert not checker.check([w1, w2])
