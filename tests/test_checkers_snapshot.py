"""Tests for the snapshot linearizability checker."""

import pytest

from repro.checkers import check_snapshot_linearizability
from repro.errors import HistoryError
from repro.history import History, OperationRecord

from oracles.linearizability import scans_totally_ordered

SEGMENTS = ("a", "b")


def write(pid, value, start, end):
    return OperationRecord(pid, "snapshot_write", value, "ack", start, end, op_id=int(start * 10))


def scan(pid, result, start, end):
    return OperationRecord(pid, "snapshot_scan", None, result, start, end, op_id=int(start * 10) + 1)


def check(*records, segments=SEGMENTS):
    return check_snapshot_linearizability(History(records), segment_ids=segments, initial_value=None)


def test_empty_history_linearizable():
    assert bool(check())


def test_scan_of_initial_state():
    assert bool(check(scan("a", {"a": None, "b": None}, 0, 1)))


def test_write_then_scan():
    assert bool(
        check(
            write("a", "x", 0, 1),
            scan("b", {"a": "x", "b": None}, 2, 3),
        )
    )


def test_scan_missing_completed_write_rejected():
    outcome = check(
        write("a", "x", 0, 1),
        scan("b", {"a": None, "b": None}, 2, 3),
    )
    assert not outcome.is_linearizable


def test_concurrent_write_may_or_may_not_be_seen():
    assert bool(
        check(
            write("a", "x", 0, 10),
            scan("b", {"a": None, "b": None}, 1, 2),
        )
    )
    assert bool(
        check(
            write("a", "x", 0, 10),
            scan("b", {"a": "x", "b": None}, 1, 2),
        )
    )


def test_incomparable_scans_rejected():
    """The classic snapshot violation: two scans each missing the other's write."""
    outcome = check(
        write("a", "x", 0, 10),
        write("b", "y", 0, 10),
        scan("a", {"a": "x", "b": None}, 11, 12),
        scan("b", {"a": None, "b": "y"}, 11, 12),
    )
    assert not outcome.is_linearizable


def test_scan_with_wrong_segment_set_rejected():
    outcome = check(scan("a", {"a": None}, 0, 1))
    assert not outcome.is_linearizable


def test_incomplete_write_optional():
    assert bool(
        check(
            OperationRecord("a", "snapshot_write", "x", None, 0, None, op_id=1),
            scan("b", {"a": None, "b": None}, 5, 6),
        )
    )
    assert bool(
        check(
            OperationRecord("a", "snapshot_write", "x", None, 0, None, op_id=1),
            scan("b", {"a": "x", "b": None}, 5, 6),
        )
    )


def test_write_by_unknown_segment_owner_rejected():
    with pytest.raises(HistoryError, match="^write by unknown segment owner 'z'$"):
        check(write("z", "x", 0, 1), scan("a", {"a": None, "b": None}, 2, 3))


def test_wrong_operation_kind_rejected():
    with pytest.raises(HistoryError) as raised:
        check_snapshot_linearizability(
            History([OperationRecord("a", "read", None, None, 0, 1)]),
            segment_ids=SEGMENTS,
        )
    assert str(raised.value) == (
        "snapshot histories may only contain snapshot_write/snapshot_scan operations, got 'read'"
    )


def test_state_bound_guard_keeps_the_snapshot_wording():
    records = [write("a", value, 0, 100) for value in range(6)]
    with pytest.raises(HistoryError, match="^snapshot linearizability search exceeded 3 states$"):
        check_snapshot_linearizability(History(records), segment_ids=SEGMENTS, max_states=3)


def test_scans_totally_ordered_helper():
    ordered = History(
        [
            scan("a", {"a": "x", "b": None}, 0, 1),
            scan("b", {"a": "x", "b": "y"}, 2, 3),
        ]
    )
    incomparable = History(
        [
            scan("a", {"a": "x", "b": None}, 0, 1),
            scan("b", {"a": None, "b": "y"}, 2, 3),
        ]
    )
    assert scans_totally_ordered(ordered)
    assert not scans_totally_ordered(incomparable)
