"""Tests for operation histories (:mod:`repro.history`)."""

import pytest

from repro.errors import HistoryError
from repro.history import History, OperationRecord


def record(pid, kind, arg, result, start, end, op_id=0):
    return OperationRecord(
        process_id=pid,
        kind=kind,
        argument=arg,
        result=result,
        invoked_at=start,
        completed_at=end,
        op_id=op_id,
    )


def test_record_completeness_and_precedence():
    first = record("a", "write", 1, "ack", 0.0, 1.0)
    second = record("b", "read", None, 1, 2.0, 3.0)
    assert first.is_complete
    assert first.precedes(second)
    assert not second.precedes(first)
    assert not first.overlaps(second)


def test_overlapping_records():
    first = record("a", "write", 1, "ack", 0.0, 5.0)
    second = record("b", "read", None, 1, 2.0, 3.0)
    assert first.overlaps(second)
    assert second.overlaps(first)


def test_incomplete_record_never_precedes():
    pending = record("a", "write", 1, None, 0.0, None)
    later = record("b", "read", None, 0, 10.0, 11.0)
    assert not pending.precedes(later)
    assert not pending.is_complete


def test_history_rejects_negative_duration():
    with pytest.raises(HistoryError):
        History([record("a", "write", 1, "ack", 5.0, 1.0)])


def test_history_filters():
    history = History(
        [
            record("a", "write", 1, "ack", 0.0, 1.0),
            record("a", "read", None, 1, 2.0, 3.0),
            record("b", "write", 2, None, 2.5, None),
        ]
    )
    assert len(history) == 3
    assert len(history.complete_records()) == 2
    assert len(history.incomplete_records()) == 1
    assert len(history.of_kind("write")) == 2
    assert len(history.by_process("a")) == 2


def test_history_is_sequential():
    sequential = History(
        [
            record("a", "write", 1, "ack", 0.0, 1.0),
            record("b", "read", None, 1, 2.0, 3.0),
        ]
    )
    concurrent = History(
        [
            record("a", "write", 1, "ack", 0.0, 4.0),
            record("b", "read", None, 1, 2.0, 3.0),
        ]
    )
    assert sequential.is_sequential()
    assert not concurrent.is_sequential()


def test_history_latency_statistics():
    history = History(
        [
            record("a", "write", 1, "ack", 0.0, 2.0),
            record("b", "read", None, 1, 0.0, 4.0),
            record("c", "read", None, 1, 0.0, None),
        ]
    )
    assert history.max_latency() == pytest.approx(4.0)
    assert history.mean_latency() == pytest.approx(3.0)


def test_empty_history_statistics():
    history = History()
    assert history.max_latency() == 0.0
    assert history.mean_latency() == 0.0
    assert history.is_sequential()


def test_history_from_handles():
    class FakeHandle:
        def __init__(self):
            self.process_id = "a"
            self.kind = "write"
            self.argument = 7
            self.result = "ack"
            self.invoked_at = 1.0
            self.completed_at = 2.0
            self.done = True
            self.op_id = 42

    history = History.from_handles([FakeHandle()])
    assert len(history) == 1
    assert history.records[0].op_id == 42
    assert history.records[0].result == "ack"
