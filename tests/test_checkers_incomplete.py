"""Incomplete-operation edge cases for the linearizability checkers.

Linearizability treats operations that never returned specially: a crashed
writer's write *may or may not* have taken effect, and a pending read imposes
no constraint at all.  These tests pin that behaviour in the Wing–Gong search,
in the witness-first path, in the snapshot checker, and in the streaming
reference checker (``oracles.linearizability``) the search is compared with.
"""

import pytest

from repro.checkers import (
    check_register_linearizability,
    check_register_witness_first,
    check_snapshot_linearizability,
)
from repro.errors import HistoryError
from repro.history import History, OperationRecord

from oracles.linearizability import StreamingRegisterChecker, check_streaming


def op(pid, kind, arg, result, start, end, op_id=0):
    return OperationRecord(pid, kind, arg, result, start, end, op_id=op_id)


def verdicts(history, initial_value=0):
    """The three register paths' verdicts, asserted equal, returned once."""
    batch = check_register_linearizability(history, initial_value=initial_value)
    streaming = check_streaming(history, initial_value=initial_value)
    witness = check_register_witness_first(history, initial_value=initial_value)
    assert batch.is_linearizable == streaming.is_linearizable == witness.is_linearizable
    return batch


# --------------------------------------------------------------------------- #
# Crashed writers: the write may or may not take effect
# --------------------------------------------------------------------------- #
def test_crashed_write_observed_by_later_read():
    h = History([
        op("a", "write", 5, None, 0.0, None, op_id=1),
        op("b", "read", None, 5, 10.0, 11.0, op_id=2),
    ])
    assert verdicts(h).is_linearizable


def test_crashed_write_never_observed():
    h = History([
        op("a", "write", 5, None, 0.0, None, op_id=1),
        op("b", "read", None, 0, 10.0, 11.0, op_id=2),
    ])
    assert verdicts(h).is_linearizable


def test_crashed_write_cannot_be_both_taken_and_dropped():
    # r1 sees the crashed write's value, a later r2 sees the overwrite, and a
    # still later r3 resurrects the crashed value — impossible in any order.
    h = History([
        op("a", "write", 5, None, 0.0, None, op_id=1),
        op("b", "write", 7, "ack", 1.0, 2.0, op_id=2),
        op("c", "read", None, 5, 3.0, 4.0, op_id=3),
        op("c", "read", None, 7, 5.0, 6.0, op_id=4),
        op("c", "read", None, 5, 7.0, 8.0, op_id=5),
    ])
    assert not verdicts(h).is_linearizable


def test_history_linearizable_only_if_incomplete_write_is_dropped():
    """Every placement of the crashed write among the complete operations
    fails (each read pins the value before and after it), so the checker
    accepts only by *dropping* the write — the emitted witness must exclude
    it.  Completing the very same write makes the history non-linearizable,
    which is what distinguishes "dropped" from "linearized somewhere"."""
    pending = op("a", "write", 2, None, 2.0, None, op_id=1)
    complete = [
        op("b", "write", 1, "ack", 0.0, 1.0, op_id=2),
        op("c", "read", None, 1, 3.0, 4.0, op_id=3),
        op("c", "read", None, 1, 5.0, 6.0, op_id=4),
    ]
    h = History([pending] + complete)
    batch = check_register_linearizability(h, initial_value=0)
    assert batch.is_linearizable
    assert pending not in batch.witness  # accepted by dropping, not placing
    assert verdicts(h).is_linearizable

    # The same write, had it completed at t=2.5, must be ordered before both
    # reads of 1 — a contradiction.
    completed_variant = History(
        [op("a", "write", 2, "ack", 2.0, 2.5, op_id=1)] + complete
    )
    assert not verdicts(completed_variant).is_linearizable


def test_two_crashed_writes_subset_semantics():
    # Either, both, or neither crashed write may take effect; reads observing
    # them in opposite orders across *sequential* reads is a violation.
    w1 = op("a", "write", 1, None, 0.0, None, op_id=1)
    w2 = op("b", "write", 2, None, 0.0, None, op_id=2)
    ok = History([w1, w2, op("c", "read", None, 2, 5.0, 6.0, op_id=3)])
    assert verdicts(ok).is_linearizable
    bad = History([
        w1,
        w2,
        op("c", "read", None, 1, 5.0, 6.0, op_id=3),
        op("c", "read", None, 2, 7.0, 8.0, op_id=4),
        op("c", "read", None, 1, 9.0, 10.0, op_id=5),
    ])
    assert not verdicts(bad).is_linearizable


# --------------------------------------------------------------------------- #
# Pending reads impose no constraint
# --------------------------------------------------------------------------- #
def test_pending_read_is_ignored_by_both_paths():
    h = History([
        op("a", "write", 1, "ack", 0.0, 1.0, op_id=1),
        op("b", "read", None, None, 0.5, None, op_id=2),  # never returned
        op("c", "read", None, 1, 2.0, 3.0, op_id=3),
    ])
    outcome = verdicts(h)
    assert outcome.is_linearizable
    # The batch witness only contains the operations that were linearized.
    assert all(record.is_complete for record in outcome.witness)


def test_pending_read_does_not_rescue_a_violation():
    h = History([
        op("a", "write", 1, "ack", 0.0, 1.0, op_id=1),
        op("b", "read", None, None, 0.5, None, op_id=2),
        op("c", "read", None, 0, 2.0, 3.0, op_id=3),  # stale after the write
    ])
    assert not verdicts(h).is_linearizable


# --------------------------------------------------------------------------- #
# Streaming specifics
# --------------------------------------------------------------------------- #
def test_streaming_early_exit_latches_violation():
    checker = StreamingRegisterChecker(
        initial_value=0, distinct_writes=True, initial_value_never_written=True
    )
    checker.append(op("a", "write", 1, "ack", 0.0, 1.0, op_id=1))
    checker.append(op("b", "read", None, 0, 2.0, 3.0, op_id=2))  # stale read
    assert checker.violated
    states_at_latch = checker.explored_states
    # Later operations are absorbed without any further state exploration.
    checker.append(op("c", "write", 2, "ack", 4.0, 5.0, op_id=3))
    checker.append(op("c", "read", None, 2, 6.0, 7.0, op_id=4))
    assert checker.explored_states == states_at_latch
    outcome = checker.check()
    assert not outcome.is_linearizable
    assert "latched" in outcome.reason


def test_streaming_no_false_latch_when_initial_value_is_rewritten():
    """Regression: a read of the *initial* value can be sourced by a future
    overlapping write of that same value, so the early exit must treat it as
    dangling until such a write is seen — an earlier version latched a false
    violation here and disagreed with the batch checker."""
    h = History([
        op("a", "write", 1, "ack", 0.0, 1.0, op_id=1),
        op("b", "read", None, 0, 2.0, 5.0, op_id=2),   # rescued by w(0) below
        op("c", "write", 0, "ack", 3.0, 4.0, op_id=3),
    ])
    assert check_register_linearizability(h, initial_value=0).is_linearizable
    assert check_streaming(h, initial_value=0).is_linearizable

    checker = StreamingRegisterChecker(initial_value=0, distinct_writes=True)
    for record in sorted(h.records, key=lambda r: r.invoked_at):
        checker.append(record)
    assert not checker.violated
    assert checker.check().is_linearizable


def test_streaming_initial_never_written_assertion_is_enforced():
    checker = StreamingRegisterChecker(
        initial_value=0, distinct_writes=True, initial_value_never_written=True
    )
    checker.append(op("a", "write", 1, "ack", 0.0, 1.0, op_id=1))
    with pytest.raises(HistoryError, match="initial_value_never_written"):
        checker.append(op("b", "write", 0, "ack", 2.0, 3.0, op_id=2))


def test_streaming_does_not_latch_on_dangling_read():
    """A read of a not-yet-seen value may be rescued by an overlapping write
    that is appended later (invocation order != completion order), so the
    early exit must hold its fire until the value has a known source."""
    checker = StreamingRegisterChecker(initial_value=0, distinct_writes=True)
    checker.append(op("a", "read", None, 5, 0.0, 10.0, op_id=1))
    assert not checker.violated  # dangling: no write of 5 seen yet
    checker.append(op("b", "write", 5, "ack", 1.0, 2.0, op_id=2))
    assert checker.check().is_linearizable


def test_streaming_requires_invocation_order():
    checker = StreamingRegisterChecker()
    checker.append(op("a", "write", 1, "ack", 5.0, 6.0, op_id=1))
    with pytest.raises(HistoryError):
        checker.append(op("b", "read", None, 1, 1.0, 2.0, op_id=2))


def test_streaming_rejects_duplicate_values_when_distinct_writes_declared():
    checker = StreamingRegisterChecker(distinct_writes=True)
    checker.append(op("a", "write", 1, "ack", 0.0, 1.0, op_id=1))
    with pytest.raises(HistoryError):
        checker.append(op("b", "write", 1, "ack", 2.0, 3.0, op_id=2))


def test_streaming_incremental_prefix_reuse():
    """Extending a prefix only adds configurations, never recomputes them."""
    checker = StreamingRegisterChecker(initial_value=0)
    checker.append(op("a", "write", 1, "ack", 0.0, 1.0, op_id=1))
    after_first = checker.explored_states
    checker.append(op("b", "read", None, 1, 2.0, 3.0, op_id=2))
    assert checker.explored_states > after_first
    assert checker.check().is_linearizable


# --------------------------------------------------------------------------- #
# Snapshot checker: incomplete writes and pending scans
# --------------------------------------------------------------------------- #
def test_snapshot_incomplete_write_may_or_may_not_take_effect():
    segments = ["a", "b"]
    seen = History([
        op("a", "snapshot_write", 1, None, 0.0, None, op_id=1),
        op("b", "snapshot_scan", None, {"a": 1, "b": None}, 5.0, 6.0, op_id=2),
    ])
    unseen = History([
        op("a", "snapshot_write", 1, None, 0.0, None, op_id=1),
        op("b", "snapshot_scan", None, {"a": None, "b": None}, 5.0, 6.0, op_id=2),
    ])
    assert check_snapshot_linearizability(seen, segment_ids=segments).is_linearizable
    assert check_snapshot_linearizability(unseen, segment_ids=segments).is_linearizable


def test_snapshot_pending_scan_is_ignored():
    segments = ["a", "b"]
    h = History([
        op("a", "snapshot_write", 1, "ack", 0.0, 1.0, op_id=1),
        op("b", "snapshot_scan", None, None, 0.5, None, op_id=2),  # pending
        op("b", "snapshot_scan", None, {"a": 1, "b": None}, 2.0, 3.0, op_id=3),
    ])
    assert check_snapshot_linearizability(h, segment_ids=segments).is_linearizable


def test_snapshot_crashed_write_cannot_flip_flop_across_scans():
    segments = ["a", "b"]
    h = History([
        op("a", "snapshot_write", 1, None, 0.0, None, op_id=1),
        op("b", "snapshot_scan", None, {"a": 1, "b": None}, 5.0, 6.0, op_id=2),
        op("b", "snapshot_scan", None, {"a": None, "b": None}, 7.0, 8.0, op_id=3),
    ])
    assert not check_snapshot_linearizability(h, segment_ids=segments).is_linearizable
