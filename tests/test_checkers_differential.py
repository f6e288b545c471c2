"""Property-based differential tests for the linearizability checkers.

The one Wing–Gong search has two clients, and each gets an oracle.

Registers — four independent implementations must always agree on small
random histories:

* the Wing–Gong memoized search (``check_register_linearizability``);
* the streaming forward-closure checker (``oracles.linearizability``);
* the exhaustive dependency-graph criterion (Appendix B, Theorem 7): *some*
  permutation of the writes makes the dependency graph acyclic;
* a brute-force oracle that enumerates every permutation of the operations
  (and every subset of the incomplete writes) and replays register semantics.

Snapshots — ``check_snapshot_linearizability`` against the same kind of
permutation brute-forcer replaying segment semantics.

Histories are generated with up to 6 operations and unique written values, so
the oracles' factorial enumeration stays tiny.  ``derandomize=True`` pins the
Hypothesis example stream: a failure reproduces identically on every run,
with no database or external seed involved.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.checkers import (
    DependencyGraphChecker,
    check_register_linearizability,
    check_register_witness_first,
    check_snapshot_linearizability,
)
from repro.errors import HistoryError
from repro.history import History, OperationRecord

from oracles.linearizability import (
    brute_force_linearizable,
    brute_force_snapshot_linearizable,
    check_streaming,
)

INITIAL = 0
GARBAGE = 999  # never written, never the initial value

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


@st.composite
def random_register_history(draw, allow_incomplete=False, allow_initial_write=False):
    """A small register history with unique written values.

    Operation intervals are drawn freely on a coarse grid, so concurrency —
    including fully nested and chained overlaps — arises naturally.  Read
    results are drawn from the written values, the initial value, and (rarely)
    a garbage value, so the strategy produces a healthy mix of linearizable
    and non-linearizable histories.  With ``allow_initial_write`` the first
    write sometimes *re-writes the initial value*, making reads of it
    ambiguous between the initial state and that write — a class with its own
    soundness pitfalls (values stay pairwise distinct either way).
    """
    num_ops = draw(st.integers(min_value=1, max_value=6))
    num_writes = draw(st.integers(min_value=0, max_value=min(3, num_ops)))
    writes_initial = (
        allow_initial_write and num_writes > 0 and draw(st.booleans())
    )
    records = []
    for index in range(num_ops):
        start = draw(st.integers(min_value=0, max_value=12)) / 2.0
        length = draw(st.integers(min_value=1, max_value=8)) / 2.0
        pid = "p{}".format(draw(st.integers(min_value=0, max_value=2)))
        incomplete = allow_incomplete and draw(st.integers(min_value=0, max_value=3)) == 0
        if index < num_writes:
            value = INITIAL if (index == 0 and writes_initial) else index + 1
            records.append(
                OperationRecord(
                    pid, "write", value, None if incomplete else "ack",
                    start, None if incomplete else start + length, op_id=index,
                )
            )
        else:
            choices = [INITIAL] + list(range(1, num_writes + 1)) + [GARBAGE]
            result = draw(st.sampled_from(choices))
            if incomplete:
                records.append(
                    OperationRecord(pid, "read", None, None, start, None, op_id=index)
                )
            else:
                records.append(
                    OperationRecord(pid, "read", None, result, start, start + length, op_id=index)
                )
    return History(records)


# --------------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------------- #
brute_force = brute_force_linearizable


def dep_graph_exhaustive(history, initial_value=INITIAL):
    """Theorem 7, decided exhaustively: try every total order on the writes.

    A read of a value that no complete write wrote (and that is not the
    initial value) has no wr-source; for histories without incomplete writes
    that is a definite violation.
    """
    try:
        checker = DependencyGraphChecker(history, initial_value=initial_value)
        for order in itertools.permutations(checker.writes):
            if checker.check(list(order)):
                return True
        return False
    except HistoryError:
        return False


# --------------------------------------------------------------------------- #
# Differential properties
# --------------------------------------------------------------------------- #
@given(random_register_history(allow_incomplete=False))
@SETTINGS
def test_all_checkers_agree_on_complete_histories(history):
    oracle = brute_force(history)
    wing_gong = check_register_linearizability(history, initial_value=INITIAL)
    streaming = check_streaming(history, initial_value=INITIAL)
    witness_first = check_register_witness_first(history, initial_value=INITIAL)
    graph = dep_graph_exhaustive(history)
    assert wing_gong.is_linearizable == oracle
    assert streaming.is_linearizable == oracle
    assert witness_first.is_linearizable == oracle
    assert graph == oracle


@given(random_register_history(allow_incomplete=True))
@SETTINGS
def test_checkers_agree_with_oracle_under_incomplete_operations(history):
    """With crashed writers / pending reads, the exhaustive graph criterion no
    longer applies directly (it only sees complete operations), but the search
    checkers and the witness-first path must still match the oracle."""
    oracle = brute_force(history)
    wing_gong = check_register_linearizability(history, initial_value=INITIAL)
    streaming = check_streaming(history, initial_value=INITIAL)
    witness_first = check_register_witness_first(history, initial_value=INITIAL)
    assert wing_gong.is_linearizable == oracle
    assert streaming.is_linearizable == oracle
    assert witness_first.is_linearizable == oracle


@given(random_register_history(allow_incomplete=False, allow_initial_write=True))
@SETTINGS
def test_checkers_agree_when_the_initial_value_is_rewritten(history):
    """Histories that write the initial value back: reads of it are ambiguous
    between the initial state and the write, which is exactly the class where
    eager shortcuts go wrong (a streaming early-exit bug hid here).  The
    exhaustive dependency-graph criterion sits this one out — its wr-matching
    pins reads of the initial value to the write of it whenever one exists,
    so it is knowingly incomplete for this class (the witness-first path
    stays exact because a failed witness falls back to the full search)."""
    oracle = brute_force(history)
    wing_gong = check_register_linearizability(history, initial_value=INITIAL)
    streaming = check_streaming(history, initial_value=INITIAL)
    witness_first = check_register_witness_first(history, initial_value=INITIAL)
    assert wing_gong.is_linearizable == oracle
    assert streaming.is_linearizable == oracle
    assert witness_first.is_linearizable == oracle


@given(random_register_history(allow_incomplete=False))
@SETTINGS
def test_accepted_witnesses_replay_sequentially(history):
    """Any witness the batch checker emits must itself replay correctly."""
    outcome = check_register_linearizability(history, initial_value=INITIAL)
    if not outcome.is_linearizable or outcome.witness is None:
        return
    value = INITIAL
    for op in outcome.witness:
        if op.kind == "write":
            value = op.argument
        else:
            assert op.result == value


# --------------------------------------------------------------------------- #
# Snapshots: the search's second client against its own brute-forcer
# --------------------------------------------------------------------------- #
SEGMENTS = ("p0", "p1", "p2")


@st.composite
def random_snapshot_history(draw, allow_incomplete=False):
    """A small SWMR snapshot history over up to three segments.

    Every write carries a value unique to it; a scan's result is drawn per
    segment from the initial value, the values written to that segment and
    (rarely) a garbage value, or is malformed outright (a missing segment) —
    so linearizable and non-linearizable histories both occur.  Operation
    intervals come from the same coarse grid as the register strategy.
    """
    segments = SEGMENTS[: draw(st.integers(min_value=1, max_value=3))]
    num_ops = draw(st.integers(min_value=1, max_value=6))
    num_writes = draw(st.integers(min_value=0, max_value=min(4, num_ops)))
    written = {segment: [] for segment in segments}
    records = []
    for index in range(num_ops):
        start = draw(st.integers(min_value=0, max_value=12)) / 2.0
        length = draw(st.integers(min_value=1, max_value=8)) / 2.0
        pid = draw(st.sampled_from(segments))
        incomplete = allow_incomplete and draw(st.integers(min_value=0, max_value=3)) == 0
        end = None if incomplete else start + length
        if index < num_writes:
            written[pid].append(index + 1)
            records.append(
                OperationRecord(
                    pid, "snapshot_write", index + 1, None if incomplete else "ack",
                    start, end, op_id=index,
                )
            )
            continue
        result = None
        if not incomplete:
            result = {
                segment: draw(st.sampled_from([None] + written[segment] + [GARBAGE]))
                for segment in segments
            }
            if draw(st.integers(min_value=0, max_value=9)) == 0:
                del result[segments[0]]
        records.append(OperationRecord(pid, "snapshot_scan", None, result, start, end, op_id=index))
    return segments, History(records)


def _assert_snapshot_checker_matches_oracle(segments, history):
    oracle = brute_force_snapshot_linearizable(history, segments)
    outcome = check_snapshot_linearizability(history, segment_ids=segments)
    assert outcome.is_linearizable == oracle
    if not outcome.is_linearizable:
        assert outcome.reason == "no valid snapshot linearization exists"
        return
    # The witness replays sequentially, respects real time, linearizes every
    # complete operation and nothing but complete operations or kept writes.
    contents = {segment: None for segment in segments}
    for position, op in enumerate(outcome.witness):
        assert not any(later.precedes(op) for later in outcome.witness[position + 1 :])
        if op.kind == "snapshot_write":
            contents[op.process_id] = op.argument
        else:
            assert op.is_complete and op.result == contents
    complete = [record for record in history if record.is_complete]
    assert all(record in outcome.witness for record in complete)


@given(random_snapshot_history(allow_incomplete=False))
@SETTINGS
def test_snapshot_checker_agrees_with_oracle_on_complete_histories(case):
    _assert_snapshot_checker_matches_oracle(*case)


@given(random_snapshot_history(allow_incomplete=True))
@SETTINGS
def test_snapshot_checker_agrees_with_oracle_under_incomplete_operations(case):
    """Crashed writers' segments may or may not change; pending scans impose
    no constraint and never appear in a witness."""
    _assert_snapshot_checker_matches_oracle(*case)
