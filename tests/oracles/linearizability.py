"""Reference linearizability checkers: the voices the one search is compared with.

``src/repro/checkers`` answers "is this history linearizable?" with one
memoized Wing–Gong search.  What it is checked against lives here and shares
no code with it — this module imports :mod:`repro.history`,
:mod:`repro.errors` and the :class:`LinearizabilityResult` record, never the
kernel (``tests/test_surface.py`` enforces this):

* :func:`brute_force_linearizable` / :func:`brute_force_snapshot_linearizable`
  — enumerate every permutation of the operations (and every subset of the
  incomplete updates) and replay the sequential specification;
* :func:`scans_totally_ordered` — a quick necessary condition on snapshot
  histories: completed scans are ordered by containment;
* :class:`StreamingRegisterChecker` / :func:`check_streaming` — the
  incremental forward-closure formulation of the register search: the same
  verdicts reached by a different traversal (about 18x slower than the
  production search on whole recorded histories, which is why it is a
  reference and not a product).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.checkers.linearizability import LinearizabilityResult
from repro.errors import HistoryError
from repro.history import History, OperationRecord

READ_KINDS = ("read",)
WRITE_KINDS = ("write",)


# ---------------------------------------------------------------------- #
# Permutation brute force
# ---------------------------------------------------------------------- #
def _respects_real_time(order: Sequence[OperationRecord]) -> bool:
    return not any(
        order[j].precedes(order[i]) for i in range(len(order)) for j in range(i + 1, len(order))
    )


def brute_force_linearizable(history, initial_value=0):
    """Enumerate permutations (and incomplete-write subsets) exhaustively."""
    complete = [r for r in history if r.is_complete]
    optional = [r for r in history if not r.is_complete and r.kind == "write"]
    for keep_count in range(len(optional) + 1):
        for kept in itertools.combinations(optional, keep_count):
            ops = complete + list(kept)
            for order in itertools.permutations(ops):
                # Real-time order must be respected within the permutation.
                if not _respects_real_time(order):
                    continue
                value = initial_value
                for op in order:
                    if op.kind == "write":
                        value = op.argument
                    elif op.result != value:
                        break
                else:
                    return True
    # Note the empty permutation (no complete ops, nothing kept) is generated
    # by the loops above and accepts, so the vacuous case needs no special
    # handling here.
    return False


def brute_force_snapshot_linearizable(history, segment_ids, initial_value=None):
    """The snapshot twin: segments are a dict, a scan must return all of it."""
    complete = [r for r in history if r.is_complete]
    optional = [r for r in history if not r.is_complete and r.kind == "snapshot_write"]
    for keep_count in range(len(optional) + 1):
        for kept in itertools.combinations(optional, keep_count):
            for order in itertools.permutations(complete + list(kept)):
                if not _respects_real_time(order):
                    continue
                contents = {segment: initial_value for segment in segment_ids}
                for op in order:
                    if op.kind == "snapshot_write":
                        contents[op.process_id] = op.argument
                    elif op.result != contents:
                        break
                else:
                    return True
    return False


def scans_totally_ordered(history: History, lattice_leq=None) -> bool:
    """Quick necessary condition: completed scans must be ordered by containment.

    For snapshots over values where "newer" can be detected per segment (e.g.
    distinct values per writer), any pair of completed scans must be
    per-segment comparable.  ``lattice_leq(a, b)`` compares two scan results;
    the default treats ``None`` (unwritten) as the least element and requires
    per-segment equality otherwise, which is only meaningful when each writer
    writes at most once — the common shape in the experiments.
    """

    def default_leq(first: Dict[Hashable, Any], second: Dict[Hashable, Any]) -> bool:
        return all(
            first[segment] == second[segment] or first[segment] is None for segment in first
        )

    leq = lattice_leq if lattice_leq is not None else default_leq
    scans = [r.result for r in history.complete_records() if r.kind == "snapshot_scan"]
    for i, first in enumerate(scans):
        for second in scans[i + 1 :]:
            if not (leq(first, second) or leq(second, first)):
                return False
    return True


# ---------------------------------------------------------------------- #
# Streaming / incremental checking
# ---------------------------------------------------------------------- #
class StreamingRegisterChecker:
    """Incremental register linearizability over a stream of operations.

    Operations are :meth:`append`-ed in non-decreasing invocation order (the
    order a monitor — or a trace replay — naturally observes them).  The
    checker maintains the set of *reachable configurations*: pairs
    ``(linearized, value)`` such that some linearization prefix respecting
    real-time precedence linearizes exactly ``linearized`` and leaves the
    abstract register holding ``value``.  Appending an operation extends this
    set by a worklist closure seeded at the configurations the new operation
    can join — everything computed for the previous prefix is reused, never
    re-explored.  (Feeding in invocation order is what makes the reuse sound:
    a later-invoked operation can never become a real-time predecessor of an
    earlier one, so previously reachable configurations stay reachable.)

    The stream (so far) is linearizable iff some reachable configuration has
    linearized every *complete* operation — incomplete writes are optional and
    incomplete reads are ignored, exactly as in the batch checker.

    Early exit: with ``distinct_writes=True`` the caller asserts that no two
    writes of the whole stream (including ones not appended yet) carry the
    same value.  Under that assumption, once the current prefix is
    non-linearizable and every complete read's value has a known source — a
    seen write of it, or the initial state itself when
    ``initial_value_never_written`` additionally asserts that no (future)
    write re-writes the initial value — no future operation can repair it:
    restricting a hypothetical linearization of the full history to the
    prefix's operations would yield a valid linearization of the prefix,
    because each read's unique source already lies inside the prefix.  The
    checker then latches the violation and ignores the rest of the stream.
    """

    def __init__(
        self,
        initial_value: Any = 0,
        max_states: int = 2_000_000,
        distinct_writes: bool = False,
        initial_value_never_written: bool = False,
    ) -> None:
        self.initial_value = initial_value
        self.max_states = max_states
        self.distinct_writes = distinct_writes
        self.initial_value_never_written = initial_value_never_written
        self._operations: List[OperationRecord] = []
        self._complete: Set[int] = set()
        self._preceders: List[FrozenSet[int]] = []
        self._configs: Set[Tuple[FrozenSet[int], Hashable]] = {(frozenset(), initial_value)}
        self._written_values: Set[Hashable] = set()
        self._dangling_reads: Dict[int, Hashable] = {}
        self._last_invoked = float("-inf")
        self._violated_at: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def explored_states(self) -> int:
        """Reachable configurations discovered so far (the memoized states)."""
        return len(self._configs)

    @property
    def operations(self) -> int:
        """Operations appended so far (incomplete reads are not retained)."""
        return len(self._operations)

    @property
    def violated(self) -> bool:
        """Whether a violation has been latched by the early-exit path."""
        return self._violated_at is not None

    # ------------------------------------------------------------------ #
    def _applicable(self, index: int, config: Tuple[FrozenSet[int], Hashable]) -> Optional[
        Tuple[FrozenSet[int], Hashable]
    ]:
        """The configuration reached by linearizing ``index`` next, if legal."""
        linearized, value = config
        if index in linearized or not self._preceders[index] <= linearized:
            return None
        op = self._operations[index]
        if op.kind in WRITE_KINDS:
            return (linearized | {index}, op.argument)
        if op.result == value:
            return (linearized | {index}, value)
        return None

    def append(self, record: OperationRecord) -> None:
        """Feed the next operation (by invocation order) into the checker."""
        if record.kind not in READ_KINDS + WRITE_KINDS:
            raise HistoryError(
                "register histories may only contain read/write operations, got {!r}".format(
                    record.kind
                )
            )
        if record.invoked_at < self._last_invoked:
            raise HistoryError(
                "streaming checker requires operations in invocation order "
                "({} < {})".format(record.invoked_at, self._last_invoked)
            )
        self._last_invoked = record.invoked_at
        if not record.is_complete and record.kind in READ_KINDS:
            return  # incomplete reads impose no constraint
        if record.kind in WRITE_KINDS:
            if self.distinct_writes and record.argument in self._written_values:
                raise HistoryError(
                    "distinct_writes was asserted but value {!r} is written twice".format(
                        record.argument
                    )
                )
            if self.initial_value_never_written and record.argument == self.initial_value:
                raise HistoryError(
                    "initial_value_never_written was asserted but {!r} is written".format(
                        record.argument
                    )
                )
            self._written_values.add(record.argument)
        if self._violated_at is not None:
            # Already provably non-linearizable; later operations cannot help.
            self._operations.append(record)
            if record.is_complete:
                self._complete.add(len(self._operations) - 1)
            return

        index = len(self._operations)
        self._operations.append(record)
        if record.is_complete:
            self._complete.add(index)
        self._preceders.append(
            frozenset(
                j
                for j, other in enumerate(self._operations[:index])
                if other.is_complete and other.precedes(record)
            )
        )
        if record.kind in READ_KINDS:
            # A read is "dangling" while its value has no seen source write —
            # a later overlapping write may still supply one, so the early
            # exit must wait.  This includes reads of the *initial* value
            # (a future write of that same value is also a legal source)
            # unless the caller asserted the initial value is never written,
            # in which case the initial state is the read's only source.
            settled_by_initial = (
                record.result == self.initial_value and self.initial_value_never_written
            )
            if record.result not in self._written_values and not settled_by_initial:
                self._dangling_reads[index] = record.result
        elif self._dangling_reads:
            # A newly seen write may supply the source for an earlier read.
            self._dangling_reads = {
                i: value
                for i, value in self._dangling_reads.items()
                if value != record.argument
            }

        # Closure: seed at configurations the new operation extends, then keep
        # extending with *any* known operation (a new value may unblock reads
        # that were waiting for it).
        fresh: "deque[Tuple[FrozenSet[int], Hashable]]" = deque()
        for config in list(self._configs):
            extended = self._applicable(index, config)
            if extended is not None and extended not in self._configs:
                self._configs.add(extended)
                fresh.append(extended)
        while fresh:
            config = fresh.popleft()
            for i in range(len(self._operations)):
                extended = self._applicable(i, config)
                if extended is not None and extended not in self._configs:
                    self._configs.add(extended)
                    fresh.append(extended)
            if len(self._configs) > self.max_states:
                raise HistoryError(
                    "streaming linearizability closure exceeded {} states; "
                    "history too large".format(self.max_states)
                )

        if (
            self.distinct_writes
            and not self._dangling_reads
            and not self._prefix_linearizable()
        ):
            self._violated_at = len(self._operations)

    def _prefix_linearizable(self) -> bool:
        return any(self._complete <= linearized for linearized, _ in self._configs)

    def check(self) -> LinearizabilityResult:
        """The verdict for the stream consumed so far.

        A positive verdict carries no witness (the forward closure does not
        keep parent pointers); ``explored_states`` counts the reachable
        configurations, the streaming analogue of the batch checker's memo.
        """
        if self._violated_at is not None:
            return LinearizabilityResult(
                False,
                explored_states=self.explored_states,
                reason="violation latched after {} operations "
                "(no future operation can repair the prefix)".format(self._violated_at),
            )
        if self._prefix_linearizable():
            return LinearizabilityResult(True, explored_states=self.explored_states)
        return LinearizabilityResult(
            False,
            explored_states=self.explored_states,
            reason="no valid linearization order exists",
        )


def check_streaming(
    history: History, initial_value: Any = 0, max_states: int = 2_000_000
) -> LinearizabilityResult:
    """Run the streaming checker over a complete history (sorted by invocation)."""
    records = sorted(history.records, key=lambda r: r.invoked_at)
    write_values = [r.argument for r in records if r.kind in WRITE_KINDS]
    checker = StreamingRegisterChecker(
        initial_value=initial_value,
        max_states=max_states,
        # Early exit is only sound under the distinct-writes assumption, so
        # enable it exactly when the history satisfies it; knowing the whole
        # history up front also settles whether the initial value is ever
        # (re-)written, which lets reads of it skip the dangling wait.
        distinct_writes=len(set(write_values)) == len(write_values),
        initial_value_never_written=initial_value not in write_values,
    )
    for record in records:
        checker.append(record)
    return checker.check()
