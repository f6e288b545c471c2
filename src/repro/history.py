"""Operation histories: the interface between protocol executions and checkers.

A :class:`History` is a list of :class:`OperationRecord` values, each capturing
one invocation of an object operation (register read/write, snapshot
read/write, lattice-agreement propose, consensus propose) with its invocation
and response times in simulated time.  Histories are produced by the simulation
runtime (from :class:`~repro.sim.process.OperationHandle` objects) and consumed
by the correctness checkers in :mod:`repro.checkers`, but can equally be built
by hand in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from .errors import HistoryError
from .types import ProcessId


@dataclass(frozen=True)
class OperationRecord:
    """One operation instance in a history.

    ``invoked_at``/``completed_at`` are simulated times; ``completed_at`` is
    ``None`` for operations that never returned (allowed by linearizability —
    incomplete operations may or may not take effect).
    """

    process_id: ProcessId
    kind: str
    argument: Any
    result: Any
    invoked_at: float
    completed_at: Optional[float]
    op_id: int = 0

    @property
    def is_complete(self) -> bool:
        """Whether the operation returned."""
        return self.completed_at is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time order: ``self`` completed before ``other`` was invoked."""
        return self.completed_at is not None and self.completed_at < other.invoked_at

    def overlaps(self, other: "OperationRecord") -> bool:
        """Whether the two operations are concurrent (neither precedes the other)."""
        return not self.precedes(other) and not other.precedes(self)


class History:
    """An operation history over a single shared object."""

    def __init__(self, records: Iterable[OperationRecord] = ()) -> None:
        self._records: List[OperationRecord] = list(records)
        self._validate()

    def _validate(self) -> None:
        for record in self._records:
            if record.completed_at is not None and record.completed_at < record.invoked_at:
                raise HistoryError(
                    "operation {} completes before it is invoked".format(record)
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_handles(cls, handles: Iterable[Any]) -> "History":
        """Build a history from simulation :class:`OperationHandle` objects."""
        records = []
        for handle in handles:
            records.append(
                OperationRecord(
                    process_id=handle.process_id,
                    kind=handle.kind,
                    argument=handle.argument,
                    result=handle.result if handle.done else None,
                    invoked_at=handle.invoked_at,
                    completed_at=handle.completed_at,
                    op_id=handle.op_id,
                )
            )
        return cls(records)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> Tuple[OperationRecord, ...]:
        """All records, in insertion order."""
        return tuple(self._records)

    def complete_records(self) -> List[OperationRecord]:
        """Records of operations that returned."""
        return [r for r in self._records if r.is_complete]

    def incomplete_records(self) -> List[OperationRecord]:
        """Records of operations that never returned."""
        return [r for r in self._records if not r.is_complete]

    def of_kind(self, kind: str) -> List[OperationRecord]:
        """Records of a given operation kind (e.g. ``"read"`` or ``"write"``)."""
        return [r for r in self._records if r.kind == kind]

    def by_process(self, process_id: ProcessId) -> List[OperationRecord]:
        """Records of operations invoked at ``process_id``."""
        return [r for r in self._records if r.process_id == process_id]

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return "History({} operations, {} complete)".format(
            len(self._records), len(self.complete_records())
        )

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def is_sequential(self) -> bool:
        """Whether no two operations overlap in real time."""
        complete = sorted(self.complete_records(), key=lambda r: r.invoked_at)
        for first, second in zip(complete, complete[1:]):
            if not first.precedes(second):
                return False
        return True

    def max_latency(self) -> float:
        """The largest operation latency in the history (0.0 when empty)."""
        latencies = [
            r.completed_at - r.invoked_at for r in self._records if r.completed_at is not None
        ]
        return max(latencies) if latencies else 0.0

    def mean_latency(self) -> float:
        """The mean operation latency over completed operations (0.0 when empty)."""
        latencies = [
            r.completed_at - r.invoked_at for r in self._records if r.completed_at is not None
        ]
        return sum(latencies) / len(latencies) if latencies else 0.0
