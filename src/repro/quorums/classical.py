"""Classical read/write quorum systems (Definition 1 of the paper).

A classical quorum system ``(F, R, W)`` is defined over a fail-prone system
that disallows channel failures between correct processes and requires

* **Consistency** — every read quorum intersects every write quorum, and
* **Availability** — for every failure pattern some read quorum and some write
  quorum consist entirely of correct processes.

This module provides the data type, validation, and the threshold read/write
construction of the paper's Example 6 (the "flexible" trade-off of smaller
write quorums for larger read quorums).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

from ..errors import (
    InvalidQuorumSystemError,
    QuorumAvailabilityError,
    QuorumConsistencyError,
)
from ..failures import FailProneSystem, FailurePattern
from ..types import ProcessId, ProcessSet, sorted_processes

QuorumFamily = Tuple[ProcessSet, ...]


def _normalise_family(
    quorums: Iterable[Iterable[ProcessId]], processes: ProcessSet
) -> QuorumFamily:
    """Deduplicate and freeze a family of quorums over ``processes``.

    First-seen order is preserved.  Every quorum must be non-empty and name
    only members of ``processes``; the mask-level predicates encode quorums
    over the system's process index and rely on this having been checked.
    """
    seen: List[ProcessSet] = []
    for q in quorums:
        fq = frozenset(q)
        if not fq:
            raise InvalidQuorumSystemError("quorums must be non-empty")
        if fq not in seen:
            seen.append(fq)
    if not seen:
        raise InvalidQuorumSystemError("a quorum family must contain at least one quorum")
    for fq in seen:
        unknown = fq - processes
        if unknown:
            raise InvalidQuorumSystemError(
                "quorum {} references unknown processes {}".format(
                    sorted_processes(fq), sorted_processes(unknown)
                )
            )
    return tuple(seen)


class QuorumTriple:
    """A triple ``(F, R, W)``: what Definition 1 and Definition 2 share.

    Both notions of quorum system state **Consistency** identically —
    every read quorum intersects every write quorum — and differ only in
    **Availability**.  This base holds the families, Consistency and the
    validation driver; a subclass supplies :meth:`available_pair` and the
    wording of its :class:`~repro.errors.QuorumAvailabilityError`.

    Parameters
    ----------
    fail_prone:
        The fail-prone system ``F``.
    read_quorums / write_quorums:
        The families ``R`` and ``W``.
    validate:
        When true (default), Consistency and Availability are checked eagerly
        and an :class:`~repro.errors.InvalidQuorumSystemError` subclass is
        raised on violation.
    """

    #: Text of the availability error, formatted with the failing pattern.
    _UNAVAILABLE: str

    def __init__(
        self,
        fail_prone: FailProneSystem,
        read_quorums: Iterable[Iterable[ProcessId]],
        write_quorums: Iterable[Iterable[ProcessId]],
        validate: bool = True,
    ) -> None:
        self._fail_prone = fail_prone
        self._read_quorums = _normalise_family(read_quorums, fail_prone.processes)
        self._write_quorums = _normalise_family(write_quorums, fail_prone.processes)
        self._family_masks: Optional[Tuple[List[int], List[int]]] = None
        if validate:
            self.check()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def fail_prone(self) -> FailProneSystem:
        """The fail-prone system ``F``."""
        return self._fail_prone

    @property
    def read_quorums(self) -> QuorumFamily:
        """The read-quorum family ``R``."""
        return self._read_quorums

    @property
    def write_quorums(self) -> QuorumFamily:
        """The write-quorum family ``W``."""
        return self._write_quorums

    @property
    def processes(self) -> ProcessSet:
        """The process set ``P``."""
        return self._fail_prone.processes

    def __repr__(self) -> str:
        return "{}(n={}, |R|={}, |W|={})".format(
            type(self).__name__,
            len(self.processes),
            len(self._read_quorums),
            len(self._write_quorums),
        )

    def _masks(self) -> Tuple[List[int], List[int]]:
        """``(read masks, write masks)`` over the system's process index.

        Encoded on first use, so a system built with ``validate=False`` and
        never queried does not pay for it.
        """
        if self._family_masks is None:
            mask_of = self._fail_prone.process_index.mask_of
            self._family_masks = (
                [mask_of(r) for r in self._read_quorums],
                [mask_of(w) for w in self._write_quorums],
            )
        return self._family_masks

    # ------------------------------------------------------------------ #
    # Consistency (shared) and Availability (per definition)
    # ------------------------------------------------------------------ #
    def consistency_violations(self) -> List[Tuple[ProcessSet, ProcessSet]]:
        """Return every ``(R, W)`` pair with an empty intersection."""
        read_masks, write_masks = self._masks()
        return [
            (self._read_quorums[i], self._write_quorums[j])
            for i, read_mask in enumerate(read_masks)
            for j, write_mask in enumerate(write_masks)
            if not read_mask & write_mask
        ]

    def is_consistent(self) -> bool:
        """Return whether every read quorum intersects every write quorum."""
        return not self.consistency_violations()

    def available_pair(
        self, pattern: FailurePattern
    ) -> Optional[Tuple[ProcessSet, ProcessSet]]:
        """Return a ``(read, write)`` pair validating Availability under ``pattern``.

        ``None`` when no such pair exists.  This is the one method in which
        the two definitions differ.
        """
        raise NotImplementedError

    def is_available(self, pattern: FailurePattern) -> bool:
        """Return whether Availability holds for ``pattern``."""
        return self.available_pair(pattern) is not None

    def availability_violations(self) -> List[FailurePattern]:
        """Return the failure patterns for which Availability fails."""
        return [f for f in self._fail_prone if not self.is_available(f)]

    def check(self) -> None:
        """Validate Consistency and Availability, raising a descriptive error."""
        bad_pairs = self.consistency_violations()
        if bad_pairs:
            r, w = bad_pairs[0]
            raise QuorumConsistencyError(
                "read quorum {} does not intersect write quorum {}".format(
                    sorted_processes(r), sorted_processes(w)
                )
            )
        bad_patterns = self.availability_violations()
        if bad_patterns:
            raise QuorumAvailabilityError(self._UNAVAILABLE.format(bad_patterns[0]))

    def is_valid(self) -> bool:
        """Return whether the triple satisfies its definition."""
        try:
            self.check()
        except InvalidQuorumSystemError:
            return False
        return True


class QuorumSystem(QuorumTriple):
    """A classical read/write quorum system ``(F, R, W)`` (Definition 1).

    The fail-prone system must not allow channel failures between correct
    processes; otherwise Definition 1 does not apply and
    :class:`~repro.errors.InvalidQuorumSystemError` is raised.  Availability:
    for every failure pattern some read quorum and some write quorum consist
    entirely of correct processes.
    """

    _UNAVAILABLE = "no available read/write quorum pair under pattern {!r}"

    def __init__(
        self,
        fail_prone: FailProneSystem,
        read_quorums: Iterable[Iterable[ProcessId]],
        write_quorums: Iterable[Iterable[ProcessId]],
        validate: bool = True,
    ) -> None:
        if fail_prone.allows_channel_failures():
            raise InvalidQuorumSystemError(
                "a classical quorum system requires a fail-prone system with no "
                "channel failures between correct processes (Definition 1); "
                "use GeneralizedQuorumSystem instead"
            )
        super().__init__(fail_prone, read_quorums, write_quorums, validate=validate)

    def available_pair(
        self, pattern: FailurePattern
    ) -> Optional[Tuple[ProcessSet, ProcessSet]]:
        """Return a ``(read, write)`` pair of all-correct quorums under ``pattern``."""
        correct = pattern.correct_processes(self.processes)
        read = next((r for r in self._read_quorums if r <= correct), None)
        write = next((w for w in self._write_quorums if w <= correct), None)
        if read is None or write is None:
            return None
        return read, write


# ---------------------------------------------------------------------- #
# The threshold construction
# ---------------------------------------------------------------------- #
def threshold_quorum_system(
    processes: Iterable[ProcessId],
    max_crashes: int,
    fail_prone: Optional[FailProneSystem] = None,
) -> QuorumSystem:
    """The threshold construction of Example 6.

    With at most ``k = max_crashes`` crashes, read quorums have size
    ``>= n − k`` and write quorums size ``>= k + 1``.  Only the minimal quorums
    (exactly those sizes) are enumerated; supersets add nothing.
    """
    procs = sorted_processes(set(processes))
    n = len(procs)
    k = max_crashes
    if not 0 <= k <= (n - 1) // 2:
        raise InvalidQuorumSystemError(
            "threshold construction requires 0 <= k <= floor((n-1)/2), got k={} n={}".format(k, n)
        )
    read_quorums = [frozenset(c) for c in itertools.combinations(procs, n - k)]
    write_quorums = [frozenset(c) for c in itertools.combinations(procs, k + 1)]
    if fail_prone is None:
        fail_prone = FailProneSystem.crash_threshold(procs, k)
    return QuorumSystem(fail_prone, read_quorums, write_quorums)
