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
from operator import not_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import (
    InvalidQuorumSystemError,
    QuorumAvailabilityError,
    QuorumConsistencyError,
)
from ..failures import FailProneSystem, FailurePattern
from ..graph import popcount
from ..types import ProcessId, ProcessSet, sorted_processes

QuorumFamily = Tuple[ProcessSet, ...]


def _encode_family(
    quorums: Iterable[Iterable[ProcessId]], fail_prone: FailProneSystem
) -> Dict[int, ProcessSet]:
    """Deduplicate a family of quorums over ``fail_prone``: ``{mask: quorum}``.

    First-seen order is preserved; duplicates are found on the masks.  Every
    quorum must be non-empty and name only processes of the system (the
    first offender in first-seen order is reported), so no family mask is 0.
    """
    processes = fail_prone.processes
    mask_of = fail_prone.process_index.mask_of
    family: Dict[int, ProcessSet] = {}
    foreign: Optional[ProcessSet] = None  # the first quorum naming an outsider
    for q in quorums:
        fq = frozenset(q)
        if not fq:
            raise InvalidQuorumSystemError("quorums must be non-empty")
        if fq <= processes:
            family.setdefault(mask_of(fq), fq)
        elif foreign is None:
            foreign = fq
    if foreign is not None:
        raise InvalidQuorumSystemError(
            "quorum {} references unknown processes {}".format(
                sorted_processes(foreign), sorted_processes(foreign - processes)
            )
        )
    if not family:
        raise InvalidQuorumSystemError("a quorum family must contain at least one quorum")
    return family


def _first_inside(masks: Sequence[int], outer: int) -> Optional[int]:
    """Position of the first of ``masks`` with no bit outside ``outer``, or ``None``.

    One scan of the whole family per call, run by ``map``/``compress``; a
    family mask is never 0, so a hit is a quorum inside ``outer``.
    """
    hits = map(not_, map((~outer).__and__, masks))
    return next(itertools.compress(itertools.count(), hits), None)


class QuorumTriple:
    """A triple ``(F, R, W)``: what Definition 1 and Definition 2 share.

    Both notions of quorum system state **Consistency** identically —
    every read quorum intersects every write quorum — and differ only in
    **Availability**.  This base holds the families, Consistency and the
    validation driver; a subclass supplies :meth:`_available_positions` and
    the wording of its :class:`~repro.errors.QuorumAvailabilityError`.

    The families are stored as masks over the system's process index and
    validated as masks; ``read_quorums`` / ``write_quorums`` decode them into
    process sets once, when first read.

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
        reads = _encode_family(read_quorums, fail_prone)
        writes = _encode_family(write_quorums, fail_prone)
        families = (tuple(reads.values()), tuple(writes.values()))
        self._init(fail_prone, list(reads), list(writes), families, validate)

    @classmethod
    def _from_masks(
        cls, fail_prone: FailProneSystem, read_masks: Iterable[int], write_masks: Iterable[int],
        validate: bool = True,
    ) -> "QuorumTriple":
        """Discovery's hand-off: families already encoded over ``fail_prone``'s index.

        Deduplicated in first-seen order, as the constructor would; nothing
        is decoded until a caller reads a family.
        """
        triple = cls.__new__(cls)
        reads, writes = list(dict.fromkeys(read_masks)), list(dict.fromkeys(write_masks))
        triple._init(fail_prone, reads, writes, None, validate)
        return triple

    def _init(
        self, fail_prone: FailProneSystem, read_masks: List[int], write_masks: List[int],
        families: Optional[Tuple[QuorumFamily, QuorumFamily]], validate: bool,
    ) -> None:
        self._fail_prone = fail_prone
        self._read_masks = read_masks
        self._write_masks = write_masks
        self._families = families
        if validate:
            self.check()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def fail_prone(self) -> FailProneSystem:
        """The fail-prone system ``F``."""
        return self._fail_prone

    def _decoded(self) -> Tuple[QuorumFamily, QuorumFamily]:
        """Both families as process sets, decoded on first use."""
        if self._families is None:
            set_of = self._fail_prone.process_index.set_of
            reads, writes = map(set_of, self._read_masks), map(set_of, self._write_masks)
            self._families = tuple(reads), tuple(writes)
        return self._families

    @property
    def read_quorums(self) -> QuorumFamily:
        """The read-quorum family ``R``."""
        return self._decoded()[0]

    @property
    def write_quorums(self) -> QuorumFamily:
        """The write-quorum family ``W``."""
        return self._decoded()[1]

    def sorted_families(self) -> Tuple[List[List[ProcessId]], List[List[ProcessId]]]:
        """``R`` and ``W`` with each quorum a list in process order, decoded from the masks."""
        decode = self._fail_prone.process_index.sorted_list
        return list(map(decode, self._read_masks)), list(map(decode, self._write_masks))

    @property
    def processes(self) -> ProcessSet:
        """The process set ``P``."""
        return self._fail_prone.processes

    def __repr__(self) -> str:
        return "{}(n={}, |R|={}, |W|={})".format(
            type(self).__name__, len(self.processes), len(self._read_masks), len(self._write_masks)
        )

    # ------------------------------------------------------------------ #
    # Consistency (shared) and Availability (per definition)
    # ------------------------------------------------------------------ #
    def _inconsistent_pair(self) -> Optional[Tuple[int, int]]:
        """``(read, write)`` family positions of the first non-intersecting pair, or ``None``.

        Two subsets of ``n`` processes whose sizes sum past ``n`` share a
        process, so a read mask with more than ``n`` minus the smallest write
        size set bits meets every write mask and is passed without a scan.
        Every other read mask takes one ``all`` over the write masks, and the
        write position is looked up only for a read quorum that misses one.
        """
        write_masks = self._write_masks
        floor = len(self._fail_prone.process_index) - min(map(popcount, write_masks), default=0)
        for i, read_mask in enumerate(self._read_masks):
            if popcount(read_mask) <= floor and not all(map(read_mask.__and__, write_masks)):
                return i, next(j for j, mask in enumerate(write_masks) if not read_mask & mask)
        return None

    def _available_positions(self, pattern: FailurePattern) -> Optional[Tuple[int, int]]:
        """Family positions of a ``(read, write)`` pair validating ``pattern``, or ``None``.

        This is the one method in which the two definitions differ.
        """
        raise NotImplementedError

    def available_pair(self, pattern: FailurePattern) -> Optional[Tuple[ProcessSet, ProcessSet]]:
        """Return a ``(read, write)`` pair validating Availability under ``pattern``, if any."""
        positions = self._available_positions(pattern)
        if positions is None:
            return None
        reads, writes = self._decoded()
        return reads[positions[0]], writes[positions[1]]

    def is_available(self, pattern: FailurePattern) -> bool:
        """Return whether Availability holds for ``pattern``."""
        return self._available_positions(pattern) is not None

    def check(self) -> None:
        """Validate Consistency and Availability, raising a descriptive error.

        Runs on the masks: the offending quorums are listed in process order
        straight from the index, with nothing decoded.
        """
        bad_pair = self._inconsistent_pair()
        if bad_pair is not None:
            sorted_list = self._fail_prone.process_index.sorted_list
            raise QuorumConsistencyError(
                "read quorum {} does not intersect write quorum {}".format(
                    sorted_list(self._read_masks[bad_pair[0]]),
                    sorted_list(self._write_masks[bad_pair[1]]),
                )
            )
        bad_pattern = next((f for f in self._fail_prone if not self.is_available(f)), None)
        if bad_pattern is not None:
            raise QuorumAvailabilityError(self._UNAVAILABLE.format(bad_pattern))

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

    def _available_positions(self, pattern: FailurePattern) -> Optional[Tuple[int, int]]:
        """The first all-correct read quorum and the first all-correct write quorum."""
        correct = self._fail_prone.process_index.mask_of(pattern.correct_processes(self.processes))
        read = _first_inside(self._read_masks, correct)
        write = _first_inside(self._write_masks, correct)
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
