"""SWMR atomic snapshots built on the quorum access functions.

The paper obtains its snapshot upper bound by composing the register of
Figure 4 with the classical construction of atomic snapshots from registers
(Afek et al. [2]).  This module implements that construction directly over the
quorum access functions: the replicated state is the whole segment vector, the
per-segment content plays the role of the SWMR registers, and the scan logic is
the standard *double collect with embedded scans*:

* each ``write`` first performs a scan and stores ``(value, seq, view)`` in the
  writer's segment, where ``seq`` is the writer's write counter and ``view``
  the scanned vector;
* ``scan`` repeatedly collects the vector; a *clean double collect* (two
  successive identical collects) can be returned directly, and if some writer
  is observed to move twice the scanner *borrows* that writer's embedded view,
  which is guaranteed to have been taken inside the scanner's interval.

Collects write the merged vector back through ``quorum_set`` before being used,
which makes each collect behave as an atomic read of every segment (the same
write-back argument as for the register), so the classical correctness argument
of the embedded-scan construction applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Tuple

from ..sim.network import Network
from ..sim.process import OperationHandle
from ..types import ProcessId, sorted_processes
from .quorum_access import AnyQuorumSystem, GeneralizedQuorumAccessProcess


@dataclass(frozen=True)
class Segment:
    """One snapshot segment: the writer's value, write counter and embedded view."""

    value: Any
    seq: int
    view: Tuple[Tuple[ProcessId, Any], ...] = ()

    def view_dict(self) -> Dict[ProcessId, Any]:
        """The embedded view as a dictionary."""
        return dict(self.view)


SnapshotVector = Dict[ProcessId, Segment]


def initial_vector(process_ids) -> SnapshotVector:
    """The initial segment vector: every segment holds ``None`` at seq 0."""
    return {pid: Segment(None, 0) for pid in process_ids}


def merge_vectors(first: SnapshotVector, second: SnapshotVector) -> SnapshotVector:
    """Per-segment merge keeping the segment with the higher write counter."""
    merged: SnapshotVector = {}
    for pid in set(first) | set(second):
        a = first.get(pid)
        b = second.get(pid)
        if a is None:
            merged[pid] = b  # type: ignore[assignment]
        elif b is None:
            merged[pid] = a
        else:
            merged[pid] = a if a.seq >= b.seq else b
    return merged


def _segment_update(writer: ProcessId, segment: Segment):
    """Update function storing ``segment`` in ``writer``'s slot if it is newer."""

    def update(state: SnapshotVector) -> SnapshotVector:
        current = state.get(writer)
        if current is not None and current.seq >= segment.seq:
            return state
        new_state = dict(state)
        new_state[writer] = segment
        return new_state

    return update


def _merge_update(vector: SnapshotVector):
    """Update function merging an observed vector into the replica state (write-back)."""

    def update(state: SnapshotVector) -> SnapshotVector:
        return merge_vectors(state, vector)

    return update


class SnapshotProcess(GeneralizedQuorumAccessProcess):
    """A single-writer multi-reader atomic snapshot object.

    Each process owns one segment (its own process id).  ``write(x)`` stores
    ``x`` in the caller's segment; ``scan()`` returns a ``{process_id: value}``
    mapping that is a linearizable snapshot of all segments.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        push_interval: float = 1.0,
    ) -> None:
        process_ids = sorted_processes(quorum_system.processes)
        super().__init__(
            pid,
            network,
            quorum_system,
            initial_state=initial_vector(process_ids),
            push_interval=push_interval,
        )
        self.segment_ids = tuple(process_ids)
        self._write_counter = 0

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #
    def write(self, value: Any) -> OperationHandle:
        """Store ``value`` in this process's segment."""
        return self.start_operation("snapshot_write", value, self._write_gen(value))

    def scan(self) -> OperationHandle:
        """Atomically read all segments; resolves to a ``{process_id: value}`` mapping."""
        return self.start_operation("snapshot_scan", None, self._scan_gen())

    # ------------------------------------------------------------------ #
    # Collect: one atomic read of the whole vector
    # ------------------------------------------------------------------ #
    def _collect(self) -> Generator:
        states: Dict[ProcessId, SnapshotVector] = yield from self._quorum_get()
        merged: SnapshotVector = {}
        for vector in states.values():
            merged = merge_vectors(merged, vector)
        # Write the merged vector back so that collects are per-segment atomic
        # (prevents new/old inversions between successive collects).
        yield from self._quorum_set(_merge_update(merged))
        return merged

    # ------------------------------------------------------------------ #
    # Operation generators
    # ------------------------------------------------------------------ #
    def _write_gen(self, value: Any) -> Generator:
        view = yield from self._scan_inner()
        self._write_counter += 1
        segment = Segment(value, self._write_counter, tuple(sorted(view.items(), key=repr)))
        yield from self._quorum_set(_segment_update(self.pid, segment))
        return "ack"

    def _scan_gen(self) -> Generator:
        view = yield from self._scan_inner()
        return view

    def _scan_inner(self) -> Generator:
        """The embedded-scan loop shared by ``scan`` and the write's initial scan."""
        moved: Dict[ProcessId, int] = {pid: 0 for pid in self.segment_ids}
        previous = yield from self._collect()
        while True:
            current = yield from self._collect()
            if all(current[pid].seq == previous[pid].seq for pid in self.segment_ids):
                # Clean double collect: no segment changed between the two
                # collects, so the collected vector was installed at some
                # point inside the scan interval.
                return {pid: current[pid].value for pid in self.segment_ids}
            for pid in self.segment_ids:
                if current[pid].seq != previous[pid].seq:
                    moved[pid] += 1
                    if moved[pid] >= 2:
                        # The writer "pid" completed two writes during this
                        # scan, so its embedded view was taken entirely within
                        # the scan interval and can be borrowed.
                        borrowed = current[pid].view_dict()
                        return {seg: borrowed.get(seg) for seg in self.segment_ids}
            previous = current
