"""Discrete-event scheduler underpinning the network simulator.

The scheduler maintains a priority queue of timed callbacks.  Ties are broken
by insertion order, which makes runs fully deterministic for a fixed random
seed of the delay model.  Simulated time is a float in arbitrary "time units";
the protocols and experiments only rely on relative ordering and on the partial
synchrony bound ``δ``, never on wall-clock meaning.

Hot path
--------
Message-heavy simulations execute one event per queued message, so the
per-event constant factor of the scheduler dominates whole protocol workloads.
(The network queues no relay copy that can only arrive second at its
receiver — see :meth:`repro.sim.Network.broadcast` — which keeps about three
quarters of a relaying run's copies out of this queue.)  The queue is built to
keep that constant small:

* **tuple entries** — a queued event is a ``(time, seq, callback, handle)``
  tuple.  ``seq`` is unique, so ``heapq`` and the lane merge order entries by
  ``(time, seq)`` entirely in C and never reach the callback.  ``handle`` is
  the :class:`Event` returned by :meth:`EventScheduler.schedule` /
  :meth:`~EventScheduler.schedule_at` — the only thing a caller can cancel —
  and ``None`` for deliveries, which nothing ever cancels and which carry
  their arguments instead: ``(..., None, sender, target, message)`` fires as
  ``callback(sender, target, message)``, one tuple and no closure per message;
* **FIFO short-circuit lane** — when the delay model in force preserves
  per-run FIFO order (see :attr:`repro.sim.DelayModel.preserves_fifo`),
  deliveries bypass the heap entirely and flow through a deque whose entries
  are kept sorted by construction; the execution loop merges the lane with the
  heap by the same ``(time, seq)`` order, so event order is bit-for-bit what a
  single heap would produce;
* **lazy-deletion heap compaction** — cancelled events are counted
  (:meth:`EventScheduler.pending` is O(1) instead of an O(queue) rescan) and
  the heap is rebuilt without them once they exceed half of it, so a crash
  that cancels long timers does not leave their corpses occupying the heap
  until their scheduled time.

The scheduler this one replaced — a single heap of ``Event`` objects with a
Python-level ordering method — lives on as ``tests/oracles/sim.py``, queueing
every relay copy; the differential battery in ``tests/`` pins histories,
recorded trace bytes and the send-side network statistics equal between the
two across the scenario catalogue, and the delivery-side statistics,
``events_processed``, ``pending()`` and ``now`` as exact identities of the
reference run minus the copies production never queues.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError

EventCallback = Callable[[], None]


class Event:
    """Cancel handle of a scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "cancelled", "_scheduler")

    def __init__(self, time: float, seq: int, scheduler: "EventScheduler") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        # Cleared when the event fires or is cancelled: a handle acts once.
        self._scheduler: Optional["EventScheduler"] = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        scheduler = self._scheduler
        if scheduler is not None:
            self._scheduler = None
            self.cancelled = True
            scheduler._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Event(t={:.3f}, seq={}, cancelled={})".format(self.time, self.seq, self.cancelled)


# (time, seq, callback, handle), then (sender, target, message) for a delivery.
_Entry = Tuple[Any, ...]


class EventScheduler:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._fifo: Deque[_Entry] = deque()
        self._now = 0.0
        self._counter = itertools.count()
        self._events_processed = 0
        self._live = 0
        self._heap_cancelled = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        if not time >= self._now:  # also refuses NaN, which compares false with anything
            raise SimulationError(
                "cannot schedule an event in the past (now={}, requested={})".format(
                    self._now, time
                )
            )
        seq = next(self._counter)
        event = Event(time, seq, self)
        heapq.heappush(self._queue, (time, seq, callback, event))
        self._live += 1
        return event

    def schedule(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if not delay >= 0:
            raise SimulationError("delay must be non-negative, got {}".format(delay))
        return self.schedule_at(self._now + delay, callback)

    def schedule_delivery(
        self, delay: float, fifo: bool, callback: Callable[[Any, Any, Any], None],
        sender: Any, target: Any, message: Any,
    ) -> None:
        """Schedule an *internal* delivery: ``callback(sender, target, message)``.

        The arguments ride in the queue entry and no handle is created, so the
        event cannot be cancelled — crashes are re-checked at delivery time.
        ``fifo`` selects the FIFO short-circuit lane, valid whenever delivery
        times arrive in non-decreasing order (the
        :attr:`~repro.sim.DelayModel.preserves_fifo` contract); an out-of-order
        time falls back to the heap, so a misdeclared delay model stays correct.
        """
        time = self._now + delay
        if not time >= self._now:
            raise SimulationError("delay must be non-negative, got {}".format(delay))
        entry = (time, next(self._counter), callback, None, sender, target, message)
        if fifo and not (self._fifo and time < self._fifo[-1][0]):
            self._fifo.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        self._live += 1

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._live

    # ------------------------------------------------------------------ #
    # Lazy deletion
    # ------------------------------------------------------------------ #
    def _note_cancel(self) -> None:
        """Bookkeeping for :meth:`Event.cancel`: keep the live count exact and
        compact the heap once cancelled corpses outnumber live entries."""
        self._live -= 1
        self._heap_cancelled += 1
        queue = self._queue
        if self._heap_cancelled * 2 > len(queue):
            # In place: run() holds an alias to the list.
            queue[:] = [entry for entry in queue if entry[3] is None or not entry[3].cancelled]
            heapq.heapify(queue)
            self._heap_cancelled = 0

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, max_time: Optional[float] = None, stop_when: Optional[Callable[[], bool]] = None
    ) -> None:
        """Run events in order until a stopping condition is met.

        Stops when the queue empties, when simulated time would exceed
        ``max_time``, or when ``stop_when()`` becomes true (checked after every
        event).
        """
        if stop_when is not None and stop_when():
            return
        queue = self._queue
        fifo = self._fifo
        heappop = heapq.heappop
        while True:
            if queue:
                entry = queue[0]
                handle = entry[3]
                if handle is not None and handle.cancelled:
                    # Cancelled heads never fire; discard them before looking
                    # at max_time, which only live events may trip.
                    heappop(queue)
                    self._heap_cancelled -= 1
                    continue
                from_fifo = bool(fifo) and fifo[0] < entry
                if from_fifo:
                    entry = fifo[0]
            elif fifo:
                from_fifo = True
                entry = fifo[0]
            else:
                return
            time = entry[0]
            if max_time is not None and time > max_time:
                self._now = max_time
                return
            self._now = time
            self._events_processed += 1
            self._live -= 1
            if from_fifo:
                fifo.popleft()
                handle = None  # only deliveries take the lane
            else:
                heappop(queue)
            if handle is None:
                entry[2](entry[4], entry[5], entry[6])
            else:
                handle._scheduler = None  # fired: cancel() is a no-op now
                entry[2]()
            if stop_when is not None and stop_when():
                return
