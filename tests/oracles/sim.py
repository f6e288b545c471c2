"""The simulator's per-message path as it was before the tuple queue.

Three pieces, lifted from the commits that preceded the production hot path
(``repro.sim.events`` / ``Network.broadcast`` / ``Process.deliver``):

* :class:`EventScheduler` — one heap of :class:`Event` objects ordered by a
  Python-level ``__lt__``; deliveries and timers alike allocate an ``Event``
  holding a closure, there is no FIFO lane and no compaction (a cancelled
  event stays in the heap until it is popped);
* :func:`reference_deliver` — ``Process.deliver`` that re-polls every
  suspended operation's wait probe after *every* delivery, including duplicate
  and pass-through relay envelopes, and recognises a duplicate from the
  envelope's ``(origin, seq)`` fields rather than its precomputed key;
* :func:`reference_broadcast` — ``Network.broadcast`` as one
  :meth:`~repro.sim.Network.send` per receiver, every membership, crash, graph
  and disconnection test and the lane choice repeated per message (relay
  forwarding goes through it too).

The interface mirrored is what :mod:`repro.sim.network`, :mod:`repro.sim.process`
and :mod:`repro.sim.runtime` call on a scheduler: ``now``, ``events_processed``,
``schedule_at``, ``schedule``, ``schedule_delivery(delay, fifo, callback,
sender, target, message)``, ``pending``, ``step``, ``run`` and ``run_until``.

:func:`reference_simulator` swaps all three into the production simulator, so the
differential battery and the benchmarks can run any workload on the old path.
This module carries its own ``Event`` and imports nothing from
:mod:`repro.sim.events` — it must not share the queue it is the oracle for
(``tests/test_surface.py`` enforces this).
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

import repro.sim.network
import repro.sim.runtime
from repro.errors import SimulationError
from repro.sim.network import Network
from repro.sim.process import Process, RelayEnvelope

EventCallback = Callable[[], None]


class Event:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[EventCallback],
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventScheduler:
    """The single-heap reference scheduler (same interface as production)."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._now = 0.0
        self._counter = itertools.count()
        self._events_processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event in the past (now={}, requested={})".format(
                    self._now, time
                )
            )
        event = Event(time, next(self._counter), callback, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule(self, delay: float, callback: EventCallback) -> Event:
        if delay < 0:
            raise SimulationError("delay must be non-negative, got {}".format(delay))
        return self.schedule_at(self._now + delay, callback)

    def schedule_delivery(self, delay, fifo, callback, sender, target, message) -> None:
        # One lane, one entry kind: the arguments ride in a closure on the heap.
        self.schedule(delay, lambda: callback(sender, target, message))

    def pending(self) -> int:
        return self._live

    def _note_cancel(self, event: Event) -> None:
        self._live -= 1

    def _peek(self) -> Optional[Event]:
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue).callback = None
        return queue[0] if queue else None

    def _fire(self, event: Event) -> None:
        self._now = event.time
        self._events_processed += 1
        self._live -= 1
        callback = event.callback
        event.callback = None
        callback()

    def step(self) -> bool:
        event = self._peek()
        if event is None:
            return False
        heapq.heappop(self._queue)
        self._fire(event)
        return True

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        executed = 0
        if stop_when is not None and stop_when():
            return
        while True:
            if max_events is not None and executed >= max_events:
                return
            event = self._peek()
            if event is None:
                return
            if max_time is not None and event.time > max_time:
                self._now = max_time
                return
            heapq.heappop(self._queue)
            self._fire(event)
            executed += 1
            if stop_when is not None and stop_when():
                return

    def run_until(self, time: float) -> None:
        self.run(max_time=time)
        if self._now < time:
            self._now = time


def reference_deliver(self, sender, message) -> None:
    """``Process.deliver`` polling the wait probes after every delivery."""
    if self.crashed:
        return
    if isinstance(message, RelayEnvelope):
        if self._relay_enabled:
            if (message.origin, message.seq) not in self._relay_seen:
                self._relay_handle(message)
        elif message.destination is None or message.destination == self.pid:
            self.on_message(message.origin, message.payload)
    else:
        self.on_message(sender, message)
    self._check_waits()


def reference_broadcast(self, sender, message, include_self=True) -> None:
    """``Network.broadcast`` as one independent ``send`` per receiver."""
    for receiver in list(self._processes):
        if receiver == sender and not include_self:
            continue
        self.send(sender, receiver, message)


@contextmanager
def reference_simulator() -> Iterator[None]:
    """Run every simulation built inside the block on the reference path.

    Forked pool workers inherit the swap, so ``jobs > 1`` runs are covered on
    platforms whose default start method is ``fork``.
    """
    swaps = (
        (repro.sim.runtime, "EventScheduler"),
        (repro.sim.network, "EventScheduler"),
    )
    saved = [getattr(module, name) for module, name in swaps]
    saved_deliver = Process.deliver
    saved_broadcast = Network.broadcast
    for module, name in swaps:
        setattr(module, name, EventScheduler)
    Process.deliver = reference_deliver
    Network.broadcast = reference_broadcast
    try:
        yield
    finally:
        for (module, name), original in zip(swaps, saved):
            setattr(module, name, original)
        Process.deliver = saved_deliver
        Network.broadcast = saved_broadcast
