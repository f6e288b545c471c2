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
  forwarding goes through it too), and every copy queued — including those to
  a receiver that has already seen the envelope, which production elides.

Those copies are *counted*: each reference scheduler keeps an
:class:`ElisionLedger` of what they did (how many were queued, popped,
delivered or dropped, the order in which receivers got their first other
delivery, and the time a run without them would show), and
:func:`production_view` subtracts them, so the differential battery can pin
production's counters as exact identities of the reference run.

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
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.sim.network
import repro.sim.runtime
from repro.errors import SimulationError
from repro.sim.network import Network
from repro.sim.process import Process, RelayEnvelope

EventCallback = Callable[[], None]


class Event:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "callback", "cancelled", "counted", "_scheduler")

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
        self.counted = False
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


class ElisionLedger:
    """The counted copies of one reference run: relay copies queued to a
    receiver whose ``_relay_seen`` already held the envelope's key."""

    def __init__(self) -> None:
        #: Set by :func:`reference_broadcast` while it sends a counted copy.
        self.marking = False
        #: Set by the scheduler while a counted copy's delivery runs.
        self.firing = False
        self.queued = 0
        self.popped = 0
        self.delivered: Dict[Any, int] = {}
        self.dropped_crashed = 0
        #: Receivers in the order of their first delivery of an uncounted message.
        self.first_delivered: List[Any] = []
        #: Simulated time as a run that never queued the counted copies shows it.
        self.now = 0.0

    @property
    def held(self) -> int:
        """Counted copies still queued."""
        return self.queued - self.popped


class EventScheduler:
    """The single-heap reference scheduler (same interface as production)."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._now = 0.0
        self._counter = itertools.count()
        self._events_processed = 0
        self._live = 0
        self.ledger = ElisionLedger()

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
        event = self.schedule(delay, lambda: callback(sender, target, message))
        if self.ledger.marking:
            event.counted = True
            self.ledger.queued += 1

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
        ledger = self.ledger
        if event.counted:
            ledger.popped += 1
        else:
            ledger.now = event.time
        callback = event.callback
        event.callback = None
        ledger.firing = event.counted
        callback()
        ledger.firing = False

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
                if self._live > self.ledger.held:
                    self.ledger.now = max_time
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
        if self.ledger.now < time:
            self.ledger.now = time


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


def reference_broadcast(self, sender, message, include_self=True, seen_key=None) -> None:
    """``Network.broadcast`` as one independent ``send`` per receiver.

    ``seen_key`` is ignored: every copy is queued.  A relay copy whose receiver
    has already seen the envelope is sent with the ledger marking, so the
    scheduler counts it if it is queued at all.
    """
    ledger = self.scheduler.ledger
    for receiver in list(self._processes):
        if receiver == sender and not include_self:
            continue
        target = self._processes.get(receiver)
        ledger.marking = isinstance(message, RelayEnvelope) and (
            (message.origin, message.seq) in target._relay_seen
        )
        self.send(sender, receiver, message)
        ledger.marking = False


def reference_network_deliver(self, sender, target, message) -> None:
    """``Network._deliver``, telling the ledger what a counted copy did."""
    ledger = self.scheduler.ledger
    if ledger.firing:
        if target.crashed:
            ledger.dropped_crashed += 1
        else:
            ledger.delivered[target.pid] = ledger.delivered.get(target.pid, 0) + 1
    elif not target.crashed and target.pid not in ledger.first_delivered:
        ledger.first_delivered.append(target.pid)
    _production_deliver(self, sender, target, message)


_production_deliver = Network._deliver


def production_view(network) -> Dict[str, Any]:
    """``NetworkStats``, ``events_processed``, ``pending()`` and ``now`` as
    production reports them for the run made on ``network``.

    A production run reports itself.  For a reference run everything the
    counted copies did is subtracted: the relay copies the reference queued to
    a receiver that had already seen the envelope, which production counts in
    ``relay_duplicates_elided`` and never queues.  The rest of
    ``NetworkStats`` — ``messages_sent``, ``messages_dropped_channel`` and
    ``per_process_sent`` above all — is the reference's own.
    """
    scheduler = network.scheduler
    stats = dict(vars(network.stats))
    if not isinstance(scheduler, EventScheduler):
        return {
            "stats": stats,
            "events_processed": scheduler.events_processed,
            "pending": scheduler.pending(),
            "now": network.now,
        }
    ledger = scheduler.ledger
    assert stats["relay_duplicates_elided"] == 0  # the reference elides nothing
    per_delivered = stats["per_process_delivered"]
    left = {pid: count - ledger.delivered.get(pid, 0) for pid, count in per_delivered.items()}
    assert {pid for pid, count in left.items() if count} == set(ledger.first_delivered)
    stats.update(
        messages_delivered=stats["messages_delivered"] - sum(ledger.delivered.values()),
        messages_dropped_crashed=stats["messages_dropped_crashed"] - ledger.dropped_crashed,
        relay_duplicates_elided=ledger.queued,
        per_process_delivered={pid: left[pid] for pid in ledger.first_delivered},
    )
    return {
        "stats": stats,
        "events_processed": scheduler.events_processed - ledger.popped,
        "pending": scheduler.pending() - ledger.held,
        "now": ledger.now,
    }


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
    Network._deliver = reference_network_deliver
    try:
        yield
    finally:
        for (module, name), original in zip(swaps, saved):
            setattr(module, name, original)
        Process.deliver = saved_deliver
        Network.broadcast = saved_broadcast
        Network._deliver = _production_deliver
