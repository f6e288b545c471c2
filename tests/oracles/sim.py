"""The simulator's per-message path as it was before the tuple queue.

Four pieces, lifted from the commits that preceded the production hot path
(``repro.sim.events`` / ``Network.broadcast`` / ``Network.relay`` /
``Network._deliver``):

* :class:`EventScheduler` — one heap of :class:`Event` objects ordered by a
  Python-level ``__lt__``; deliveries and timers alike allocate an ``Event``
  holding a closure, there is no FIFO lane and no compaction (a cancelled
  event stays in the heap until it is popped);
* :func:`reference_network_deliver` — the delivery callback as the network
  counter over a ``Process.deliver`` that re-polls every suspended
  operation's wait probe after *every* delivery, including duplicate and
  pass-through relay envelopes, and recognises a duplicate from the
  envelope's ``(origin, seq)`` fields rather than its precomputed key;
* :func:`reference_broadcast` — ``Network.broadcast`` as one
  :meth:`~repro.sim.Network.send` per receiver, every membership, crash and
  disconnection test and the lane choice repeated per message;
* :func:`reference_relay` — ``Network.relay`` as the same loop over every
  other receiver, de-duplicating from the ledger's own records and queueing
  every copy — including the relay copies that cannot arrive first, which
  production elides.

Those copies are *counted*: each reference scheduler keeps an
:class:`ElisionLedger` that decides from its own records which relay copies
are counted (it reads no de-duplication state of production's) and tracks
what they did (how many were queued, popped, delivered or dropped, the order
in which receivers got their first other delivery, and the time a run
without them would show), and :func:`production_view` subtracts them, so the
differential battery can pin production's counters as exact identities of
the reference run.

The network keeps run-wide totals only, so the per-process traffic the
battery compares — copies sent per sender and delivered per receiver, each
keyed in first-message order — is counted by :func:`traffic_tap`, a tap on
production's send entry points and on whichever delivery callback is
installed; :func:`traffic_view` reads it (minus the counted copies, for a
reference run).

The interface mirrored is what :mod:`repro.sim.network`, :mod:`repro.sim.process`
and :mod:`repro.sim.runtime` call on a scheduler: ``now``, ``events_processed``,
``schedule_at``, ``schedule``, ``schedule_delivery(delay, fifo, callback,
sender, target, message)``, ``pending``, ``stop`` and ``run``.

:func:`reference_simulator` swaps all four into the production simulator, so the
differential battery and the benchmarks can run any workload on the old path.
This module carries its own ``Event`` and imports nothing from
:mod:`repro.sim.events` — it must not share the queue it is the oracle for
(``tests/test_surface.py`` enforces this).
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import repro.sim.network
import repro.sim.runtime
from repro.errors import SimulationError
from repro.sim.network import Network, RelayEnvelope
from repro.sim.process import Process

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
    """The counted copies of one reference run: relay copies that could not
    arrive first at their receiver.

    A relay copy — one :func:`reference_relay` queues; an envelope handed
    to a plain ``send`` is queued by production too and is never counted —
    is counted when, as it is queued, its receiver has seen the envelope, or
    an uncounted relay copy of the envelope was queued to that receiver
    earlier with an arrival time no later than this one's.  Both records are
    the ledger's own: :func:`reference_relay` notes a key as seen by the
    process that forwards it, and the scheduler notes the arrival times of
    the uncounted relay copies it queues to relaying receivers.
    """

    def __init__(self) -> None:
        #: Processes that turned relaying on (see :func:`reference_simulator`).
        self.relaying: Set[Any] = set()
        #: ``(pid, key)`` of every envelope a process has forwarded.
        self.seen: Set[Tuple[Any, Any]] = set()
        #: ``(pid, key)`` -> earliest arrival of an uncounted copy queued to it.
        self.due: Dict[Tuple[Any, Any], float] = {}
        #: Set by the scheduler while a counted copy's delivery runs.
        self.firing = False
        #: Set by :func:`reference_relay` while it queues an envelope's copies.
        self.forwarding = False
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

    def counts(self, pid: Any, key: Any, time: float) -> bool:
        """Whether a relay copy of ``key`` queued to ``pid`` for ``time`` is counted."""
        entry = (pid, key)
        if entry in self.seen:
            return True
        due = self.due.get(entry)
        if due is not None and due <= time:
            return True
        if pid in self.relaying:
            self.due[entry] = time
        return False


class EventScheduler:
    """The single-heap reference scheduler (same interface as production)."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._now = 0.0
        self._counter = itertools.count()
        self._events_processed = 0
        self._live = 0
        self._stopped = False
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
        if self.ledger.forwarding and self.ledger.counts(
            target.pid, (message.origin, message.seq), event.time
        ):
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

    def stop(self) -> None:
        self._stopped = True

    def run(self, max_time: Optional[float] = None) -> None:
        self._stopped = False
        while not self._stopped:
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


def reference_deliver(process, sender, message) -> None:
    """``Process.deliver`` polling the wait probes after every delivery; the
    ledger's records say which processes relay."""
    if isinstance(message, RelayEnvelope):
        if process.pid in process.network.scheduler.ledger.relaying:
            if process.network.relay(process, message) and message.destination in (
                None, process.pid
            ):
                process.on_message(message.origin, message.payload)
        elif message.destination is None or message.destination == process.pid:
            process.on_message(message.origin, message.payload)
    else:
        process.on_message(sender, message)
    process._check_waits()


def reference_broadcast(self, sender, message, include_self=True) -> None:
    """``Network.broadcast`` as one independent ``send`` per receiver."""
    for receiver in self.processes:
        if receiver == sender and not include_self:
            continue
        self.send(sender, receiver, message)


def reference_relay(self, process, envelope) -> bool:
    """``Network.relay`` as one independent ``send`` per other receiver.

    An envelope is a duplicate when the ledger saw ``process`` forward it;
    otherwise every copy is queued, and the scheduler's ledger decides which
    of them are counted.
    """
    ledger = self.scheduler.ledger
    seen = (process.pid, (envelope.origin, envelope.seq))
    if seen in ledger.seen:
        return False
    ledger.seen.add(seen)
    # No handler runs below: the loop skips the self-copy.
    ledger.forwarding = True
    try:
        for receiver in self.processes:
            if receiver != process.pid:
                self.send(process.pid, receiver, envelope)
    finally:
        ledger.forwarding = False
    return True


def reference_network_deliver(self, sender, target, message) -> None:
    """The delivery callback: the network's counters, then
    :func:`reference_deliver`, telling the ledger what a counted copy did."""
    ledger = self.scheduler.ledger
    if ledger.firing:
        if target.crashed:
            ledger.dropped_crashed += 1
        else:
            ledger.delivered[target.pid] = ledger.delivered.get(target.pid, 0) + 1
    elif not target.crashed and target.pid not in ledger.first_delivered:
        ledger.first_delivered.append(target.pid)
    if target.crashed:
        self.stats.messages_dropped_crashed += 1
        return
    self.stats.messages_delivered += 1
    reference_deliver(target, sender, message)


def reference_enable_relay(self) -> None:
    """``Process.enable_relay``, telling the ledger that ``self`` relays."""
    self.network.scheduler.ledger.relaying.add(self.pid)
    _production_enable_relay(self)


_production_broadcast = Network.broadcast
_production_relay = Network.relay
_production_deliver = Network._deliver
_production_enable_relay = Process.enable_relay


class Traffic:
    """The copies each process sent and was delivered on one network, keyed
    in first-message order (see :func:`traffic_tap`)."""

    def __init__(self) -> None:
        self.sent: Dict[Any, int] = {}
        self.delivered: Dict[Any, int] = {}

    def count_sent(self, sender: Any, copies: int) -> None:
        if copies:
            self.sent[sender] = self.sent.get(sender, 0) + copies


_TRAFFIC: "weakref.WeakKeyDictionary[Network, Traffic]" = weakref.WeakKeyDictionary()


def traffic(network) -> Traffic:
    """What the tap counted on ``network``, as it stands (``KeyError`` if no
    tapped entry point ran on it)."""
    return _TRAFFIC[network]


@contextmanager
def traffic_tap() -> Iterator[None]:
    """Count, for every network used inside the block, the copies each
    process sends and is delivered.

    A sent copy is counted where production's send entry points count one in
    ``messages_sent``: a ``send`` from a live sender counts one before it
    runs; a ``broadcast`` counts its receivers registered up to and including
    the sender before the self-copy's handler runs and, unless that handler
    crashed the sender, those registered after it once it returns; a
    ``relay`` that forwards counts every other process.  The reference's
    broadcast and relay are loops over ``send``, so under
    :func:`reference_simulator` they are left alone and every copy is counted
    by ``send``.  A delivered copy is counted as the installed delivery
    callback receives it for a receiver that has not crashed.  Enter it
    inside :func:`reference_simulator`, never around it.
    """
    installed = (Network.send, Network.broadcast, Network.relay, Network._deliver)
    send, broadcast, relay, deliver = installed

    def tapped_send(self, sender, receiver, message):
        counts = _TRAFFIC.setdefault(self, Traffic())
        if self.has_process(sender) and self.has_process(receiver) and not self.is_crashed(sender):
            counts.count_sent(sender, 1)
        send(self, sender, receiver, message)

    def tapped_broadcast(self, sender, message, include_self=True):
        counts = _TRAFFIC.setdefault(self, Traffic())
        order = list(self.processes)
        if sender not in order or self.is_crashed(sender):
            broadcast(self, sender, message, include_self)
            return
        if not include_self:
            counts.count_sent(sender, len(order) - 1)
            broadcast(self, sender, message, include_self)
            return
        counts.count_sent(sender, order.index(sender) + 1)
        broadcast(self, sender, message, include_self)
        if not self.is_crashed(sender):
            order = list(self.processes)
            counts.count_sent(sender, len(order) - order.index(sender) - 1)

    def tapped_relay(self, process, envelope):
        counts = _TRAFFIC.setdefault(self, Traffic())
        forwarded = relay(self, process, envelope)
        if forwarded:
            counts.count_sent(process.pid, len(self.processes) - 1)
        return forwarded

    def tapped_deliver(self, sender, target, message):
        if not target.crashed:
            delivered = _TRAFFIC.setdefault(self, Traffic()).delivered
            delivered[target.pid] = delivered.get(target.pid, 0) + 1
        deliver(self, sender, target, message)

    Network.send = tapped_send
    Network._deliver = tapped_deliver
    if broadcast is _production_broadcast:
        Network.broadcast = tapped_broadcast
    if relay is _production_relay:
        Network.relay = tapped_relay
    try:
        yield
    finally:
        Network.send, Network.broadcast, Network.relay, Network._deliver = installed


def production_view(network) -> Dict[str, Any]:
    """``NetworkStats``, ``events_processed``, ``pending()`` and ``now`` as
    production reports them for the run made on ``network``.

    A production run reports itself.  For a reference run everything the
    counted copies did is subtracted: the relay copies the reference queued
    that could not arrive first, which production counts in
    ``relay_duplicates_elided`` and never queues.  The rest of
    ``NetworkStats`` — ``messages_sent`` and ``messages_dropped_channel`` —
    is the reference's own.
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
    stats.update(
        messages_delivered=stats["messages_delivered"] - sum(ledger.delivered.values()),
        messages_dropped_crashed=stats["messages_dropped_crashed"] - ledger.dropped_crashed,
        relay_duplicates_elided=ledger.queued,
    )
    return {
        "stats": stats,
        "events_processed": scheduler.events_processed - ledger.popped,
        "pending": scheduler.pending() - ledger.held,
        "now": ledger.now,
    }


def traffic_view(network) -> Dict[str, Dict[Any, int]]:
    """The tapped per-process traffic of the run made on ``network`` as a
    production run shows it: ``sent`` per sender and ``delivered`` per
    receiver, each in first-message order.

    ``sent`` is the tap's own on both paths.  For a reference run the
    deliveries of the counted copies are subtracted from ``delivered``,
    which then holds one entry per receiver that got another copy, in the
    order of its first such delivery.
    """
    counts = traffic(network)
    delivered = dict(counts.delivered)
    scheduler = network.scheduler
    if isinstance(scheduler, EventScheduler):
        ledger = scheduler.ledger
        left = {pid: count - ledger.delivered.get(pid, 0) for pid, count in delivered.items()}
        assert {pid for pid, count in left.items() if count} == set(ledger.first_delivered)
        delivered = {pid: left[pid] for pid in ledger.first_delivered}
    return {"sent": dict(counts.sent), "delivered": delivered}


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
    assert Network._deliver is _production_deliver, "enter traffic_tap() inside, not around"
    for module, name in swaps:
        setattr(module, name, EventScheduler)
    Process.enable_relay = reference_enable_relay
    Network.broadcast = reference_broadcast
    Network.relay = reference_relay
    Network._deliver = reference_network_deliver
    try:
        yield
    finally:
        for (module, name), original in zip(swaps, saved):
            setattr(module, name, original)
        Process.enable_relay = _production_enable_relay
        Network.broadcast = _production_broadcast
        Network.relay = _production_relay
        Network._deliver = _production_deliver
