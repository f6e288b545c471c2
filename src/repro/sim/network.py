"""The simulated message-passing network.

The network implements exactly the failure semantics of the paper's system
model (§2):

* processes communicate through **unidirectional channels**, one per ordered
  pair of processes (a channel a sparse network lacks is disconnected before
  the run starts);
* a **correct channel** is reliable: every message sent by a correct process is
  eventually delivered (after a delay chosen by the :class:`DelayModel`);
* a **faulty channel fails by disconnection**: from the moment it is
  disconnected it drops every message sent through it;
* a **crashed process** takes no further steps: it neither sends nor handles
  messages or timers.

Failure injection (:meth:`Network.disconnect_channel`,
:meth:`Network.crash_process`, :meth:`Network.apply_failure_pattern`) may
happen at any simulated time, so experiments can explore failures at start-up
as well as mid-execution.

A broadcast walks the sender's cached fan-out (its live channels in
registration order, each with its receiver's relay due map, plus a count of
the dropped ones).  Relaying has one forwarder, :meth:`Network.relay`, for an
envelope a process originates and one it receives first alike: it walks the
same fan-out, and a copy that cannot arrive first — its receiver has seen the
envelope, or holds an earlier-arriving copy of it — is counted and given a
delay like any other but never queued: it could only be discarded on arrival.
Every message reaches its receiver through one callback,
:meth:`Network._deliver`; the per-message methods it takes are bound once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..errors import SimulationError
from ..failures import FailurePattern
from ..types import Channel, ProcessId
from .delays import DelayModel, FixedDelay
from .events import EventScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Process

#: The due time of a key no copy has been queued for: any arrival beats it.
_UNQUEUED = float("inf")

#: The due time of a key the process has seen: below any arrival time.
_SEEN = -1.0

#: The attributes whose methods the network binds in ``__init__``: assigning
#: either afterwards would leave the bound copies behind, so it is refused.
_BOUND_AT_CONSTRUCTION = frozenset(("delay_model", "scheduler"))


class RelayEnvelope:
    """Envelope used by relaying processes to flood messages (see
    :meth:`repro.sim.Process.enable_relay`).

    ``destination`` is ``None`` for broadcasts and a process id for point-to-point
    messages; ``origin`` and ``seq`` identify the logical message uniquely so
    that each process forwards it at most once.
    """

    __slots__ = ("origin", "seq", "destination", "payload", "key")

    def __init__(
        self, origin: ProcessId, seq: int, destination: Optional[ProcessId], payload: Any
    ) -> None:
        self.origin = origin
        self.seq = seq
        self.destination = destination
        self.payload = payload
        #: De-duplication key, built once and looked up at every delivery.
        self.key = (origin, seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RelayEnvelope(origin={!r}, seq={}, dest={!r})".format(
            self.origin, self.seq, self.destination
        )


@dataclass
class NetworkStats:
    """Counters describing the traffic seen by the network.

    ``messages_sent`` counts every copy a live sender sends, self-copies
    included; of those, ``messages_dropped_channel`` went over a disconnected
    channel (one cut by a failure, or one the network lacks),
    ``relay_duplicates_elided`` were relay copies that could not arrive first
    — their receiver had seen the envelope or held a copy of it arriving no
    later (counted and given a delay, never queued) — and the rest were
    queued.  A queued copy ends up in ``messages_delivered`` or, when its
    receiver crashed meanwhile, ``messages_dropped_crashed`` — which also
    counts every copy sent by a crashed process.  They are run-wide totals:
    the network keeps no per-process table.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_channel: int = 0
    messages_dropped_crashed: int = 0
    relay_duplicates_elided: int = 0


class Network:
    """A simulated asynchronous network of processes and unidirectional channels.

    Every ordered pair of registered processes has a channel until
    :meth:`disconnect_channel` cuts it.

    Parameters
    ----------
    delay_model:
        The :class:`DelayModel` deciding message latencies.
    scheduler:
        An :class:`EventScheduler`; a fresh one is created if omitted.

    Both are read-only: their per-message methods are bound at construction.
    """

    def __init__(
        self,
        delay_model: Optional[DelayModel] = None,
        scheduler: Optional[EventScheduler] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.delay_model = delay_model if delay_model is not None else FixedDelay(1.0)
        # What queueing a copy takes, bound once: every send, fan-out and
        # relay unpacks this tuple instead of building bound methods per call.
        self._transport = (
            self.scheduler.schedule_delivery,
            self.delay_model.delay,
            self.delay_model.preserves_fifo,
            self._deliver,
        )
        self._processes: Dict[ProcessId, "Process"] = {}
        self._disconnected: Set[Channel] = set()
        self._crashed: Set[ProcessId] = set()
        # Per sender: its cached fan-out (see _build_fanout).
        self._fanouts: Dict[ProcessId, tuple] = {}
        self.stats = NetworkStats()
        self._op_ids = count()

    def __setattr__(self, name: str, value: Any) -> None:
        """Refuse to replace the delay model or the scheduler once bound."""
        if name in _BOUND_AT_CONSTRUCTION and name in self.__dict__:
            raise AttributeError(
                "Network.{} is fixed at construction: the network bound its methods".format(name)
            )
        object.__setattr__(self, name, value)

    def next_op_id(self) -> int:
        """The next operation id, unique and deterministic within this network.

        Drawing ids here (rather than from an interpreter-global counter)
        keeps operation histories — and the trace files recorded from them —
        identical no matter how many simulations ran earlier in the process.
        """
        return next(self._op_ids)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, process: "Process") -> None:
        """Register a process with the network."""
        if process.pid in self._processes:
            raise SimulationError("process {!r} already registered".format(process.pid))
        self._processes[process.pid] = process
        self._fanouts.clear()

    @property
    def processes(self) -> Dict[ProcessId, "Process"]:
        """Mapping of process id to process object."""
        return dict(self._processes)

    def has_process(self, pid: ProcessId) -> bool:
        """Return whether a process named ``pid`` is registered."""
        return pid in self._processes

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.scheduler.now

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #
    def disconnect_channel(self, channel: Channel) -> None:
        """Disconnect ``channel``: every message sent through it from now on is dropped."""
        self._disconnected.add((channel[0], channel[1]))
        self._fanouts.pop(channel[0], None)

    def crash_process(self, pid: ProcessId) -> None:
        """Crash process ``pid``: it takes no further steps."""
        if pid not in self._processes:
            raise SimulationError("unknown process {!r}".format(pid))
        self._crashed.add(pid)
        self._processes[pid].notify_crashed()

    def is_crashed(self, pid: ProcessId) -> bool:
        """Return whether process ``pid`` has crashed."""
        return pid in self._crashed

    def apply_failure_pattern(
        self, pattern: FailurePattern, at_time: Optional[float] = None
    ) -> None:
        """Inject the failures allowed by ``pattern``.

        All disconnect-prone channels are disconnected, all channels incident
        to crash-prone processes are disconnected, and the crash-prone
        processes are crashed.  When ``at_time`` is given the injection is
        scheduled for that simulated time instead of happening immediately.
        """

        def inject() -> None:
            for channel in pattern.disconnect_prone:
                self.disconnect_channel(channel)
            for pid in list(self._processes):
                if pid in pattern.crash_prone:
                    for other in self._processes:
                        if other != pid:
                            self.disconnect_channel((pid, other))
                            self.disconnect_channel((other, pid))
                    self.crash_process(pid)

        if at_time is None:
            inject()
        else:
            self.scheduler.schedule_at(at_time, inject)

    # ------------------------------------------------------------------ #
    # Message transport
    # ------------------------------------------------------------------ #
    def send(self, sender: ProcessId, receiver: ProcessId, message: Any) -> None:
        """Send ``message`` from ``sender`` to ``receiver``.

        Messages to self are delivered immediately (same event) — a process can
        always talk to itself.  Messages over disconnected channels or to/from
        crashed processes are dropped, and the drop is counted in ``stats``.
        """
        target = self._processes.get(receiver)
        if target is None or sender not in self._processes:
            raise SimulationError(
                "send between unknown processes {!r} -> {!r}".format(sender, receiver)
            )
        stats = self.stats
        if sender in self._crashed:
            # A crashed process takes no steps; sends from it are ignored.
            stats.messages_dropped_crashed += 1
            return
        stats.messages_sent += 1
        channel = (sender, receiver)
        if sender == receiver:
            self._deliver(sender, target, message)
        elif channel in self._disconnected:
            stats.messages_dropped_channel += 1
        else:
            schedule_delivery, delay, fifo, deliver = self._transport
            schedule_delivery(
                delay(channel, self.scheduler.now), fifo, deliver, sender, target, message
            )

    def broadcast(self, sender: ProcessId, message: Any, include_self: bool = True) -> None:
        """Send ``message`` from ``sender`` to every process (optionally itself).

        Message for message this is :meth:`send` per receiver in registration
        order — the self-copy delivered synchronously at the sender's position
        (its handler may send, drawing delays), no delay drawn for a dropped
        message — over the sender's cached fan-out, counters added once per
        segment.
        """
        fanout = self._fanouts.get(sender)
        if fanout is None:
            if sender not in self._processes:
                for receiver in self._processes:
                    self.send(sender, receiver, message)  # raises: unknown sender
                return
            fanout = self._build_fanout(sender)
        if sender in self._crashed:
            # A crashed process takes no steps; every copy is ignored.
            self.stats.messages_dropped_crashed += len(self._processes) - (not include_self)
            return
        copies, dropped, split, dropped_before = fanout
        if not include_self:
            self._fan_out(sender, message, copies, dropped)
            return
        # The self-copy counts as sent at its position, before its handler runs.
        self._fan_out(sender, message, copies[:split], dropped_before, self_copy=True)
        self._deliver(sender, self._processes[sender], message)
        # Protocol code just ran: it may have crashed its own process or cut
        # one of its channels.
        copies, dropped, split, dropped_before = (
            self._fanouts.get(sender) or self._build_fanout(sender)
        )
        if sender in self._crashed:
            self.stats.messages_dropped_crashed += len(copies) - split + dropped - dropped_before
        else:
            self._fan_out(sender, message, copies[split:], dropped - dropped_before)

    def _build_fanout(self, sender: ProcessId) -> tuple:
        """Build and cache ``sender``'s fan-out ``(copies, dropped, split,
        dropped_before)``.

        ``copies`` are the ``(target, channel, due)`` triples of every other
        receiver whose channel is not disconnected, in registration order —
        ``due`` is the receiver's ``_relay_due`` map, carried for
        :meth:`relay`; ``dropped``
        counts the receivers whose channel is.  The first ``split`` copies and ``dropped_before`` drops are of
        receivers registered before the sender.  :meth:`register` and
        :meth:`disconnect_channel` on one of the sender's channels invalidate
        the cache.
        """
        disconnected = self._disconnected
        copies: List[Tuple["Process", Channel, Dict[Any, float]]] = []
        dropped = split = dropped_before = 0
        for receiver, target in self._processes.items():
            if receiver == sender:
                split, dropped_before = len(copies), dropped
                continue
            channel = (sender, receiver)
            if channel in disconnected:
                dropped += 1
            else:
                copies.append((target, channel, target._relay_due))
        fanout = self._fanouts[sender] = (tuple(copies), dropped, split, dropped_before)
        return fanout

    def _fan_out(
        self, sender: ProcessId, message: Any, copies: tuple, dropped: int,
        self_copy: bool = False,
    ) -> None:
        """Count the copies, the ``dropped`` ones and the self-copy as sent,
        and queue each copy with its own delay."""
        stats = self.stats
        stats.messages_sent += len(copies) + dropped + self_copy
        stats.messages_dropped_channel += dropped
        schedule_delivery, delay, fifo, deliver = self._transport
        now = self.scheduler.now
        for target, channel, _due in copies:
            schedule_delivery(delay(channel, now), fifo, deliver, sender, target, message)

    def relay(self, process: "Process", envelope: RelayEnvelope) -> bool:
        """Forward ``envelope`` from the relaying ``process`` to every other
        process, unless ``process`` has seen it; returns whether it had not.

        The one relay forwarder, for envelopes a process originates and
        receives alike: :meth:`broadcast` without the self-copy, except that
        a copy arriving no earlier than its receiver's ``_relay_due`` entry
        (the earliest arrival of a copy queued there, or ``-1.0`` once seen)
        is counted, not queued.  It would land after a copy that delivers the
        key first (a tie fires the earlier-queued copy first), or after a
        crash that drops both, and be discarded here on arrival.  A
        non-relaying receiver records nothing and gets every copy.  Every
        delay is still drawn, so the delay model's draws (and a
        :class:`~repro.sim.ScheduleOverride`'s send indices) are those of a
        run that queues every copy.
        """
        key = envelope.key
        seen = process._relay_due
        if seen.get(key) == _SEEN:
            return False
        seen[key] = _SEEN
        sender = process.pid
        copies, dropped, _, _ = self._fanouts.get(sender) or self._build_fanout(sender)
        stats = self.stats
        stats.messages_sent += len(copies) + dropped
        stats.messages_dropped_channel += dropped
        schedule_delivery, delay, fifo, deliver = self._transport
        now = self.scheduler.now
        elided = 0
        for target, channel, due in copies:
            latency = delay(channel, now)
            at = now + latency
            # Written so that a NaN arrival is queued, and refused there.
            if at >= due.get(key, _UNQUEUED):
                elided += 1
                continue
            if target._relay_enabled:
                due[key] = at
            schedule_delivery(latency, fifo, deliver, sender, target, envelope)
        stats.relay_duplicates_elided += elided
        return True

    def _deliver(self, sender: ProcessId, target: "Process", message: Any) -> None:
        """The one delivery callback: hand ``message`` to ``target`` unless it
        crashed meanwhile, an envelope to a relaying one through :meth:`relay`
        first.  Wait probes are re-evaluated only when protocol code ran: a
        duplicate envelope, or one passed on towards another destination,
        changes nothing a probe may read."""
        if target.crashed:
            self.stats.messages_dropped_crashed += 1
            return
        self.stats.messages_delivered += 1
        if isinstance(message, RelayEnvelope):
            if target._relay_enabled and not self.relay(target, message):
                return
            destination = message.destination
            if destination is not None and destination != target.pid:
                return
            target.on_message(message.origin, message.payload)
        else:
            target.on_message(sender, message)
        if target._waits:
            target._check_waits()

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #
    def run(self, max_time: Optional[float] = None) -> None:
        """Run the underlying scheduler (see :meth:`EventScheduler.run`)."""
        self.scheduler.run(max_time=max_time)
