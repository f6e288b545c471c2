"""Simulated processes with generator-style blocking operations.

The paper's pseudocode is written in the traditional "wait until received ..."
style.  To keep the Python implementations visually close to the paper, a
protocol operation is written as a *generator* that ``yield``s
:class:`WaitCondition` objects; the process suspends the operation until the
condition becomes satisfiable (typically because a message arrived) and then
resumes it with the condition's result.  The pattern looks like::

    def _quorum_get(self):
        ...
        responses = yield self.wait_for(lambda: self._collect_read_quorum(...))
        ...
        return states

Operations are started with :meth:`Process.start_operation`, which returns an
:class:`OperationHandle` that records completion and the result — the handles
double as the raw material for operation histories fed to the linearizability
checkers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import ProcessCrashedError, SimulationError
from ..types import ProcessId
from .events import Event
from .network import Network

_NOT_READY = object()
"""Sentinel returned by wait-condition probes that are not yet satisfiable."""

_SEEN = -1.0
"""The ``_relay_due`` entry of a key the process has handled: below any arrival time."""


class WaitCondition:
    """A resumable wait: ``probe`` returns ``_NOT_READY`` until it can produce a value."""

    __slots__ = ("probe", "description")

    def __init__(self, probe: Callable[[], Any], description: str = "") -> None:
        self.probe = probe
        self.description = description

    def poll(self) -> Tuple[bool, Any]:
        """Evaluate the probe; returns ``(ready, value)``."""
        value = self.probe()
        if value is _NOT_READY:
            return False, None
        return True, value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WaitCondition({})".format(self.description or "<anonymous>")


class OperationHandle:
    """Tracks one in-flight (or completed) operation at a process."""

    def __init__(
        self,
        process_id: ProcessId,
        kind: str,
        argument: Any,
        invoked_at: float,
        op_id: int,
    ) -> None:
        self.op_id = op_id
        self.process_id = process_id
        self.kind = kind
        self.argument = argument
        self.invoked_at = invoked_at
        self.completed_at: Optional[float] = None
        self.result: Any = None
        self._callbacks: List[Callable[["OperationHandle"], None]] = []

    @property
    def done(self) -> bool:
        """Whether the operation has returned."""
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Simulated completion latency, or ``None`` if still pending."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.invoked_at

    def on_complete(self, callback: Callable[["OperationHandle"], None]) -> None:
        """Register a callback fired when the operation completes."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def complete(self, result: Any, time: float) -> None:
        """Mark the operation as completed (called by the process machinery)."""
        if self.done:
            raise SimulationError("operation {} completed twice".format(self.op_id))
        self.result = result
        self.completed_at = time
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()

    def __repr__(self) -> str:
        status = "done@{:.2f}".format(self.completed_at) if self.done else "pending"
        return "OperationHandle({} {} {!r} {})".format(
            self.process_id, self.kind, self.argument, status
        )


OperationGenerator = Generator[WaitCondition, Any, Any]


class RelayEnvelope:
    """Envelope used by relaying processes to flood messages (see :meth:`Process.enable_relay`).

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


class Process:
    """Base class for simulated protocol processes.

    Subclasses override :meth:`on_message` (and optionally :meth:`on_start`)
    and express blocking operations as generators yielding
    :class:`WaitCondition` objects.
    """

    def __init__(self, pid: ProcessId, network: Network) -> None:
        self.pid = pid
        self.network = network
        self.crashed = False
        self._waits: List[Tuple[WaitCondition, OperationGenerator, OperationHandle]] = []
        # Live timers as an insertion-ordered set (dict keys): fired timers
        # remove themselves, so the structure stays bounded by the number of
        # *armed* timers even under long periodic runs; cancelled-but-unfired
        # entries are pruned in amortized O(1) by set_timer.
        self._timers: Dict[Event, None] = {}
        self._timer_prune_at = 8
        self._started = False
        self._relay_enabled = False
        self._relay_seq = 0
        # Relay key -> earliest arrival of a copy queued here, or _SEEN (see
        # Network._fan_out); written only while relaying is enabled.
        self._relay_due: Dict[Any, float] = {}
        network.register(self)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Hook invoked once when the simulation starts.  Default: nothing."""

    def start(self) -> None:
        """Invoke the start-up hook (idempotent)."""
        if not self._started and not self.crashed:
            self._started = True
            self.on_start()
            self._check_waits()

    def notify_crashed(self) -> None:
        """Called by the network when this process crashes."""
        self.crashed = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._waits.clear()
        self._timer_prune_at = 8

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    def enable_relay(self) -> None:
        """Turn on relaying: the process floods messages to simulate transitive connectivity.

        The paper assumes (w.l.o.g.) that the connectivity relation of the
        residual graph is transitive, "simulated by having all processes
        forward every received message".  With relaying enabled every logical
        ``send``/``broadcast`` is wrapped in a :class:`RelayEnvelope` that each
        process forwards once (de-duplicated by origin and sequence number), so
        a message reaches its destination whenever a directed path of correct
        channels exists.
        """
        self._relay_enabled = True

    def send(self, receiver: ProcessId, message: Any) -> None:
        """Send ``message`` to ``receiver`` over the (possibly faulty) channel."""
        if self.crashed:
            return
        if self._relay_enabled and self.network.has_process(receiver):
            self._relay_originate(receiver, message)
        else:
            # Also what rejects an unknown receiver, relaying or not.
            self.network.send(self.pid, receiver, message)

    def broadcast(self, message: Any, include_self: bool = True) -> None:
        """Send ``message`` to every process in the system."""
        if self.crashed:
            return
        if self._relay_enabled:
            self._relay_originate(None, message, include_self=include_self)
        else:
            self.network.broadcast(self.pid, message, include_self=include_self)

    def _relay_originate(
        self, destination: Optional[ProcessId], message: Any, include_self: bool = True
    ) -> None:
        self._relay_seq += 1
        envelope = RelayEnvelope(self.pid, self._relay_seq, destination, message)
        self._relay_handle(envelope, deliver_to_self=include_self or destination == self.pid)

    def _relay_handle(self, envelope: "RelayEnvelope", deliver_to_self: bool = True) -> bool:
        """Forward a first-seen envelope; returns whether :meth:`on_message` ran."""
        self._relay_due[envelope.key] = _SEEN
        # Forward to every other process; the network drops the copies sent
        # over disconnected channels and queues none that cannot arrive first.
        self.network.broadcast(self.pid, envelope, include_self=False, seen_key=envelope.key)
        targeted_here = envelope.destination is None or envelope.destination == self.pid
        if targeted_here and deliver_to_self:
            self.on_message(envelope.origin, envelope.payload)
            return True
        return False

    def deliver(self, sender: ProcessId, message: Any) -> None:
        """Entry point used by the network to hand a message to this process.

        A duplicate relay envelope is recognised first: the network queues a
        copy only while it can still arrive first, so a duplicate left here
        was overtaken in flight by a copy sent later.
        Wait probes are re-evaluated only when the delivery ran protocol code:
        a duplicate envelope, or one merely passed on towards another
        destination, changes nothing a probe may read and wakes nothing.
        """
        if self.crashed:
            return
        if isinstance(message, RelayEnvelope):
            if self._relay_enabled:
                if self._relay_due.get(message.key) == _SEEN or not self._relay_handle(message):
                    return
            elif message.destination is None or message.destination == self.pid:
                # A non-relaying process still understands envelopes but does
                # not forward them.
                self.on_message(message.origin, message.payload)
            else:
                return
        else:
            self.on_message(sender, message)
        if self._waits:
            self._check_waits()

    def on_message(self, sender: ProcessId, message: Any) -> None:
        """Handle a delivered message.  Subclasses override this."""

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def set_timer(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` simulated time units (unless crashed)."""

        def fire() -> None:
            self._timers.pop(event, None)
            if self.crashed:
                return
            callback()
            self._check_waits()

        event = self.network.scheduler.schedule(delay, fire)
        self._timers[event] = None
        if len(self._timers) >= self._timer_prune_at:
            # Fired timers removed themselves, so any dead weight left in the
            # structure is cancelled-but-unfired timers; drop them and back off
            # the threshold so pruning stays amortized O(1) per set_timer.
            self._timers = {e: None for e in self._timers if not e.cancelled}
            self._timer_prune_at = max(8, 2 * len(self._timers))
        return event

    def set_periodic(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` every ``interval`` time units until the process crashes."""
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")

        def fire() -> None:
            if self.crashed:
                return
            callback()
            self._check_waits()
            self.set_timer(interval, fire)

        self.set_timer(interval, fire)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.now

    # ------------------------------------------------------------------ #
    # Generator-based operations
    # ------------------------------------------------------------------ #
    def wait_for(self, probe: Callable[[], Any], description: str = "") -> WaitCondition:
        """Build a wait condition from a probe returning ``NOT_READY`` or a value."""
        return WaitCondition(probe, description)

    def wait_until(self, predicate: Callable[[], bool], description: str = "") -> WaitCondition:
        """Build a wait condition from a boolean predicate (result is ``None``)."""

        def probe() -> Any:
            return None if predicate() else _NOT_READY

        return WaitCondition(probe, description)

    def start_operation(
        self, kind: str, argument: Any, generator: OperationGenerator
    ) -> OperationHandle:
        """Start a generator-based operation and return its handle."""
        if self.crashed:
            raise ProcessCrashedError(
                "operation {!r} invoked on crashed process {!r}".format(kind, self.pid)
            )
        handle = OperationHandle(
            self.pid, kind, argument, self.now, op_id=self.network.next_op_id()
        )
        self._advance(generator, handle, None)
        self._check_waits()
        return handle

    def _advance(self, generator: OperationGenerator, handle: OperationHandle, value: Any) -> None:
        try:
            condition = generator.send(value)
        except StopIteration as stop:
            handle.complete(stop.value, self.now)
            return
        if not isinstance(condition, WaitCondition):
            raise SimulationError(
                "operation generators must yield WaitCondition objects, got {!r}".format(condition)
            )
        self._waits.append((condition, generator, handle))

    def _check_waits(self) -> None:
        """Resume every suspended operation whose wait condition is now satisfiable."""
        if self.crashed:
            return
        progressed = True
        while progressed and not self.crashed:
            progressed = False
            for entry in list(self._waits):
                condition, generator, handle = entry
                ready, value = condition.poll()
                if not ready:
                    continue
                try:
                    self._waits.remove(entry)
                except ValueError:  # pragma: no cover - removed by a nested resume
                    continue
                self._advance(generator, handle, value)
                progressed = True

    def __repr__(self) -> str:
        return "{}(pid={!r}{})".format(
            type(self).__name__, self.pid, ", crashed" if self.crashed else ""
        )


# Re-export the sentinel under a public name for protocol implementations.
NOT_READY = _NOT_READY
