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

Messages reach a process through the network's one delivery callback,
which runs :meth:`Process.on_message` and then re-polls the suspended
operations' probes.  A relaying process (:meth:`Process.enable_relay`) has
every :class:`RelayEnvelope` it originates or receives handed to the one
forwarder, :meth:`repro.sim.Network.relay`, which also tells a duplicate from
a first.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import ProcessCrashedError, SimulationError
from ..types import ProcessId
from .events import Event
from .network import Network, RelayEnvelope

_NOT_READY = object()
"""Sentinel returned by wait-condition probes that are not yet satisfiable."""


class WaitCondition:
    """A resumable wait: ``probe`` returns ``_NOT_READY`` until it can produce a value."""

    __slots__ = ("probe", "description")

    def __init__(self, probe: Callable[[], Any], description: str = "") -> None:
        self.probe = probe
        self.description = description

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
        # Suspended operations as (probe, generator, handle), in suspension order.
        self._waits: List[Tuple[Callable[[], Any], OperationGenerator, OperationHandle]] = []
        # Live timers as an insertion-ordered set (dict keys): fired timers
        # remove themselves, so the structure stays bounded by the number of
        # *armed* timers even under long periodic runs; cancelled-but-unfired
        # entries are pruned in amortized O(1) by set_timer.
        self._timers: Dict[Event, None] = {}
        self._timer_prune_at = 8
        self._started = False
        self._relay_enabled = False
        self._relay_seq = 0
        # Relay key -> earliest arrival of a copy queued here, or -1.0 once
        # seen (see Network.relay); written only while relaying is enabled.
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
        self.network.relay(self, RelayEnvelope(self.pid, self._relay_seq, destination, message))
        if destination == self.pid or (destination is None and include_self):
            self.on_message(self.pid, message)

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
        return self.network.scheduler.now

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

        return self.wait_for(probe, description)

    def start_operation(
        self, kind: str, argument: Any, generator: OperationGenerator
    ) -> OperationHandle:
        """Start a generator-based operation and return its handle."""
        if self.crashed:
            raise ProcessCrashedError(
                "operation {!r} invoked on crashed process {!r}".format(kind, self.pid)
            )
        handle = OperationHandle(
            self.pid, kind, argument, self.network.scheduler.now,
            op_id=self.network.next_op_id(),
        )
        self._advance(generator, handle, None)
        self._check_waits()
        return handle

    def _advance(self, generator: OperationGenerator, handle: OperationHandle, value: Any) -> None:
        try:
            condition = generator.send(value)
        except StopIteration as stop:
            handle.complete(stop.value, self.network.scheduler.now)
            return
        if not isinstance(condition, WaitCondition):
            raise SimulationError(
                "operation generators must yield WaitCondition objects, got {!r}".format(condition)
            )
        self._waits.append((condition.probe, generator, handle))

    def _check_waits(self) -> None:
        """Resume every suspended operation whose wait condition is now satisfiable."""
        if self.crashed:
            return
        progressed = True
        while progressed and not self.crashed:
            progressed = False
            for entry in list(self._waits):
                value = entry[0]()
                if value is _NOT_READY:
                    continue
                try:
                    self._waits.remove(entry)
                except ValueError:  # pragma: no cover - removed by a nested resume
                    continue
                self._advance(entry[1], entry[2], value)
                progressed = True

    def __repr__(self) -> str:
        return "{}(pid={!r}{})".format(
            type(self).__name__, self.pid, ", crashed" if self.crashed else ""
        )


# Re-export the sentinel under a public name for protocol implementations.
NOT_READY = _NOT_READY
