"""High-level orchestration of protocol simulations.

A :class:`Cluster` bundles a network, one protocol process per process
identifier and the bookkeeping needed by experiments:

* building the processes from a factory;
* injecting a failure pattern (at time 0 or later);
* invoking object operations on chosen processes and collecting their
  :class:`OperationHandle` results;
* running the scheduler until the interesting operations complete (or a
  liveness horizon passes);
* exporting the resulting :class:`~repro.history.History` and message
  statistics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import OperationTimeoutError, SimulationError
from ..failures import FailurePattern
from ..history import History
from ..types import ProcessId
from .delays import DelayModel, UniformDelay
from .events import EventScheduler
from .network import Network
from .process import OperationHandle, Process

ProcessFactory = Callable[[ProcessId, Network], Process]


class Cluster:
    """A set of protocol processes running on one simulated network.

    Parameters
    ----------
    process_ids:
        The process identifiers (the paper's ``P``).
    factory:
        Callable building the protocol process for a given id and network.
    delay_model:
        Message delay model; defaults to a seeded :class:`UniformDelay`.
    """

    def __init__(
        self,
        process_ids: Iterable[ProcessId],
        factory: ProcessFactory,
        delay_model: Optional[DelayModel] = None,
    ) -> None:
        self.process_ids: List[ProcessId] = list(process_ids)
        if not self.process_ids:
            raise SimulationError("a cluster needs at least one process")
        self.network = Network(
            delay_model=delay_model if delay_model is not None else UniformDelay(seed=0),
            scheduler=EventScheduler(),
        )
        self.processes: Dict[ProcessId, Process] = {
            pid: factory(pid, self.network) for pid in self.process_ids
        }
        self.handles: List[OperationHandle] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Invoke every process's start-up hook (idempotent)."""
        if self._started:
            return
        self._started = True
        for process in self.processes.values():
            process.start()

    def apply_failure_pattern(
        self, pattern: FailurePattern, at_time: Optional[float] = None
    ) -> None:
        """Inject a failure pattern into the network (see :meth:`Network.apply_failure_pattern`)."""
        self.network.apply_failure_pattern(pattern, at_time=at_time)

    # ------------------------------------------------------------------ #
    # Operation invocation
    # ------------------------------------------------------------------ #
    def invoke(self, pid: ProcessId, method: str, *args: Any, **kwargs: Any) -> OperationHandle:
        """Invoke ``method`` on process ``pid`` and track the returned handle.

        The protocol method must return an :class:`OperationHandle` (all
        protocol classes in :mod:`repro.protocols` follow this convention).
        """
        self.start()
        process = self.processes[pid]
        handle = getattr(process, method)(*args, **kwargs)
        if not isinstance(handle, OperationHandle):
            raise SimulationError(
                "protocol method {}.{} did not return an OperationHandle".format(
                    type(process).__name__, method
                )
            )
        self.handles.append(handle)
        return handle

    def invoke_at(
        self, time: float, pid: ProcessId, method: str, *args: Any, **kwargs: Any
    ) -> "DeferredInvocation":
        """Schedule an invocation for simulated time ``time``; returns a deferred handle.

        If the process crashed before the scheduled time the invocation never
        fires: the deferred records ``crashed=True`` and ``done`` stays False
        (a client cannot start an operation at a dead process), instead of a
        :class:`~repro.errors.ProcessCrashedError` escaping the scheduler
        callback and aborting the whole simulation mid-``run()``.
        """
        self.start()
        deferred = DeferredInvocation(pid, method, args, kwargs)

        def fire() -> None:
            if self.network.is_crashed(pid):
                deferred.crashed = True
                return
            handle = self.invoke(pid, method, *args, **kwargs)
            deferred.resolve(handle)

        self.network.scheduler.schedule_at(time, fire)
        return deferred

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_time: float = 1_000.0,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the simulation until ``max_time``, ``max_events`` or ``stop_when()``."""
        self.start()
        self.network.run(max_time=max_time, max_events=max_events, stop_when=stop_when)

    def run_until_done(
        self,
        handles: Optional[Sequence[OperationHandle]] = None,
        max_time: float = 10_000.0,
        require_completion: bool = False,
    ) -> bool:
        """Run until every handle completes, or until ``max_time``.

        Returns whether all the tracked handles completed.  When
        ``require_completion`` is true an :class:`OperationTimeoutError` is
        raised if they did not.
        """
        self.start()
        watched: Sequence[OperationHandle] = handles if handles is not None else self.handles
        # Completion is counted through OperationHandle.on_complete instead of
        # rescanning every handle after every event (O(events x ops) for the
        # rescan; already-done handles bump the counter immediately).
        completions = [0]

        def _count(_handle: OperationHandle) -> None:
            completions[0] += 1

        for handle in watched:
            handle.on_complete(_count)
        target = len(watched)
        self.network.run(max_time=max_time, stop_when=lambda: completions[0] >= target)
        done = all(h.done for h in watched)
        if require_completion and not done:
            pending = [h for h in watched if not h.done]
            raise OperationTimeoutError(
                "{} operation(s) did not complete by simulated time {}: {}".format(
                    len(pending), max_time, pending[:5]
                )
            )
        return done

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def history(self, handles: Optional[Sequence[OperationHandle]] = None) -> History:
        """The operation history of the tracked (or supplied) handles."""
        return History.from_handles(handles if handles is not None else self.handles)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.now

    def messages_sent(self) -> int:
        """Total messages sent on the network so far."""
        return self.network.stats.messages_sent

    def messages_delivered(self) -> int:
        """Total messages delivered so far."""
        return self.network.stats.messages_delivered


class DeferredInvocation:
    """Handle for an invocation scheduled in the future via :meth:`Cluster.invoke_at`."""

    def __init__(self, pid: ProcessId, method: str, args: tuple, kwargs: dict) -> None:
        self.pid = pid
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.handle: Optional[OperationHandle] = None
        self.crashed = False
        self._resolve_callbacks: List[Callable[[OperationHandle], None]] = []

    def resolve(self, handle: OperationHandle) -> None:
        """Attach the real operation handle once the invocation fires."""
        self.handle = handle
        for callback in self._resolve_callbacks:
            callback(handle)
        self._resolve_callbacks.clear()

    def on_resolve(self, callback: Callable[[OperationHandle], None]) -> None:
        """Run ``callback(handle)`` when the invocation fires (immediately if it has)."""
        if self.handle is not None:
            callback(self.handle)
        else:
            self._resolve_callbacks.append(callback)

    @property
    def done(self) -> bool:
        """Whether the invocation has fired and the operation completed."""
        return self.handle is not None and self.handle.done

    @property
    def result(self) -> Any:
        """The operation result (``None`` until completion)."""
        return self.handle.result if self.handle is not None else None
