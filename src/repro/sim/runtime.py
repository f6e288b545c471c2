"""High-level orchestration of protocol simulations.

A :class:`Cluster` bundles a network, one protocol process per process
identifier and the bookkeeping needed by experiments:

* building the processes from a factory;
* invoking object operations on chosen processes (now or at a simulated
  time), collecting their :class:`OperationHandle` results and counting the
  completed ones;
* running the scheduler until the interesting operations complete (or a
  liveness horizon passes);
* exporting the resulting :class:`~repro.history.History`.

Failure injection and message statistics are the :attr:`Cluster.network`'s.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import OperationTimeoutError, SimulationError
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
        #: How many of :attr:`handles` have completed.
        self.completed = 0
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

    # ------------------------------------------------------------------ #
    # Operation invocation
    # ------------------------------------------------------------------ #
    def invoke(self, pid: ProcessId, method: str, *args: Any, **kwargs: Any) -> OperationHandle:
        """Invoke ``method`` on process ``pid`` and track the returned handle.

        The protocol method must return an :class:`OperationHandle` (all
        protocol classes in :mod:`repro.protocols` follow this convention);
        its completion counts towards :attr:`completed`.
        """
        operation = self._operation(pid, method)
        self.start()
        handle = operation(*args, **kwargs)
        if not isinstance(handle, OperationHandle):
            raise SimulationError(
                "protocol method {}.{} did not return an OperationHandle".format(
                    type(self.processes[pid]).__name__, method
                )
            )
        self.handles.append(handle)
        handle.on_complete(self._count_completion)
        return handle

    def invoke_at(
        self, time: float, pid: ProcessId, method: str, *args: Any, **kwargs: Any
    ) -> None:
        """Schedule :meth:`invoke` for simulated time ``time``.

        An unknown process or method is refused here, not when the call fires.
        If the process crashed before ``time`` the call never fires: a client
        cannot start an operation at a dead process.
        """
        self._operation(pid, method)
        self.start()

        def fire() -> None:
            if not self.network.is_crashed(pid):
                self.invoke(pid, method, *args, **kwargs)

        self.network.scheduler.schedule_at(time, fire)

    def _operation(self, pid: ProcessId, method: str) -> Callable[..., Any]:
        """Process ``pid``'s bound ``method``; a :class:`SimulationError` names what is missing."""
        process = self.processes.get(pid)
        if process is None:
            raise SimulationError("the cluster has no process {!r}".format(pid))
        operation = getattr(process, method, None)
        if not callable(operation):
            raise SimulationError(
                "{} process {!r} has no operation {!r}".format(type(process).__name__, pid, method)
            )
        return operation

    def _count_completion(self, _handle: OperationHandle) -> None:
        self.completed += 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, max_time: float = 1_000.0, stop_when: Optional[Callable[[], bool]] = None
    ) -> None:
        """Run the simulation until ``max_time`` or until ``stop_when()`` holds."""
        self.start()
        self.network.run(max_time=max_time, stop_when=stop_when)

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
        watched = list(self.handles if handles is None else handles)
        finished: List[OperationHandle] = []
        for handle in watched:
            handle.on_complete(finished.append)  # a done handle is appended at once
        self.network.run(max_time=max_time, stop_when=lambda: len(finished) >= len(watched))
        if require_completion and len(finished) < len(watched):
            pending = [h for h in watched if not h.done]
            raise OperationTimeoutError(
                "{} operation(s) did not complete by simulated time {}: {}".format(
                    len(pending), max_time, pending[:5]
                )
            )
        return len(finished) == len(watched)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def history(self) -> History:
        """The operation history of every invoked operation, in invocation order."""
        return History.from_handles(self.handles)
