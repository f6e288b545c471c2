"""Quorum access functions (paper §5, Figures 2 and 3).

The quorum access functions are the reusable core of the paper's upper-bound
constructions.  They give a top-level protocol (e.g. the register of Figure 4)
two primitives over an opaque replicated state:

* ``quorum_get()`` — return the states of all members of some read quorum;
* ``quorum_set(u)`` — apply the update function ``u`` to the states of all
  members of some write quorum.

subject to three properties: **Validity** (returned states are the result of
applying some subset of previously submitted updates), **Real-time ordering**
(a completed ``quorum_set`` is visible to every later ``quorum_get``) and
**Liveness** (``(F, τ)``-wait-freedom).

Two implementations are provided:

* :class:`ClassicalQuorumAccessProcess` (Figure 2) — the textbook
  request/response pattern, which requires bidirectional connectivity between
  the invoking process and the quorums (sound for classical quorum systems
  without channel failures);
* :class:`GeneralizedQuorumAccessProcess` (Figure 3) — the paper's novel
  protocol for generalized quorum systems, based on logical clocks and
  unsolicited periodic state propagation, which only needs the weak
  connectivity guaranteed by a GQS.

Both are :class:`~repro.sim.process.Process` subclasses whose ``_quorum_get`` /
``_quorum_set`` methods are *generator subroutines* meant to be driven with
``yield from`` inside an operation generator of a top-level protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Sequence, Tuple, Union

from ..quorums import GeneralizedQuorumSystem, QuorumSystem
from ..sim.network import Network
from ..sim.process import NOT_READY, Process
from ..types import ProcessId, ProcessSet
from .messages import (
    ClockReq,
    ClockResp,
    GetReq,
    GetRespSeq,
    SetReq,
    SetRespAck,
    SetRespClock,
    StatePush,
)

UpdateFunction = Callable[[Any], Any]
AnyQuorumSystem = Union[QuorumSystem, GeneralizedQuorumSystem]


class QuorumAccessProcess(Process):
    """Common plumbing for both quorum-access implementations.

    Subclasses implement the generator subroutines :meth:`_quorum_get` and
    :meth:`_quorum_set`.

    Parameters
    ----------
    pid, network:
        Process identity and the simulated network.
    quorum_system:
        A classical or generalized quorum system supplying the read and write
        quorum families.
    initial_state:
        The initial opaque state of the top-level protocol (the paper's
        ``state ∈ S``).
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        initial_state: Any,
    ) -> None:
        super().__init__(pid, network)
        self.quorum_system = quorum_system
        self.read_quorums: Tuple[ProcessSet, ...] = tuple(quorum_system.read_quorums)
        self.write_quorums: Tuple[ProcessSet, ...] = tuple(quorum_system.write_quorums)
        self.state: Any = initial_state
        self.seq: int = 0

    # -- helpers ---------------------------------------------------------- #
    def _first_complete_quorum(
        self, quorums: Sequence[ProcessSet], responders: Dict[ProcessId, Any]
    ) -> Optional[Dict[ProcessId, Any]]:
        """Return the responses of the first quorum fully covered by ``responders``."""
        have = responders.keys()
        for quorum in quorums:
            if have >= quorum:
                return {member: responders[member] for member in quorum}
        return None

    @staticmethod
    def _record_response(
        table: Dict[int, Dict[ProcessId, Any]], seq: int, sender: ProcessId, value: Any
    ) -> None:
        """File a reply under its open request; a reply for a request whose
        wait already completed (or was never issued here) is ignored."""
        responses = table.get(seq)
        if responses is not None:
            responses[sender] = value

    # -- abstract generator subroutines ----------------------------------- #
    def _quorum_get(self) -> Generator:
        """Generator subroutine implementing ``quorum_get()``.

        Yields wait conditions and finally returns a ``{process_id: state}``
        mapping covering some read quorum.
        """
        raise NotImplementedError

    def _quorum_set(self, update: UpdateFunction) -> Generator:
        """Generator subroutine implementing ``quorum_set(u)``."""
        raise NotImplementedError

    # -- direct invocation (used by tests and examples) -------------------- #
    def quorum_get(self):
        """Invoke ``quorum_get()`` as a tracked operation; returns an OperationHandle."""
        return self.start_operation("quorum_get", None, self._quorum_get())

    def quorum_set(self, update: UpdateFunction):
        """Invoke ``quorum_set(u)`` as a tracked operation; returns an OperationHandle."""
        return self.start_operation("quorum_set", update, self._quorum_set(update))


class ClassicalQuorumAccessProcess(QuorumAccessProcess):
    """Quorum access functions for a classical quorum system (Figure 2).

    ``quorum_get`` broadcasts ``GET_REQ`` and waits for ``GET_RESP`` from every
    member of some read quorum; ``quorum_set`` broadcasts ``SET_REQ(u)`` and
    waits for ``SET_RESP`` from every member of some write quorum.  Correct
    only when the quorum members can be reached by explicit requests — i.e.
    under fail-prone systems without channel failures between correct
    processes.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        initial_state: Any,
    ) -> None:
        super().__init__(pid, network, quorum_system, initial_state)
        self._get_responses: Dict[int, Dict[ProcessId, Any]] = {}
        self._set_responses: Dict[int, Dict[ProcessId, bool]] = {}

    # -- message handling -------------------------------------------------- #
    def on_message(self, sender: ProcessId, message: Any) -> None:
        if isinstance(message, GetReq):
            self.send(sender, GetRespSeq(message.seq, self.state))
        elif isinstance(message, SetReq):
            self.state = message.update(self.state)
            self.send(sender, SetRespAck(message.seq))
        elif isinstance(message, GetRespSeq):
            self._record_response(self._get_responses, message.seq, sender, message.state)
        elif isinstance(message, SetRespAck):
            self._record_response(self._set_responses, message.seq, sender, True)

    # -- quorum_get (Figure 2, lines 3-7) ----------------------------------- #
    def _quorum_get(self) -> Generator:
        self.seq += 1
        seq = self.seq
        responses = self._get_responses[seq] = {}
        self.broadcast(GetReq(seq))

        def read_quorum_ready() -> Any:
            states = self._first_complete_quorum(self.read_quorums, responses)
            return states if states is not None else NOT_READY

        states = yield self.wait_for(read_quorum_ready, "GET_RESP from a read quorum")
        del self._get_responses[seq]
        return states

    # -- quorum_set (Figure 2, lines 10-13) ---------------------------------- #
    def _quorum_set(self, update: UpdateFunction) -> Generator:
        self.seq += 1
        seq = self.seq
        responses = self._set_responses[seq] = {}
        self.broadcast(SetReq(seq, update))

        def write_quorum_ready() -> Any:
            acks = self._first_complete_quorum(self.write_quorums, responses)
            return acks if acks is not None else NOT_READY

        yield self.wait_for(write_quorum_ready, "SET_RESP from a write quorum")
        del self._set_responses[seq]
        return None


class GeneralizedQuorumAccessProcess(QuorumAccessProcess):
    """Quorum access functions for a generalized quorum system (Figure 3).

    The key differences from the classical implementation:

    * every process *periodically* advances a logical clock and pushes its
      current ``(state, clock)`` downstream in an unsolicited ``GET_RESP``
      (:class:`StatePush`) — read-quorum members that cannot be reached by
      requests are still observed through these pushes;
    * handling a ``SET_REQ`` increments the clock, and the new clock value is
      returned in the ``SET_RESP``;
    * ``quorum_set`` completes only after some read quorum has reported clocks
      at least as high as the maximum clock observed in the ``SET_RESP``
      messages (``c_set``);
    * ``quorum_get`` first obtains a clock cut-off ``c_get`` from some *write*
      quorum (via ``CLOCK_REQ``/``CLOCK_RESP``) and then waits for pushes with
      clocks ``≥ c_get`` from every member of some read quorum.

    Note the inversion of the traditional quorum roles: ``quorum_set`` waits on
    a read quorum and ``quorum_get`` queries a write quorum for the cut-off.

    Parameters
    ----------
    push_interval:
        Simulated-time period of the unsolicited state propagation (Figure 3,
        line 12).  Smaller values reduce operation latency at the cost of more
        messages.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        initial_state: Any,
        push_interval: float = 1.0,
        relay: bool = True,
    ) -> None:
        super().__init__(pid, network, quorum_system, initial_state)
        if relay:
            # The paper assumes transitive connectivity (processes forward
            # every message); relaying realises that assumption.
            self.enable_relay()
        self.clock: int = 0
        self.push_interval = push_interval
        self._clock_responses: Dict[int, Dict[ProcessId, int]] = {}
        self._set_responses: Dict[int, Dict[ProcessId, int]] = {}
        # Freshest (state, clock) push received from each process.
        self._latest_push: Dict[ProcessId, Tuple[Any, int]] = {}

    # -- start-up: periodic state propagation (Figure 3, lines 12-14) ------- #
    def on_start(self) -> None:
        self.set_periodic(self.push_interval, self._push_state)
        # Push once immediately so that failure-free runs do not have to wait
        # a full period before any state is observable.
        self._push_state()

    def _push_state(self) -> None:
        self.clock += 1
        self.broadcast(StatePush(self.state, self.clock))

    # -- message handling -------------------------------------------------- #
    def on_message(self, sender: ProcessId, message: Any) -> None:
        if isinstance(message, ClockReq):
            # Figure 3, lines 10-11.
            self.send(sender, ClockResp(message.seq, self.clock))
        elif isinstance(message, SetReq):
            # Figure 3, lines 21-24.
            self.state = message.update(self.state)
            self.clock += 1
            self.send(sender, SetRespClock(message.seq, self.clock))
        elif isinstance(message, StatePush):
            previous = self._latest_push.get(sender)
            if previous is None or message.clock > previous[1]:
                self._latest_push[sender] = (message.state, message.clock)
        elif isinstance(message, ClockResp):
            self._record_response(self._clock_responses, message.seq, sender, message.clock)
        elif isinstance(message, SetRespClock):
            self._record_response(self._set_responses, message.seq, sender, message.clock)

    # -- internal wait helpers ---------------------------------------------- #
    # The probes below run at every poll of a waiting operation, so they
    # loop in place: no generator frame or throw-away dict per evaluation.
    def _write_quorum_clock_cutoff(self, responses: Dict[ProcessId, int]) -> Any:
        """The max clock over the first write quorum fully covered by ``responses``."""
        have = responses.keys()
        for quorum in self.write_quorums:
            if have >= quorum:
                return max(map(responses.__getitem__, quorum))
        return NOT_READY

    def _fresh_read_quorum(self, cutoff: int) -> Any:
        """The first read quorum whose pushes all carry clocks ``>= cutoff``."""
        latest = self._latest_push
        for quorum in self.read_quorums:
            for member in quorum:
                push = latest.get(member)
                if push is None or push[1] < cutoff:
                    break
            else:
                return quorum
        return NOT_READY

    # -- quorum_get (Figure 3, lines 3-9) ------------------------------------ #
    def _quorum_get(self) -> Generator:
        self.seq += 1
        seq = self.seq
        responses = self._clock_responses[seq] = {}
        self.broadcast(ClockReq(seq))

        cutoff = yield self.wait_for(
            lambda: self._write_quorum_clock_cutoff(responses),
            "CLOCK_RESP from a write quorum",
        )
        del self._clock_responses[seq]
        quorum = yield self.wait_for(
            lambda: self._fresh_read_quorum(cutoff),
            "fresh GET_RESP pushes from a read quorum",
        )
        return {member: self._latest_push[member][0] for member in quorum}

    # -- quorum_set (Figure 3, lines 15-20) ----------------------------------- #
    def _quorum_set(self, update: UpdateFunction) -> Generator:
        self.seq += 1
        seq = self.seq
        responses = self._set_responses[seq] = {}
        self.broadcast(SetReq(seq, update))

        c_set = yield self.wait_for(
            lambda: self._write_quorum_clock_cutoff(responses),
            "SET_RESP from a write quorum",
        )
        del self._set_responses[seq]
        yield self.wait_for(
            lambda: self._fresh_read_quorum(c_set),
            "read-quorum clocks past c_set",
        )
        return None
