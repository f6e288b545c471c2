"""Partially synchronous consensus over a generalized quorum system (Figure 6, §7).

The protocol is Paxos-like but adapted to the weak connectivity of a GQS:

* views are synchronized purely through growing timeouts — every process spends
  ``view · C`` time units in view ``view``, so all correct processes eventually
  overlap in every sufficiently large view for an arbitrarily long time
  (Proposition 2);
* there is no explicit 1A message: upon entering a view every process pushes a
  ``1B`` message carrying its last accepted value to the view's leader (leaders
  rotate round-robin), so the leader can assemble a read quorum even though it
  cannot contact read-quorum members with requests;
* the leader proposes with a ``2A``; acceptors accept with a broadcast ``2B``;
  a process decides when it has matching ``2B`` messages from every member of
  some write quorum for its current view.

Wait-freedom holds at every process in the termination component ``U_f`` once
the network stabilizes (Theorem 5).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..sim.network import Network
from ..sim.process import OperationHandle, Process
from ..types import ProcessId, ProcessSet, sorted_processes
from .messages import OneB, TwoA, TwoB
from .quorum_access import AnyQuorumSystem

BOTTOM = None
"""The ``⊥`` placeholder of the pseudocode."""

PHASE_ENTER = "enter"
PHASE_PROPOSE = "propose"
PHASE_ACCEPT = "accept"
PHASE_DECIDE = "decide"


class ConsensusProcess(Process):
    """One participant of the Figure 6 consensus protocol.

    Parameters
    ----------
    quorum_system:
        The (generalized) quorum system providing the read quorums used by the
        leader's phase 1 and the write quorums used for deciding.
    view_duration:
        The constant ``C``: a process stays in view ``v`` for ``v · C`` time
        units, so view durations grow without bound.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        view_duration: float = 5.0,
    ) -> None:
        super().__init__(pid, network)
        # Simulate the transitive-connectivity assumption of §7.
        self.enable_relay()
        self.quorum_system = quorum_system
        self.read_quorums: Tuple[ProcessSet, ...] = tuple(quorum_system.read_quorums)
        self.write_quorums: Tuple[ProcessSet, ...] = tuple(quorum_system.write_quorums)
        self.ordered_processes: List[ProcessId] = sorted_processes(quorum_system.processes)
        self.view_duration = view_duration

        # Figure 6, lines 1-3.
        self.view = 0
        self.aview = 0
        self.val: Any = BOTTOM
        self.my_val: Any = BOTTOM
        self.phase = PHASE_ENTER

        # Message buffers, keyed by view.
        self._oneb: Dict[int, Dict[ProcessId, Tuple[int, Any]]] = {}
        self._twoa: Dict[int, Any] = {}
        self._twob: Dict[int, Dict[ProcessId, Any]] = {}

        self.decided_value: Any = BOTTOM
        self.decided_view: Optional[int] = None

    # ------------------------------------------------------------------ #
    # View synchronizer (Figure 6, lines 27-31)
    # ------------------------------------------------------------------ #
    def leader(self, view: int) -> ProcessId:
        """The round-robin leader of ``view``."""
        n = len(self.ordered_processes)
        return self.ordered_processes[(view - 1) % n]

    def on_start(self) -> None:
        self._advance_view()

    def _advance_view(self) -> None:
        self.view += 1
        self.set_timer(self.view * self.view_duration, self._advance_view)
        self.send(self.leader(self.view), OneB(self.view, self.aview, self.val))
        self.phase = PHASE_ENTER
        # Messages for this view may already have been buffered.
        self._try_propose()
        self._try_accept()
        self._try_decide()

    # ------------------------------------------------------------------ #
    # Client interface (Figure 6, lines 4-7)
    # ------------------------------------------------------------------ #
    def propose(self, value: Any) -> OperationHandle:
        """Propose ``value``; resolves to the decided value."""
        return self.start_operation("propose", value, self._propose_gen(value))

    def _propose_gen(self, value: Any) -> Generator:
        if self.my_val is BOTTOM:
            self.my_val = value
        # The leader may already hold a read quorum of 1B messages with no
        # accepted value; now that it has an input it can propose.
        self._try_propose()
        yield self.wait_until(lambda: self.phase == PHASE_DECIDE, "decision reached")
        return self.val

    @property
    def has_decided(self) -> bool:
        """Whether this process has reached a decision in some view."""
        return self.decided_view is not None

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: ProcessId, message: Any) -> None:
        if isinstance(message, OneB):
            if message.view >= self.view:
                self._oneb.setdefault(message.view, {})[sender] = (message.aview, message.val)
            self._try_propose()
        elif isinstance(message, TwoA):
            if message.view >= self.view and message.view not in self._twoa:
                self._twoa[message.view] = message.value
            self._try_accept()
            self._try_decide()
        elif isinstance(message, TwoB):
            if message.view >= self.view:
                self._twob.setdefault(message.view, {})[sender] = message.value
            self._try_decide()

    # -- leader: propose for the current view (Figure 6, lines 8-16) -------- #
    def _try_propose(self) -> None:
        if self.phase != PHASE_ENTER:
            return
        if self.leader(self.view) != self.pid:
            return
        responses = self._oneb.get(self.view, {})
        quorum = self._covered_read_quorum(responses)
        if quorum is None:
            return
        accepted = [
            (aview, val) for (aview, val) in (responses[p] for p in quorum) if val is not BOTTOM
        ]
        if not accepted:
            if self.my_val is BOTTOM:
                return
            proposal = self.my_val
        else:
            proposal = max(accepted, key=lambda entry: entry[0])[1]
        self.broadcast(TwoA(self.view, proposal))
        self.phase = PHASE_PROPOSE

    def _covered_read_quorum(self, responses: Dict[ProcessId, Any]) -> Optional[ProcessSet]:
        for quorum in self.read_quorums:
            if all(member in responses for member in quorum):
                return quorum
        return None

    # -- acceptor: accept the leader's proposal (Figure 6, lines 17-22) ------ #
    def _try_accept(self) -> None:
        if self.phase not in (PHASE_ENTER, PHASE_PROPOSE):
            return
        if self.view not in self._twoa:
            return
        value = self._twoa[self.view]
        self.val = value
        self.aview = self.view
        self.broadcast(TwoB(self.view, value))
        self.phase = PHASE_ACCEPT

    # -- decision (Figure 6, lines 23-26) ------------------------------------ #
    def _try_decide(self) -> None:
        if self.phase == PHASE_DECIDE:
            return
        responses = self._twob.get(self.view, {})
        if not responses:
            return
        for quorum in self.write_quorums:
            if not all(member in responses for member in quorum):
                continue
            values = {responses[member] for member in quorum}
            if len(values) == 1:
                value = next(iter(values))
                self.val = value
                self.aview = self.view
                self.phase = PHASE_DECIDE
                self.decided_value = value
                if self.decided_view is None:
                    self.decided_view = self.view
                return
