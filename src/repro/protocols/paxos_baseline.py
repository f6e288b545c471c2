"""Classical single-decree Paxos baseline with request/response quorum access.

This baseline represents the *traditional* way of using quorums: the proposer
explicitly contacts its phase-1 and phase-2 quorums and waits for responses.
That access pattern requires bidirectional connectivity between the proposer
and the quorum members, which a generalized quorum system does not guarantee —
so under the paper's failure patterns (e.g. Figure 1) this protocol can fail to
terminate while the Figure 6 protocol decides.  It is used by the consensus
experiments (E5) as the "who wins" comparison point.

The implementation is standard single-decree Paxos with retry on timeout and
exponentially growing ballots/timeouts; majorities serve as both the phase-1
and the phase-2 quorums.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from ..sim.network import Network
from ..sim.process import NOT_READY, OperationHandle, Process
from ..types import ProcessId, ProcessSet, sorted_processes
from .messages import Accept, Accepted, Decided, Prepare, Promise

_TIMEOUT = object()
"""Sentinel produced by a wait probe when the retry timer fires first."""


def majority_quorums(process_ids: Sequence[ProcessId]) -> Tuple[ProcessSet, ...]:
    """All majorities of ``process_ids`` (used as both phase-1 and phase-2 quorums)."""
    ordered = sorted_processes(set(process_ids))
    size = len(ordered) // 2 + 1
    return tuple(frozenset(c) for c in itertools.combinations(ordered, size))


class PaxosBaselineProcess(Process):
    """A proposer/acceptor/learner of classical single-decree Paxos."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        process_ids: Sequence[ProcessId],
        retry_timeout: float = 20.0,
    ) -> None:
        super().__init__(pid, network)
        # Give the baseline the same transitive connectivity as the GQS
        # protocols so that the comparison isolates the quorum-access
        # structure, not message routing.
        self.enable_relay()
        self.process_ids = sorted_processes(set(process_ids))
        self.read_quorums = self.write_quorums = majority_quorums(self.process_ids)
        self.retry_timeout = retry_timeout
        self._rank = self.process_ids.index(pid) + 1

        # Acceptor state.
        self.promised_ballot: Tuple[int, int] = (0, 0)
        self.accepted_ballot: Optional[Tuple[int, int]] = None
        self.accepted_value: Any = None

        # Learner state.
        self.decided_value: Any = None
        self.has_decided = False

        # Proposer bookkeeping.
        self._round = 0
        self._promises: Dict[Tuple[int, int], Dict[ProcessId, Promise]] = {}
        self._accepts: Dict[Tuple[int, int], Dict[ProcessId, bool]] = {}
        self.retries = 0

    # ------------------------------------------------------------------ #
    # Acceptor / learner message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: ProcessId, message: Any) -> None:
        if isinstance(message, Prepare):
            if message.ballot >= self.promised_ballot:
                self.promised_ballot = message.ballot
                self.send(
                    sender,
                    Promise(message.ballot, self.accepted_ballot, self.accepted_value),
                )
        elif isinstance(message, Accept):
            if message.ballot >= self.promised_ballot:
                self.promised_ballot = message.ballot
                self.accepted_ballot = message.ballot
                self.accepted_value = message.value
                self.send(sender, Accepted(message.ballot))
        elif isinstance(message, Promise):
            self._promises.setdefault(message.ballot, {})[sender] = message
        elif isinstance(message, Accepted):
            self._accepts.setdefault(message.ballot, {})[sender] = True
        elif isinstance(message, Decided):
            self.decided_value = message.value
            self.has_decided = True

    # ------------------------------------------------------------------ #
    # Proposer
    # ------------------------------------------------------------------ #
    def propose(self, value: Any) -> OperationHandle:
        """Propose ``value``; resolves to the decided value (if the run terminates)."""
        return self.start_operation("propose", value, self._propose_gen(value))

    def _covered(
        self, quorums: Sequence[ProcessSet], responses: Dict[ProcessId, Any]
    ) -> Optional[Dict[ProcessId, Any]]:
        for quorum in quorums:
            if all(member in responses for member in quorum):
                return {member: responses[member] for member in quorum}
        return None

    def _wait_with_timeout(self, probe, timeout: float):
        """Build a wait condition that also completes (with ``_TIMEOUT``) after ``timeout``."""
        expired = {"value": False}
        self.set_timer(timeout, lambda: expired.__setitem__("value", True))

        def combined() -> Any:
            result = probe()
            if result is not NOT_READY:
                return result
            if expired["value"]:
                return _TIMEOUT
            return NOT_READY

        return self.wait_for(combined, "quorum responses or retry timeout")

    def _propose_gen(self, value: Any) -> Generator:
        while not self.has_decided:
            self._round += 1
            ballot = (self._round, self._rank)
            timeout = self.retry_timeout * self._round

            # Phase 1: request/response with a read (phase-1) quorum.
            self._promises.setdefault(ballot, {})
            self.broadcast(Prepare(ballot))
            promises = yield self._wait_with_timeout(
                lambda: self._first_or_not_ready(self.read_quorums, self._promises[ballot]),
                timeout,
            )
            if promises is _TIMEOUT or self.has_decided:
                self.retries += 1
                continue

            accepted = [
                p for p in promises.values() if p.accepted_ballot is not None
            ]
            proposal = value
            if accepted:
                proposal = max(accepted, key=lambda p: p.accepted_ballot).accepted_value

            # Phase 2: request/response with a write (phase-2) quorum.
            self._accepts.setdefault(ballot, {})
            self.broadcast(Accept(ballot, proposal))
            acks = yield self._wait_with_timeout(
                lambda: self._first_or_not_ready(self.write_quorums, self._accepts[ballot]),
                timeout,
            )
            if acks is _TIMEOUT or self.has_decided:
                self.retries += 1
                continue

            self.decided_value = proposal
            self.has_decided = True
            self.broadcast(Decided(proposal))
        return self.decided_value

    def _first_or_not_ready(self, quorums, responses):
        covered = self._covered(quorums, responses)
        return covered if covered is not None else NOT_READY
