"""MWMR atomic registers on top of the quorum access functions (Figure 4).

The register follows the multi-writer/multi-reader variant of ABD: values are
tagged with versions ``(number, writer_rank)`` ordered lexicographically.

* ``write(x)`` — *get phase*: collect states from a read quorum and pick a
  version higher than every one observed; *set phase*: store ``(x, version)``
  at a write quorum via an update function that only overwrites older versions.
* ``read()`` — *get phase*: collect states and select the one with the largest
  version; *set phase*: write that state back so that later operations observe
  it; return its value.

The novelty is entirely inside the quorum access functions; two concrete
register classes are exposed:

* :class:`GQSRegister` — registers over a **generalized** quorum system,
  using the logical-clock access functions of Figure 3 (the paper's
  contribution);
* :class:`ClassicalABDRegister` — the classical ABD baseline over a classical
  quorum system, using the request/response access functions of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Tuple

from ..sim.network import Network
from ..sim.process import OperationHandle
from ..types import ProcessId, sorted_processes
from .quorum_access import (
    AnyQuorumSystem,
    ClassicalQuorumAccessProcess,
    GeneralizedQuorumAccessProcess,
)

Version = Tuple[int, int]


@dataclass(frozen=True)
class RegisterState:
    """The replicated register state: the latest value and its version."""

    value: Any
    version: Version

    def __repr__(self) -> str:
        return "RegisterState(value={!r}, version={})".format(self.value, self.version)


INITIAL_VERSION: Version = (0, 0)

#: The paper initialises the register to 0; the register judges read it from here.
INITIAL_VALUE = 0


def initial_register_state() -> RegisterState:
    """The initial register state: :data:`INITIAL_VALUE` at :data:`INITIAL_VERSION`."""
    return RegisterState(INITIAL_VALUE, INITIAL_VERSION)


def _store_update(value: Any, version: Version):
    """Update function of the write set-phase (Figure 4, line 6)."""

    def update(state: RegisterState) -> RegisterState:
        if version > state.version:
            return RegisterState(value, version)
        return state

    return update


def _writeback_update(observed: RegisterState):
    """Update function of the read set-phase (Figure 4, line 11)."""

    def update(state: RegisterState) -> RegisterState:
        if observed.version > state.version:
            return observed
        return state

    return update


class RegisterLogic:
    """The register operations of Figure 4, independent of the access functions.

    Mixed into a concrete :class:`QuorumAccessProcess` subclass; relies on
    ``self._quorum_get`` / ``self._quorum_set`` generator subroutines and
    ``self.writer_rank`` (a unique integer per process used to break version
    ties).
    """

    writer_rank: int

    # -- public operations -------------------------------------------------- #
    def write(self, value: Any) -> OperationHandle:
        """Invoke ``write(value)``; returns an operation handle resolving to ``"ack"``."""
        return self.start_operation("write", value, self._write_gen(value))

    def read(self) -> OperationHandle:
        """Invoke ``read()``; returns an operation handle resolving to the value read."""
        return self.start_operation("read", None, self._read_gen())

    # -- operation generators ------------------------------------------------ #
    def _write_gen(self, value: Any) -> Generator:
        states: Dict[ProcessId, RegisterState] = yield from self._quorum_get()
        highest = max(state.version for state in states.values())
        version: Version = (highest[0] + 1, self.writer_rank)
        yield from self._quorum_set(_store_update(value, version))
        return "ack"

    def _read_gen(self) -> Generator:
        states: Dict[ProcessId, RegisterState] = yield from self._quorum_get()
        freshest = max(states.values(), key=lambda state: state.version)
        yield from self._quorum_set(_writeback_update(freshest))
        return freshest.value


def _writer_rank(pid: ProcessId, quorum_system: AnyQuorumSystem) -> int:
    """A unique, deterministic integer rank for ``pid`` within the process set."""
    ordered = sorted_processes(quorum_system.processes)
    return ordered.index(pid) + 1


class GQSRegister(RegisterLogic, GeneralizedQuorumAccessProcess):
    """An MWMR atomic register over a generalized quorum system (the paper's protocol)."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        push_interval: float = 1.0,
        relay: bool = True,
    ) -> None:
        GeneralizedQuorumAccessProcess.__init__(
            self,
            pid,
            network,
            quorum_system,
            initial_state=initial_register_state(),
            push_interval=push_interval,
            relay=relay,
        )
        self.writer_rank = _writer_rank(pid, quorum_system)


class ClassicalABDRegister(RegisterLogic, ClassicalQuorumAccessProcess):
    """The classical ABD register over a classical quorum system (baseline)."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
    ) -> None:
        ClassicalQuorumAccessProcess.__init__(
            self, pid, network, quorum_system, initial_state=initial_register_state()
        )
        self.writer_rank = _writer_rank(pid, quorum_system)
