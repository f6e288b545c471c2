"""A replicated key-value store built on the generalized quorum access functions.

This is the "downstream application" of the paper's machinery: each key behaves
as an independent MWMR atomic register (Figure 4 applied per key), all keys
share one set of replicas, one quorum system and one logical-clock instance.
The store therefore inherits the paper's guarantees: per-key linearizability,
and wait-freedom at every process in ``U_f`` for the failure pattern in force.

Operations:

* ``put(key, value)`` — write a value under ``key``;
* ``get(key)`` — read the latest value of ``key`` (``None`` if never written);
* ``keys()`` — read the set of keys present in the store (a snapshot-style
  read over the whole map; linearizable for the same reason reads are:
  the result is written back before returning).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..sim.network import Network
from ..sim.process import OperationHandle
from ..types import ProcessId, sorted_processes
from .quorum_access import AnyQuorumSystem, GeneralizedQuorumAccessProcess
from .register import Version

KVState = Dict[str, Tuple[Any, Version]]
"""Replicated state: ``key -> (value, version)`` with Figure 4 versions per key."""


def _put_update(key: str, value: Any, version: Version):
    """Update function storing ``value`` under ``key`` if ``version`` is newer."""

    def update(state: KVState) -> KVState:
        current = state.get(key)
        if current is not None and current[1] >= version:
            return state
        new_state = dict(state)
        new_state[key] = (value, version)
        return new_state

    return update


def _merge_update(observed: KVState):
    """Write-back update merging an observed map per key by version."""

    def update(state: KVState) -> KVState:
        new_state = dict(state)
        changed = False
        for key, (value, version) in observed.items():
            current = new_state.get(key)
            if current is None or version > current[1]:
                new_state[key] = (value, version)
                changed = True
        return new_state if changed else state

    return update


def merge_kv_states(states) -> KVState:
    """Per-key, highest-version merge of a collection of replica states."""
    merged: KVState = {}
    for state in states:
        for key, (value, version) in state.items():
            current = merged.get(key)
            if current is None or version > current[1]:
                merged[key] = (value, version)
    return merged


class ReplicatedKVStore(GeneralizedQuorumAccessProcess):
    """A per-key-linearizable replicated map over a generalized quorum system."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        push_interval: float = 1.0,
        relay: bool = True,
    ) -> None:
        super().__init__(
            pid,
            network,
            quorum_system,
            initial_state={},
            push_interval=push_interval,
            relay=relay,
        )
        self.writer_rank = sorted_processes(quorum_system.processes).index(pid) + 1

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #
    def put(self, key: str, value: Any) -> OperationHandle:
        """Store ``value`` under ``key``; resolves to ``"ack"``."""
        return self.start_operation("put", (key, value), self._put_gen(key, value))

    def get(self, key: str) -> OperationHandle:
        """Read the latest value of ``key``; resolves to the value or ``None``."""
        return self.start_operation("get", key, self._get_gen(key))

    def keys(self) -> OperationHandle:
        """Read the set of keys currently present; resolves to a sorted list."""
        return self.start_operation("keys", None, self._keys_gen())

    # ------------------------------------------------------------------ #
    # Operation generators (per-key Figure 4)
    # ------------------------------------------------------------------ #
    def _put_gen(self, key: str, value: Any) -> Generator:
        states: Dict[ProcessId, KVState] = yield from self._quorum_get()
        merged = merge_kv_states(states.values())
        current = merged.get(key)
        highest = current[1] if current is not None else (0, 0)
        version: Version = (highest[0] + 1, self.writer_rank)
        yield from self._quorum_set(_put_update(key, value, version))
        return "ack"

    def _get_gen(self, key: str) -> Generator:
        states: Dict[ProcessId, KVState] = yield from self._quorum_get()
        merged = merge_kv_states(states.values())
        entry = merged.get(key)
        # Write the freshest observed map back so later operations see it.
        yield from self._quorum_set(_merge_update(merged))
        return entry[0] if entry is not None else None

    def _keys_gen(self) -> Generator:
        states: Dict[ProcessId, KVState] = yield from self._quorum_get()
        merged = merge_kv_states(states.values())
        yield from self._quorum_set(_merge_update(merged))
        return sorted(merged)
