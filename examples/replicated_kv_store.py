#!/usr/bin/env python3
"""A replicated key-value store that keeps serving across an asymmetric partition.

This is the "application developer" view of the paper: you describe the
failures your deployment must survive, the library tells you whether that is
possible at all (GQS existence), and if so the replicated store built on the
generalized quorum access functions keeps serving — with per-key
linearizability — at every process of the termination component ``U_f``.

The store is written here, on top of the library, as a downstream application
would write it: each key behaves as an independent MWMR atomic register
(Figure 4 applied per key), all keys share one set of replicas, one quorum
system and one logical-clock instance, so it inherits the register's
guarantees per key.  Operations:

* ``put(key, value)`` — write a value under ``key``;
* ``get(key)`` — read the latest value of ``key`` (``None`` if never written);
* ``keys()`` — read the set of keys present in the store (a snapshot-style
  read over the whole map; linearizable for the same reason reads are:
  the result is written back before returning).

Run with:  python examples/replicated_kv_store.py
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, Tuple

from repro.analysis import figure1_fail_prone_system
from repro.protocols import GeneralizedQuorumAccessProcess
from repro.protocols.quorum_access import AnyQuorumSystem
from repro.protocols.register import Version
from repro.quorums import discover_gqs
from repro.sim import Cluster, Network, OperationHandle, UniformDelay
from repro.types import ProcessId, sorted_processes

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


def main() -> None:
    system = figure1_fail_prone_system()
    gqs = discover_gqs(system).quorum_system
    print("Replicas:", sorted_processes(gqs.processes))
    print("Tolerated failure patterns:", [f.name for f in system])
    print()

    cluster = Cluster(
        sorted_processes(gqs.processes),
        functools.partial(ReplicatedKVStore, quorum_system=gqs),
        delay_model=UniformDelay(0.4, 1.6, seed=7),
    )

    # Phase 1: failure-free operation — every replica serves requests.
    print("Phase 1: no failures")
    ops = [
        cluster.invoke("a", "put", "user:1", {"name": "ada", "plan": "pro"}),
        cluster.invoke("c", "put", "user:2", {"name": "grace", "plan": "free"}),
    ]
    cluster.run_until_done(ops, max_time=500.0, require_completion=True)
    lookup = cluster.invoke("d", "get", "user:1")
    cluster.run_until_done([lookup], max_time=500.0, require_completion=True)
    print("  get(user:1) at d ->", lookup.result)

    # Phase 2: the f1 partition hits (d crashes, most channels towards c die).
    f1 = system.patterns[0]
    print()
    print("Phase 2: inject failure pattern f1 (d crashes, asymmetric partition)")
    cluster.network.apply_failure_pattern(f1)
    component = sorted_processes(gqs.termination_component(f1))
    print("  operations keep terminating at U_f1 =", component)

    ops = [
        cluster.invoke("a", "put", "user:1", {"name": "ada", "plan": "enterprise"}),
        cluster.invoke("b", "put", "user:3", {"name": "edsger", "plan": "pro"}),
    ]
    cluster.run_until_done(ops, max_time=800.0, require_completion=True)
    reads = [
        cluster.invoke("b", "get", "user:1"),
        cluster.invoke("a", "get", "user:3"),
        cluster.invoke("a", "keys"),
    ]
    cluster.run_until_done(reads, max_time=800.0, require_completion=True)
    print("  get(user:1) at b ->", reads[0].result)
    print("  get(user:3) at a ->", reads[1].result)
    print("  keys() at a      ->", reads[2].result)
    print()
    print("All operations completed under the partition; per-key reads observed")
    print("the latest completed writes — the wait-freedom and atomicity that the")
    print("generalized quorum system guarantees inside U_f.")


if __name__ == "__main__":
    main()
