#!/usr/bin/env python3
"""A replicated key-value store that keeps serving across an asymmetric partition.

This is the "application developer" view of the paper: you describe the
failures your deployment must survive, the library tells you whether that is
possible at all (GQS existence), and if so the replicated store built on the
generalized quorum access functions keeps serving — with per-key
linearizability — at every process of the termination component ``U_f``.

Run with:  python examples/replicated_kv_store.py
"""

from __future__ import annotations

import functools

from repro.analysis import figure1_fail_prone_system
from repro.protocols import ReplicatedKVStore
from repro.quorums import find_gqs
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes


def main() -> None:
    system = figure1_fail_prone_system()
    gqs = find_gqs(system)
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
    cluster.apply_failure_pattern(f1)
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
