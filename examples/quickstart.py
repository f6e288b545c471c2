#!/usr/bin/env python3
"""Quickstart: generalized quorum systems in five minutes.

This example walks through the library's core workflow:

1. describe which processes may crash and which channels may disconnect
   (a *fail-prone system*);
2. ask the decision procedure whether the system admits a *generalized quorum
   system* (GQS) — the paper's tight condition for implementing registers,
   snapshots, lattice agreement and consensus;
3. run the paper's register protocol on a simulated network under one of the
   failure patterns and check the resulting history for linearizability;
4. run a named scenario from the declarative catalogue (docs/scenarios.md) —
   the one-line way to do steps 1-3, executed on the parallel engine.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.checkers import check_register_linearizability
from repro.experiments import run_workload
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import discover_gqs
from repro.scenarios import run_scenario


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A fail-prone system: 3 processes, one asymmetric partition.
    #    Under pattern "partition", replica c can still send to a, but nothing
    #    can be sent *to* c; additionally b may crash in pattern "crash-b".
    # ------------------------------------------------------------------ #
    processes = ["a", "b", "c"]
    partition = FailurePattern(
        crash_prone=[],
        disconnect_prone=[("a", "c"), ("b", "c"), ("c", "b")],
        name="partition",
    )
    crash_b = FailurePattern(crash_prone=["b"], name="crash-b")
    system = FailProneSystem(processes, [partition, crash_b], name="quickstart")
    print(system.describe())
    print()

    # ------------------------------------------------------------------ #
    # 2. Does it admit a generalized quorum system?
    # ------------------------------------------------------------------ #
    result = discover_gqs(system)
    if not result.exists:
        print("No generalized quorum system exists: the failures are not tolerable.")
        return
    gqs = result.quorum_system
    print("Found a generalized quorum system:")
    print(gqs.describe())
    print()

    # ------------------------------------------------------------------ #
    # 3. Run the register protocol under the asymmetric partition.
    #    Operations are invoked inside the termination component U_f, where
    #    the paper guarantees wait-freedom.
    # ------------------------------------------------------------------ #
    run = run_workload("register", gqs, pattern=partition, ops_per_process=2, seed=1)
    verdict = check_register_linearizability(run.history, initial_value=0)
    print("register run under {!r}:".format(partition.name))
    print("  invoked at          :", run.extra["invokers"])
    print("  all operations done :", run.completed)
    print("  linearizable        :", bool(verdict))
    print("  mean latency        : {:.2f} time units".format(run.metrics.mean_latency))
    print("  messages sent       :", run.metrics.messages_sent)
    print()

    # ------------------------------------------------------------------ #
    # 4. The same workflow, declaratively: run a catalogue scenario.
    #    'geo-replication' bundles topology, failure injection, delay model,
    #    protocol and client workload into one serializable spec; the engine
    #    spawns per-run seeds deterministically, so the table below depends
    #    only on (scenario, runs, seed) — never on the job count.
    # ------------------------------------------------------------------ #
    batch = run_scenario("geo-replication", runs=2, seed=0, jobs=1)
    print(batch.run_table().to_text())
    print("  all runs completed  :", batch.all_completed)
    print("  all runs safe       :", batch.all_safe)


if __name__ == "__main__":
    main()
