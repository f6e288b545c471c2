#!/usr/bin/env python3
"""Geo-replication under asymmetric WAN partitions.

The network-partition study cited by the paper ([8], Alquraan et al., OSDI'18)
reports that many production incidents involve *partial* and *asymmetric*
partitions: traffic flows from site A to site B but not back.  This example
models a three-site deployment (two replicas per site) where any single
directed site-to-site link can fail, asks whether the resulting fail-prone
system admits a generalized quorum system, and runs the register and consensus
protocols under one of the asymmetric partitions.

Run with:  python examples/geo_replication.py
"""

from __future__ import annotations

from repro.checkers import check_consensus, check_register_linearizability
from repro.experiments import run_workload
from repro.failures import geo_replicated_system
from repro.quorums import discover_gqs, strong_system_exists
from repro.types import sorted_processes


def main() -> None:
    system = geo_replicated_system(sites=3, replicas_per_site=2)
    print("Deployment: 3 sites x 2 replicas =", sorted_processes(system.processes))
    print("Failure patterns: one per directed site-to-site WAN link ({} patterns)".format(
        len(system)))
    print()

    result = discover_gqs(system)
    print("Admits a strongly connected quorum system (QS+):", strong_system_exists(system))
    print("Admits a generalized quorum system (GQS)       :", result.exists)
    if not result.exists:
        print("Nothing more to do: the failure assumptions are not tolerable.")
        return
    gqs = result.quorum_system
    print()
    print(gqs.describe())

    # Pick the asymmetric partition "site 0 cannot reach site 1".
    pattern = system.patterns[0]
    component = sorted_processes(gqs.termination_component(pattern))
    print()
    print("Under {!r} the protocols guarantee termination at U_f = {}".format(
        pattern.name, component))

    register_run = run_workload("register", gqs, pattern=pattern, ops_per_process=2, seed=2)
    register_ok = check_register_linearizability(register_run.history, initial_value=0)
    print()
    print("Register workload under the partition:")
    print("  completed    :", register_run.completed)
    print("  linearizable :", bool(register_ok))
    print("  mean latency : {:.2f}".format(register_run.metrics.mean_latency))
    print("  messages     :", register_run.metrics.messages_sent)

    consensus_run = run_workload("consensus", gqs, pattern=pattern, max_time=4_000.0, seed=2)
    consensus_ok = check_consensus(
        consensus_run.history, required_to_terminate=gqs.termination_component(pattern)
    )
    print()
    print("Consensus under the partition (partial synchrony, GST=30):")
    print("  decided value(s) :", consensus_run.extra["decided_values"])
    print("  all proposers in U_f decided:", consensus_run.completed)
    print("  agreement/validity/termination:", consensus_ok.ok)


if __name__ == "__main__":
    main()
