#!/usr/bin/env python3
"""A complete walkthrough of the paper's running example (Figure 1, Examples 1-10).

The script reproduces, end to end:

* the fail-prone system F = {f1..f4} and the quorum families R, W of Figure 1;
* the termination components U_f of Example 9;
* the fact that the modified system F' (channel (a, b) also failing) admits no
  generalized quorum system;
* Example 10 / §5: a register write at process a and a read at process b under
  failure pattern f1, served by the logical-clock quorum access functions;
* §7: consensus deciding under f1 while classical request/response Paxos
  cannot.

Run with:  python examples/figure1_walkthrough.py
"""

from __future__ import annotations

from repro.analysis import (
    figure1_fail_prone_system,
    figure1_modified_fail_prone_system,
    figure1_quorum_system,
)
from repro.checkers import check_consensus, check_register_linearizability
from repro.experiments import run_workload
from repro.quorums import discover_gqs, gqs_exists
from repro.sim import PartialSynchronyDelay
from repro.types import sorted_processes


def section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    section("Figure 1: the fail-prone system and its generalized quorum system")
    gqs = figure1_quorum_system()
    print(gqs.describe())

    section("Example 9: termination components U_f")
    for pattern in gqs.fail_prone:
        component = sorted_processes(gqs.termination_component(pattern))
        print("  {:3} -> U_f = {}".format(pattern.name, component))

    section("Example 9: the modified system F' admits no GQS")
    modified = figure1_modified_fail_prone_system()
    print("  GQS exists for F :", gqs_exists(figure1_fail_prone_system()))
    print("  GQS exists for F':", gqs_exists(modified))
    print("  (discovery explored {} candidate assignments)".format(
        discover_gqs(modified).nodes_explored))

    section("Example 10 / Section 5: the register under failure pattern f1")
    f1 = gqs.fail_prone.patterns[0]
    run = run_workload("register", gqs, pattern=f1, ops_per_process=2, seed=0)
    verdict = check_register_linearizability(run.history, initial_value=0)
    print("  operations invoked at U_f1 = {}".format(run.extra["invokers"]))
    print("  all operations terminated :", run.completed)
    print("  history linearizable      :", bool(verdict))
    print("  mean / max latency        : {:.2f} / {:.2f}".format(
        run.metrics.mean_latency, run.metrics.max_latency))
    for record in run.history:
        print(
            "    {:>2} {:5} arg={!r:12} -> {!r:12} [{:6.2f}, {:6.2f}]".format(
                str(record.process_id),
                record.kind,
                record.argument,
                record.result,
                record.invoked_at,
                record.completed_at if record.completed_at is not None else float("nan"),
            )
        )

    section("Section 7: consensus under f1 — GQS protocol vs classical Paxos")
    consensus = run_workload(
        "consensus",
        gqs,
        pattern=f1,
        delay_model=PartialSynchronyDelay(gst=25.0, delta=1.0, seed=0),
        max_time=4_000.0,
        seed=0,
    )
    paxos = run_workload("paxos", gqs, pattern=f1, max_time=700.0, seed=0)
    check = check_consensus(consensus.history, required_to_terminate=gqs.termination_component(f1))
    print("  GQS consensus decided       :", consensus.completed,
          "value(s):", consensus.extra["decided_values"])
    print("  agreement/validity/term.    :", check.ok)
    print("  classical Paxos decided     :", paxos.completed,
          "(expected: False — it cannot assemble a request/response quorum)")


if __name__ == "__main__":
    main()
