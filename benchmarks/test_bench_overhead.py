"""E4 — cost of the logical-clock machinery: classical ABD (Figure 2) vs GQS register (Figure 3).

Both registers run the same failure-free workload over the same threshold
quorum system; the harness reports messages per operation and mean latency.
Expected shape: the GQS register pays extra messages (CLOCK_REQ/RESP plus the
periodic pushes) and a small latency overhead, the price of tolerating
unidirectional connectivity.
"""

from __future__ import annotations

from repro.analysis import ResultTable
from repro.checkers import check_register_linearizability
from repro.experiments import compare_register_overhead
from repro.quorums import threshold_quorum_system

from conftest import bench_once


def test_e4_access_function_overhead(benchmark):
    classical_system = threshold_quorum_system(["a", "b", "c", "d", "e"], 2)
    runs = bench_once(benchmark, compare_register_overhead, classical_system, None, 2)

    table = ResultTable(
        title="E4: classical ABD vs GQS register (failure-free, n=5, k=2)",
        columns=[
            "protocol",
            "completed",
            "linearizable",
            "mean latency",
            "messages",
            "messages/op",
        ],
    )
    for name, result in runs.items():
        table.add_row(
            **{
                "protocol": name,
                "completed": result.completed,
                "linearizable": bool(
                    check_register_linearizability(result.history, initial_value=0)
                ),
                "mean latency": result.metrics.mean_latency,
                "messages": result.metrics.messages_sent,
                "messages/op": (
                    result.metrics.messages_sent / result.metrics.completed
                    if result.metrics.completed
                    else float("nan")
                ),
            }
        )
    print()
    print(table)

    classical = runs["classical_abd"]
    gqs = runs["gqs_register"]
    assert classical.completed and gqs.completed
    # Shape check: the GQS register costs more messages but stays in the same
    # latency ballpark (well under one order of magnitude).
    assert gqs.metrics.messages_sent > classical.metrics.messages_sent
    assert gqs.metrics.mean_latency < classical.metrics.mean_latency * 10
