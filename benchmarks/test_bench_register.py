"""E3 — the GQS register (Figures 3-4) under the Figure 1 failure patterns.

For every failure pattern of the running example, a write/read workload is run
inside the termination component ``U_f``; the harness reports completion,
linearizability, mean/max operation latency and message counts.  The paper's
claim (Theorems 1, 3, 4): all operations terminate and the history is
linearizable.
"""

from __future__ import annotations

from repro.analysis import ResultTable
from repro.checkers import check_register_linearizability
from repro.experiments import run_workload

from conftest import bench_once


def run_all_patterns(figure1_gqs, ops_per_process=2):
    rows = []
    for index, pattern in enumerate(figure1_gqs.fail_prone.patterns):
        result = run_workload(
            "register", figure1_gqs, pattern=pattern, ops_per_process=ops_per_process, seed=index
        )
        outcome = check_register_linearizability(result.history, initial_value=0)
        rows.append(
            {
                "pattern": pattern.name,
                "invokers": ",".join(str(p) for p in result.extra["invokers"]),
                "completed": result.completed,
                "linearizable": bool(outcome),
                "mean latency": result.metrics.mean_latency,
                "max latency": result.metrics.max_latency,
                "messages": result.metrics.messages_sent,
            }
        )
    return rows


def test_e3_register_under_figure1_patterns(benchmark, figure1_gqs):
    rows = bench_once(benchmark, run_all_patterns, figure1_gqs)
    table = ResultTable(
        title="E3: GQS register under the Figure 1 failure patterns",
        columns=[
            "pattern",
            "invokers",
            "completed",
            "linearizable",
            "mean latency",
            "max latency",
            "messages",
        ],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["completed"] and row["linearizable"] for row in rows)


def test_e3_register_failure_free_baseline(benchmark, figure1_gqs):
    """Failure-free run of the same workload (the latency baseline for E3)."""
    result = bench_once(
        benchmark, run_workload, "register", figure1_gqs, pattern=None, ops_per_process=2
    )
    assert result.completed
    assert bool(check_register_linearizability(result.history, initial_value=0))
    print(
        "\nE3 baseline (no failures): mean latency {:.2f}, max latency {:.2f}, "
        "messages {}".format(
            result.metrics.mean_latency,
            result.metrics.max_latency,
            result.metrics.messages_sent,
        )
    )


def test_e3_push_interval_sensitivity(benchmark, figure1_gqs):
    """Operation latency grows with the state-propagation period (Figure 3, line 12)."""

    def sweep():
        rows = []
        for push_interval in (0.5, 1.0, 2.0, 4.0):
            result = run_workload(
                "register",
                figure1_gqs,
                pattern=figure1_gqs.fail_prone.patterns[0],
                protocol_params={"push_interval": push_interval},
                ops_per_process=2,
                seed=7,
            )
            rows.append(
                {
                    "push interval": push_interval,
                    "completed": result.completed,
                    "mean latency": result.metrics.mean_latency,
                    "messages": result.metrics.messages_sent,
                }
            )
        return rows

    rows = bench_once(benchmark, sweep)
    table = ResultTable(
        title="E3: sensitivity to the periodic push interval (pattern f1)",
        columns=["push interval", "completed", "mean latency", "messages"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["completed"] for row in rows)
    # Pushing less often cannot make operations faster.
    assert rows[0]["mean latency"] <= rows[-1]["mean latency"] * 1.5
