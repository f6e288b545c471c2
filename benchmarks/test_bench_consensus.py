"""E5 — consensus under partial synchrony (Figure 6) vs the classical Paxos baseline.

Three series are regenerated:

* decision latency of the GQS consensus under every Figure 1 pattern;
* decision latency as a function of GST (decisions happen shortly after the
  network stabilises) and of the view-duration constant C;
* the classical request/response Paxos baseline under the same patterns, which
  fails to decide — the "who wins" comparison.
"""

from __future__ import annotations

from repro.analysis import ResultTable
from repro.checkers import check_consensus
from repro.experiments import run_workload
from repro.sim import PartialSynchronyDelay

from conftest import bench_once


def test_e5_consensus_under_figure1_patterns(benchmark, figure1_gqs):
    def experiment():
        rows = []
        for index, pattern in enumerate(figure1_gqs.fail_prone.patterns):
            result = run_workload(
                "consensus",
                figure1_gqs,
                pattern=pattern,
                delay_model=PartialSynchronyDelay(gst=25.0, delta=1.0, seed=index),
                seed=index,
                max_time=4_000.0,
            )
            component = figure1_gqs.termination_component(pattern)
            verdict = check_consensus(result.history, required_to_terminate=component)
            rows.append(
                {
                    "pattern": pattern.name,
                    "decided": result.completed,
                    "agreement+validity": verdict.agreement and verdict.validity,
                    "mean latency": result.metrics.mean_latency,
                    "max latency": result.metrics.max_latency,
                    "messages": result.metrics.messages_sent,
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E5: GQS consensus under the Figure 1 failure patterns (GST=25)",
        columns=["pattern", "decided", "agreement+validity", "mean latency", "max latency", "messages"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["decided"] and row["agreement+validity"] for row in rows)


def test_e5_decision_latency_vs_gst(benchmark, figure1_gqs):
    def experiment():
        rows = []
        pattern = figure1_gqs.fail_prone.patterns[0]
        for gst in (10.0, 50.0, 150.0):
            result = run_workload(
                "consensus",
                figure1_gqs,
                pattern=pattern,
                delay_model=PartialSynchronyDelay(gst=gst, delta=1.0, seed=5),
                seed=5,
                max_time=6_000.0,
            )
            rows.append(
                {
                    "GST": gst,
                    "decided": result.completed,
                    "max decision latency": result.metrics.max_latency,
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E5: decision latency vs GST (pattern f1)",
        columns=["GST", "decided", "max decision latency"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["decided"] for row in rows)
    # Decisions cannot systematically precede stabilisation: latency grows with GST.
    latencies = [row["max decision latency"] for row in rows]
    assert latencies[0] <= latencies[-1]


def test_e5_decision_latency_vs_view_duration(benchmark, figure1_gqs):
    def experiment():
        rows = []
        pattern = figure1_gqs.fail_prone.patterns[1]
        for view_duration in (2.0, 5.0, 10.0):
            result = run_workload(
                "consensus",
                figure1_gqs,
                pattern=pattern,
                protocol_params={"view_duration": view_duration},
                delay_model=PartialSynchronyDelay(gst=20.0, delta=1.0, seed=6),
                seed=6,
                max_time=6_000.0,
            )
            rows.append(
                {
                    "C (view duration)": view_duration,
                    "decided": result.completed,
                    "max decision latency": result.metrics.max_latency,
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E5: decision latency vs view-duration constant C (pattern f2)",
        columns=["C (view duration)", "decided", "max decision latency"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["decided"] for row in rows)


def test_e5_paxos_baseline_comparison(benchmark, figure1_gqs):
    def experiment():
        rows = []
        for index, pattern in enumerate(figure1_gqs.fail_prone.patterns):
            gqs_run = run_workload(
                "consensus",
                figure1_gqs,
                pattern=pattern,
                delay_model=PartialSynchronyDelay(gst=25.0, delta=1.0, seed=30 + index),
                seed=30 + index,
                max_time=4_000.0,
            )
            paxos_run = run_workload(
                "paxos", figure1_gqs, pattern=pattern, max_time=700.0, seed=30 + index
            )
            rows.append(
                {
                    "pattern": pattern.name,
                    "GQS consensus decided": gqs_run.completed,
                    "classical Paxos decided": paxos_run.completed,
                }
            )
        # Sanity: in the failure-free case both decide.
        gqs_ok = run_workload(
            "consensus",
            figure1_gqs,
            pattern=None,
            delay_model=PartialSynchronyDelay(gst=10.0, delta=1.0, seed=99),
            seed=99,
        ).completed
        paxos_ok = run_workload(
            "paxos", figure1_gqs, pattern=None, max_time=800.0, seed=99
        ).completed
        rows.append(
            {
                "pattern": "no failures",
                "GQS consensus decided": gqs_ok,
                "classical Paxos decided": paxos_ok,
            }
        )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E5: GQS consensus vs classical request/response Paxos",
        columns=["pattern", "GQS consensus decided", "classical Paxos decided"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    for row in rows:
        if row["pattern"] == "no failures":
            assert row["GQS consensus decided"] and row["classical Paxos decided"]
        else:
            assert row["GQS consensus decided"] and not row["classical Paxos decided"]
