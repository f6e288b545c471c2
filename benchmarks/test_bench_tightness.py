"""E8 — end-to-end tightness verification (Theorems 1 + 2 jointly).

For a collection of fail-prone systems the harness runs the GQS decision
procedure and, when a GQS exists, simulates the register, snapshot and lattice
agreement protocols under every failure pattern, checking liveness inside
``U_f`` and the object specifications.  Expected shape: every system that
admits a GQS passes all protocol checks; systems that admit none are reported
as such (the lower bound says no implementation can exist).
"""

from __future__ import annotations

import os

from repro.analysis import (
    ResultTable,
    figure1_fail_prone_system,
    figure1_modified_fail_prone_system,
)
from repro.experiments import verify_tightness
from repro.failures import FailProneSystem, adversarial_partition_system, ring_unidirectional_system

from conftest import bench_once

# Worker processes for the per-pattern verification loop; the report is
# identical for every value (per-pattern seeding is independent of jobs).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def test_e8_tightness_on_figure1(benchmark):
    report = bench_once(
        benchmark,
        verify_tightness,
        figure1_fail_prone_system(),
        2,      # ops per process
        True,   # include snapshot
        True,   # include lattice agreement
        0,      # seed
        jobs=BENCH_JOBS,
    )
    print()
    print(report.to_table())
    assert report.discovery.exists
    assert report.all_patterns_ok


def test_e8_tightness_across_fail_prone_systems(benchmark):
    systems = [
        ("figure1", figure1_fail_prone_system()),
        ("figure1-modified", figure1_modified_fail_prone_system()),
        ("crash-threshold n=4 k=1", FailProneSystem.crash_threshold(["a", "b", "c", "d"], 1)),
        ("one-way splits n=4", adversarial_partition_system(4)),
        ("ring n=5", ring_unidirectional_system(5)),
    ]

    def experiment():
        rows = []
        for name, system in systems:
            report = verify_tightness(system, ops_per_process=1, seed=3, jobs=BENCH_JOBS)
            exists = report.discovery.exists
            rows.append(
                {
                    "system": name,
                    "GQS exists": exists,
                    "patterns": len(system),
                    "all protocol checks pass": report.all_patterns_ok if exists else "n/a",
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E8: tightness verification across fail-prone systems",
        columns=["system", "GQS exists", "patterns", "all protocol checks pass"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)

    by_name = {row["system"]: row for row in rows}
    assert by_name["figure1"]["GQS exists"] and by_name["figure1"]["all protocol checks pass"]
    assert not by_name["figure1-modified"]["GQS exists"]
    assert by_name["crash-threshold n=4 k=1"]["all protocol checks pass"]
    assert by_name["one-way splits n=4"]["all protocol checks pass"]
    assert by_name["ring n=5"]["all protocol checks pass"]
