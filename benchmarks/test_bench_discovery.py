"""E7 — scalability of the GQS decision procedure.

Measures the runtime of :func:`repro.quorums.discover_gqs` as the number of
processes and the number of failure patterns grow, on threshold systems (many
patterns, crash-only) and on random systems with channel failures.  The
decision procedure is the tool a practitioner would run to check whether a
deployment's failure assumptions are tolerable at all, so its cost matters.

The ``pruned_vs_seed`` benchmarks pit the production search (bitmask
candidates + forward checking) against the seed backtracker
(``oracles.discovery.discover_naive``: set-based candidate enumeration,
prefix-only pruning) on the production-size families of :mod:`repro.failures.generators`, and
**assert** a ≥10x reduction in explored search nodes — the acceptance bar of
the discovery rework.  Wall clocks are *recorded* (``bench_numbers``) and
judged by the conftest guard against ``BENCH_seed.json``, never asserted: a
stopwatch comparison against a test oracle says nothing a user would see.
"""

from __future__ import annotations

import gc
import time

from repro.analysis import ResultTable
from repro.failures import (
    FailProneSystem,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
)
from repro.quorums import discover_gqs

from conftest import bench_once
from oracles.discovery import discover_naive


def _timed_on_fresh_system(build_system, discover):
    """``(system, result, seconds)`` of ``discover`` on a fresh system.

    A full collection runs before the timed call, so it does not pay for
    garbage the system builder or the previous call left behind.
    """
    system = build_system()
    gc.collect()
    started = time.perf_counter()
    result = discover(system, validate=False)
    return system, result, time.perf_counter() - started


def _compare_algorithms(build_system, label, rounds=2):
    """Run both algorithms on fresh system instances and report one table row.

    Each call gets its own instance so the pruned path cannot feed off caches
    warmed by the naive run (or vice versa).  The two run interleaved and each
    keeps the best of ``rounds`` timings, so a noisy stretch of CPU hits both
    sides rather than deciding the comparison.
    """
    naive_seconds = pruned_seconds = float("inf")
    for _ in range(rounds):
        naive_system, naive, seconds = _timed_on_fresh_system(build_system, discover_naive)
        naive_seconds = min(naive_seconds, seconds)
        _, pruned, seconds = _timed_on_fresh_system(build_system, discover_gqs)
        pruned_seconds = min(pruned_seconds, seconds)

    assert pruned.exists == naive.exists
    if pruned.exists:
        assert {f: (c.read_quorum, c.write_quorum) for f, c in pruned.choices.items()} == {
            f: (c.read_quorum, c.write_quorum) for f, c in naive.choices.items()
        }
    return {
        "family": label,
        "n": len(naive_system.processes),
        "|F|": len(naive_system),
        "GQS exists": pruned.exists,
        "seed nodes": naive.nodes_explored,
        "pruned nodes": pruned.nodes_explored,
        "node ratio": round(naive.nodes_explored / max(1, pruned.nodes_explored), 1),
        "seed s": round(naive_seconds, 3),
        "pruned s": round(pruned_seconds, 3),
    }


def test_e7_pruned_vs_seed_backtracker_on_large_families(benchmark, bench_numbers):
    """The acceptance benchmark: ≥10x fewer explored nodes; wall clocks recorded."""

    families = [
        (
            "multi-region(10x13, primary=11, epochs=50)",
            lambda: multi_region_system(
                regions=10, replicas_per_region=13, primary_replicas=11, epochs=50
            ),
        ),
        (
            "large-threshold(120, k=8, zones=6, blackout)",
            lambda: large_threshold_system(
                n=120, max_crashes=8, num_patterns=50, zones=6, catastrophic=True
            ),
        ),
    ]

    def experiment():
        return [_compare_algorithms(build, label) for label, build in families]

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E7: forward-checking search vs seed backtracker",
        columns=[
            "family", "n", "|F|", "GQS exists",
            "seed nodes", "pruned nodes", "node ratio", "seed s", "pruned s",
        ],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    for row in rows:
        assert row["GQS exists"]
        assert row["seed nodes"] >= 10 * row["pruned nodes"], row
        slug = row["family"].split("(")[0].replace("-", "_")
        bench_numbers(
            **{
                slug + "_pruned_wall_s": row["pruned s"],
                slug + "_seed_seconds": row["seed s"],
            }
        )


def test_e7_discovery_on_threshold_systems(benchmark):
    def experiment():
        rows = []
        for n in (4, 6, 8, 10):
            k = (n - 1) // 2
            system = FailProneSystem.crash_threshold(["p{}".format(i) for i in range(n)], k)
            started = time.perf_counter()
            result = discover_gqs(system)
            elapsed = time.perf_counter() - started
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "|F|": len(system),
                    "GQS exists": result.exists,
                    "nodes explored": result.nodes_explored,
                    "seconds": elapsed,
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E7: GQS discovery on crash-threshold systems",
        columns=["n", "k", "|F|", "GQS exists", "nodes explored", "seconds"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(row["GQS exists"] for row in rows)


def test_e7_discovery_on_random_systems(benchmark):
    def experiment():
        rows = []
        for n, num_patterns in ((4, 4), (6, 6), (8, 8), (10, 10)):
            admitted = 0
            nodes = 0
            started = time.perf_counter()
            samples = 10
            for seed in range(samples):
                system = random_fail_prone_system(
                    n=n,
                    num_patterns=num_patterns,
                    crash_prob=0.15,
                    disconnect_prob=0.25,
                    seed=seed,
                )
                result = discover_gqs(system, validate=False)
                admitted += int(result.exists)
                nodes += result.nodes_explored
            elapsed = time.perf_counter() - started
            rows.append(
                {
                    "n": n,
                    "|F|": num_patterns,
                    "samples": samples,
                    "admitting GQS": admitted,
                    "avg nodes": nodes / samples,
                    "seconds (total)": elapsed,
                }
            )
        return rows

    rows = bench_once(benchmark, experiment)
    table = ResultTable(
        title="E7: GQS discovery on random fail-prone systems (p_disconnect=0.25)",
        columns=["n", "|F|", "samples", "admitting GQS", "avg nodes", "seconds (total)"],
    )
    for row in rows:
        table.add_row(**row)
    print()
    print(table)
    assert all(0 <= row["admitting GQS"] <= row["samples"] for row in rows)


def test_e7_single_discovery_microbenchmark(benchmark):
    """Microbenchmark (many rounds): discovery on the Figure 1 system."""
    from repro.analysis import figure1_fail_prone_system

    system = figure1_fail_prone_system()
    result = benchmark(discover_gqs, system)
    assert result.exists


def test_e7_discovery_at_production_scale(benchmark, bench_numbers):
    """The one search certifies n >= 1000 without backtracking.

    The rotating-window threshold family is the production-scale family whose
    patterns stay cheap to *construct* at n >= 1000 (crash-only windows; the
    island families of the zoned/multi-region builders carry ~n^2 explicit
    channels per pattern, so building them — not searching them — is what
    stops scaling first).  A crash-only pattern leaves one strongly connected
    residual, hence one candidate, and forward checking then assigns every
    pattern exactly once: ``nodes_explored == |F|`` is an exact fact and is
    asserted; the wall clock is recorded for the conftest guard, never
    asserted.
    """
    size, window = 1008, 48

    system, result, seconds = bench_once(
        benchmark,
        _timed_on_fresh_system,
        lambda: large_threshold_system(n=size, max_crashes=window),
        discover_gqs,
    )
    table = ResultTable(
        title="E7: discovery at n={}".format(size),
        columns=["n", "|F|", "nodes explored", "seconds"],
    )
    table.add_row(
        n=size,
        **{"|F|": len(system.patterns), "nodes explored": result.nodes_explored,
           "seconds": round(seconds, 3)},
    )
    print()
    print(table)
    assert result.exists
    assert set(result.candidates_per_pattern.values()) == {1}
    assert result.nodes_explored == len(system.patterns) == size
    bench_numbers(
        full_nodes_explored=result.nodes_explored,
        production_scale_wall_s=round(seconds, 6),
    )


def test_e7_validated_discovery_at_scale(benchmark, bench_numbers):
    """Default-validated discovery at n=252: cost relative to the unvalidated call.

    Witness validation re-derives Consistency and per-pattern Availability
    from the residual graphs, touching none of the search's candidate caches,
    so it is expected to cost about as much again as the search, not hundreds
    of times more.
    Twin fresh systems keep either call from feeding off the other's caches.
    The ratio is recorded as ``validate_ratio`` for the conftest guard; only
    the verdicts and the witness's validity are asserted here.
    """
    size, window = 252, 12

    def timed_discovery(**kwargs):
        system = large_threshold_system(n=size, max_crashes=window)
        started = time.perf_counter()
        result = discover_gqs(system, **kwargs)
        return result, time.perf_counter() - started

    def experiment():
        unvalidated, unvalidated_seconds = timed_discovery(validate=False)
        validated, validated_seconds = timed_discovery()  # validate=True is the default
        return unvalidated, unvalidated_seconds, validated, validated_seconds

    unvalidated, unvalidated_seconds, validated, validated_seconds = bench_once(
        benchmark, experiment
    )
    ratio = validated_seconds / unvalidated_seconds
    table = ResultTable(
        title="E7: validated vs unvalidated discovery at n={}".format(size),
        columns=["validate", "exists", "nodes explored", "seconds"],
    )
    for label, result, seconds in (
        ("False", unvalidated, unvalidated_seconds),
        ("True (default)", validated, validated_seconds),
    ):
        table.add_row(
            validate=label,
            exists=result.exists,
            **{"nodes explored": result.nodes_explored, "seconds": round(seconds, 3)},
        )
    print()
    print(table)
    assert unvalidated.exists and validated.exists
    assert validated.quorum_system is not None and validated.quorum_system.is_valid()
    bench_numbers(
        validated_seconds=round(validated_seconds, 6),
        unvalidated_seconds=round(unvalidated_seconds, 6),
        validate_ratio=round(ratio, 2),
    )


def test_e7_witness_render_cost_at_scale(benchmark, bench_numbers):
    """Rendering a discovered witness against deciding it, on ``large-threshold-168x8``.

    ``to_dict()`` (the JSON payload) plus ``to_text()`` (the table) of a
    :class:`repro.api.DiscoveryReport` over the seconds of the validated
    ``discover_gqs`` it prints.  Members are read off the process index in bit
    order, so printing a witness costs a few times its decision, not tens.
    Each side runs on its own fresh system and keeps the fastest of three
    rounds; the ratio is recorded as ``render_ratio`` for the conftest guard
    and only the verdict and the rendered bytes' shape are asserted.
    """
    from repro.api import DiscoveryReport

    def experiment():
        discover_seconds = render_seconds = float("inf")
        for _ in range(3):
            system = large_threshold_system(n=168, max_crashes=8)
            gc.collect()
            started = time.perf_counter()
            discover_gqs(system)
            discover_seconds = min(discover_seconds, time.perf_counter() - started)
            system = large_threshold_system(n=168, max_crashes=8)
            report = DiscoveryReport(system, discover_gqs(system))
            gc.collect()
            started = time.perf_counter()
            payload, text = report.to_dict(), report.to_text()
            render_seconds = min(render_seconds, time.perf_counter() - started)
        return report, payload, text, discover_seconds, render_seconds

    report, payload, text, discover_seconds, render_seconds = bench_once(benchmark, experiment)
    ratio = render_seconds / discover_seconds
    table = ResultTable(
        title="E7: witness rendering vs validated discovery at n=168",
        columns=["|F|", "discover s", "to_dict + to_text s", "ratio"],
    )
    table.add_row(**{
        "|F|": len(report.system.patterns), "discover s": round(discover_seconds, 4),
        "to_dict + to_text s": round(render_seconds, 4), "ratio": round(ratio, 2),
    })
    print()
    print(table)
    assert report.exists and len(payload["patterns"]) == len(report.system.patterns) == 168
    assert "GQS exists        : True" in text
    bench_numbers(
        render_seconds=round(render_seconds, 6),
        render_discover_seconds=round(discover_seconds, 6),
        render_ratio=round(ratio, 2),
    )


def test_e7_island_family_cold_decision(benchmark, bench_numbers):
    """Build + validated discovery of the zoned island family, from nothing.

    ``large-threshold-60x3x4`` (the heaviest system of the e2e
    ``discover-cold`` workload) lists ~125 k disconnect-prone channels over
    54 patterns, so constructing it — not searching it — is the cost.  The
    constructor's validation *is* the mask encoding of every channel set, and
    that encoding becomes the pattern's residual, so the search and the
    witness check never walk a channel again.  Fresh systems, the fastest of
    three rounds; its build + discover wall clock is recorded for the conftest
    guard (``island_cold_wall_s``), never asserted.
    """

    def experiment():
        best = (float("inf"), 0.0)  # (build + discover, build) of the fastest round
        for _ in range(3):
            gc.collect()
            started = time.perf_counter()
            system = large_threshold_system(n=60, max_crashes=3, zones=4, catastrophic=True)
            built = time.perf_counter()
            result = discover_gqs(system)
            best = min(best, (time.perf_counter() - started, built - started))
        return system, result, best[1], best[0] - best[1]

    system, result, build_seconds, discover_seconds = bench_once(benchmark, experiment)
    channels = sum(len(f.disconnect_prone) for f in system.patterns)
    table = ResultTable(
        title="E7: cold decision on the zoned island family (n=60, zones=4)",
        columns=["|F|", "channels", "build s", "discover s (validated)"],
    )
    table.add_row(
        **{"|F|": len(system.patterns), "channels": channels,
           "build s": round(build_seconds, 3),
           "discover s (validated)": round(discover_seconds, 3)},
    )
    print()
    print(table)
    assert result.exists and result.quorum_system.is_valid()
    assert system._pattern_masks == {}  # every kept encoding became a residual
    bench_numbers(
        island_channels=channels,
        island_build_seconds=round(build_seconds, 6),
        island_discover_seconds=round(discover_seconds, 6),
        island_cold_wall_s=round(build_seconds + discover_seconds, 6),
    )


def test_e7_churn_recertification_reuse(benchmark, bench_numbers):
    """A single join delta on n >= 500 recertifies with >= 90% candidate reuse.

    The join quarantines the newcomer (it lands in every pattern's crash set),
    so every pattern's residual structure survives modulo re-indexing and the
    watch path must adopt all of it instead of recomputing.  The joiner sorts
    *first*, so every bit position moves and all 504 residuals really go
    through the order-preserving re-index (a joiner sorting last would leave
    every mask as it is); each adopted residual must equal the one a
    cache-free system builds from scratch.
    """
    from repro.quorums import MembershipDelta, apply_delta, watch_deltas

    delta = MembershipDelta(op="join", process="a-new")

    def experiment():
        system = large_threshold_system(n=504, max_crashes=24)
        started = time.perf_counter()
        outcome = watch_deltas(system, [delta])
        return outcome, time.perf_counter() - started

    outcome, seconds = bench_once(benchmark, experiment)
    (verdict,) = outcome.verdicts
    table = ResultTable(
        title="E7: recertification after one join on n=504",
        columns=["delta", "exists", "patterns", "reused", "reuse", "seconds"],
    )
    table.add_row(
        delta=verdict.delta.describe(),
        exists=verdict.result.exists,
        patterns=verdict.patterns_total,
        reused=verdict.candidates_reused,
        reuse="{:.1%}".format(verdict.reuse_fraction),
        seconds=round(seconds, 3),
    )
    print()
    print(table)
    assert outcome.initial_result is not None and outcome.initial_result.exists
    assert verdict.result.exists
    assert verdict.reuse_fraction >= 0.9
    assert verdict.system.process_index.position("a-new") == 0
    scratch = apply_delta(outcome.initial, delta)[0]  # same system, nothing carried
    assert verdict.candidates_reused == len(scratch.patterns)
    for pattern in scratch.patterns:
        assert verdict.system.residual_bitset(pattern) == scratch.residual_bitset(pattern)
    bench_numbers(
        churn_reuse_fraction=round(verdict.reuse_fraction, 6),
        churn_candidates_reused=verdict.candidates_reused,
        churn_patterns_total=verdict.patterns_total,
    )
