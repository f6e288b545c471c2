"""E6 — admissibility of the three quorum conditions under random fail-prone systems.

The Monte Carlo sweep classifies random fail-prone systems by whether they
admit a classical quorum system, a strongly connected quorum system (QS+) and a
generalized quorum system, as the channel-disconnection probability grows.
Expected shape: GQS ≥ QS+ ≥ classical everywhere, with the gap opening as
channel failures become likely — the quantitative version of the paper's
"strictly weaker condition" message.  A companion series measures availability
of the *fixed* Figure 1 quorums under i.i.d. failures.
"""

from __future__ import annotations

import os

from repro.montecarlo import (
    admissibility_sweep,
    admissibility_table,
    reliability_sweep,
    reliability_table,
)

from conftest import bench_once

DISCONNECT_PROBS = (0.0, 0.1, 0.2, 0.3, 0.5)

# Worker processes for the Monte Carlo harnesses; the engine guarantees the
# measured tables are identical for every value, so raising this only changes
# the timing (e.g. REPRO_BENCH_JOBS=4 python -m pytest benchmarks/).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def test_e6_admissibility_sweep(benchmark):
    points = bench_once(
        benchmark,
        admissibility_sweep,
        DISCONNECT_PROBS,
        5,      # n
        3,      # patterns per system
        0.2,    # crash probability
        40,     # samples per point
        None,   # max_crashes
        0,      # seed
        jobs=BENCH_JOBS,
    )
    print()
    print(admissibility_table(points))
    for point in points:
        assert point.classical_fraction <= point.strong_fraction + 1e-9
        assert point.strong_fraction <= point.generalized_fraction + 1e-9
    # The gap between GQS and the classical condition opens once channels fail.
    assert points[-1].generalized_fraction > points[-1].classical_fraction


def test_e6_reliability_of_figure1_quorums(benchmark, figure1_gqs):
    estimates = bench_once(
        benchmark,
        reliability_sweep,
        figure1_gqs,
        (0.0, 0.1, 0.2, 0.3, 0.5),
        0.1,    # crash probability
        150,    # samples
        1,      # seed
        jobs=BENCH_JOBS,
    )
    print()
    print(reliability_table(estimates))
    for estimate in estimates:
        assert estimate.strong_availability <= estimate.gqs_availability + 1e-9
        assert estimate.gqs_availability <= estimate.classical_availability + 1e-9
    # With substantial channel failures the GQS availability notion keeps the
    # system usable strictly more often than the strongly connected one.
    assert estimates[-1].gqs_availability >= estimates[-1].strong_availability


def test_e6_engine_speedup(benchmark, figure1_gqs, bench_numbers):
    """Batched bitset shards vs the set-based oracle engine, at equal output.

    The production shards run against ``oracles.montecarlo`` (the same studies,
    object-per-pattern shards).  The comparison is at *equal
    statistical output*: both engines consume the
    shard RNG stream draw for draw, so the counters they produce are asserted
    identical before the throughputs are compared.  The engines run
    interleaved and each timing keeps the best of three rounds, so a noisy
    stretch of CPU hits both sides rather than skewing the ratio.  Only the
    counter equality is asserted: the samples/sec and the speedup ratios are
    recorded and judged by the conftest regression guard against
    ``BENCH_seed.json`` (the ratio reads 9-13x on a shared box, so a fixed
    ``>= 10x`` assertion here only made the tier-1 gate flaky).
    """
    import gc
    import time

    from oracles.montecarlo import admissibility_sweep_set, estimate_reliability_set

    def reliability_point(quorum_system, disconnect_prob, **config):
        return reliability_sweep(quorum_system, (disconnect_prob,), **config)[0]

    ENGINES = {
        "set": (estimate_reliability_set, admissibility_sweep_set),
        "bitset": (reliability_point, admissibility_sweep),
    }
    REL_SAMPLES = 3000
    ADM_SAMPLES = 1200
    ROUNDS = 3

    def run(engine):
        estimate_with, sweep_with = ENGINES[engine]
        start = time.perf_counter()
        estimate = estimate_with(
            figure1_gqs,
            crash_prob=0.1,
            disconnect_prob=0.3,
            samples=REL_SAMPLES,
            seed=5,
        )
        rel_seconds = time.perf_counter() - start
        start = time.perf_counter()
        points = sweep_with(
            (0.3,),
            5,      # n
            3,      # patterns per system
            0.2,    # crash probability
            ADM_SAMPLES,
            None,   # max_crashes
            3,      # seed
        )
        adm_seconds = time.perf_counter() - start
        return estimate, points, rel_seconds, adm_seconds

    def experiment():
        numbers = {}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(ROUNDS):
                for engine in ("set", "bitset"):
                    estimate, points, rel_seconds, adm_seconds = run(engine)
                    entry = numbers.setdefault(
                        engine,
                        {
                            "estimate": estimate,
                            "points": points,
                            "rel_seconds": rel_seconds,
                            "adm_seconds": adm_seconds,
                        },
                    )
                    assert entry["estimate"] == estimate and entry["points"] == points
                    entry["rel_seconds"] = min(entry["rel_seconds"], rel_seconds)
                    entry["adm_seconds"] = min(entry["adm_seconds"], adm_seconds)
                    gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        for entry in numbers.values():
            entry["reliability_samples_per_sec"] = round(
                REL_SAMPLES / entry.pop("rel_seconds"), 1
            )
            entry["admissibility_samples_per_sec"] = round(
                ADM_SAMPLES / entry.pop("adm_seconds"), 1
            )
        return numbers

    numbers = bench_once(benchmark, experiment)
    # Equal statistical output: identical counters, sample for sample.
    assert numbers["bitset"]["estimate"] == numbers["set"]["estimate"]
    assert numbers["bitset"]["points"] == numbers["set"]["points"]
    assert numbers["set"]["estimate"].samples == REL_SAMPLES
    speedups = {}
    for study in ("reliability", "admissibility"):
        metric = "{}_samples_per_sec".format(study)
        speedups[study] = numbers["bitset"][metric] / numbers["set"][metric]
    bench_numbers(
        set_reliability_samples_per_sec=numbers["set"]["reliability_samples_per_sec"],
        bitset_reliability_samples_per_sec=numbers["bitset"]["reliability_samples_per_sec"],
        set_admissibility_samples_per_sec=numbers["set"]["admissibility_samples_per_sec"],
        bitset_admissibility_samples_per_sec=numbers["bitset"]["admissibility_samples_per_sec"],
        reliability_speedup=round(speedups["reliability"], 2),
        admissibility_speedup=round(speedups["admissibility"], 2),
    )
    print()
    print("E6 engine speedup (identical counters, interleaved best-of-three):")
    for study, speedup in speedups.items():
        print(
            "  {}: set {:.0f} -> bitset {:.0f} samples/sec ({:.1f}x)".format(
                study,
                numbers["set"]["{}_samples_per_sec".format(study)],
                numbers["bitset"]["{}_samples_per_sec".format(study)],
                speedup,
            )
        )


def test_e6_strict_separation_witnesses(benchmark):
    """The GQS condition is *strictly* weaker than QS+: count separating systems.

    Figure 1 is the canonical witness; the Monte Carlo search finds further
    witnesses among randomly sampled asymmetric-partition fail-prone systems
    (uniformly random channel failures almost never separate the two
    conditions, so the structured distribution is the right place to look).
    """
    from repro.analysis import figure1_fail_prone_system
    from repro.montecarlo import gqs_strictly_weaker_examples
    from repro.quorums import gqs_exists, strong_system_exists

    def experiment():
        found = {}
        for n in (5, 6):
            witnesses = gqs_strictly_weaker_examples(n=n, num_patterns=3, samples=120, seed=2)
            found[n] = len(witnesses)
        return found

    found = bench_once(benchmark, experiment)
    figure1 = figure1_fail_prone_system()
    print()
    print("E6: systems admitting a GQS but no QS+ (120 asymmetric-partition samples per n)")
    for n, count in found.items():
        print("  n={}: {} witnesses".format(n, count))
    print("  Figure 1 separates the conditions:", gqs_exists(figure1) and not strong_system_exists(figure1))
    assert gqs_exists(figure1) and not strong_system_exists(figure1)
    assert sum(found.values()) >= 1
