"""Differential battery: the bitset Monte Carlo shards vs the set-based oracle.

The production shards (:mod:`repro.montecarlo.bitsampler`) are a faster
representation of the same experiment as the object-per-pattern engine in
``oracles.montecarlo``, never a different experiment.  These tests pin the
strongest form of that claim: for identical shard seeds the two consume the
RNG stream draw for draw and therefore produce **the same counters on every
sample**, not merely statistically compatible estimates.  The battery runs
the samplers head-to-head, sweeps ≥20 random systems and configurations
through both (same spec builders, same merge functions, different shards),
and checks the public ``sweep`` JSON is byte-identical to the oracle's and
across ``jobs`` counts.
"""

import json
import random

from repro import api
from repro.analysis import figure1_quorum_system
from repro.failures import FailProneSystem, FailurePattern
from repro.graph import ProcessIndex
from repro.montecarlo import (
    admissibility_sweep,
    asymmetric_admissibility_sweep,
    estimate_reliability,
    reliability_sweep,
)
from repro.montecarlo.bitsampler import (
    sample_admissibility_masks,
    sample_reliability_masks,
)
from repro.failures.generators import random_failure_pattern
from repro.quorums import GeneralizedQuorumSystem

from oracles.montecarlo import (
    admissibility_sweep_set,
    asymmetric_rows_set,
    estimate_reliability_set,
    reliability_sweep_set,
    sample_pattern,
)


def _random_quorum_system(rng, n):
    """A random (not necessarily valid) GQS — reliability estimation never
    consults validity, only the quorum families."""
    processes = ["p{}".format(i) for i in range(n)]
    fail_prone = FailProneSystem(
        processes, [FailurePattern.crash_only([processes[0]], name="f0")]
    )

    def family():
        count = rng.randint(1, 3)
        return [
            rng.sample(processes, rng.randint(1, n)) for _ in range(count)
        ]

    return GeneralizedQuorumSystem(fail_prone, family(), family(), validate=False)


# --------------------------------------------------------------------- #
# Sampler twins: identical RNG stream, identical decoded patterns
# --------------------------------------------------------------------- #
def test_reliability_mask_sampler_is_a_stream_twin_of_sample_pattern():
    processes = ["p{}".format(i) for i in range(6)]
    index = ProcessIndex(processes)
    order = [index.position(p) for p in sorted(processes, key=repr)]
    for seed in range(30):
        rng_set = random.Random(seed)
        rng_bit = random.Random(seed)
        for crash_prob, disconnect_prob in [(0.3, 0.4), (1.0, 0.0), (0.9, 0.9)]:
            pattern = sample_pattern(
                sorted(processes, key=repr), rng_set, crash_prob, disconnect_prob
            )
            crash_mask, succ_clear = sample_reliability_masks(
                order, rng_bit, crash_prob, disconnect_prob
            )
            assert index.set_of(crash_mask) == pattern.crash_prone
            assert index.channels_of(succ_clear) == pattern.disconnect_prone
            # Not just the same value: the exact same number of draws.
            assert rng_set.getstate() == rng_bit.getstate()


def test_admissibility_mask_sampler_is_a_stream_twin_of_random_pattern():
    processes = ["p{}".format(i) for i in range(5)]
    index = ProcessIndex(processes)
    order = [index.position(p) for p in processes]
    for seed in range(30):
        for max_crashes in (None, 1, 2):
            rng_set = random.Random(seed)
            rng_bit = random.Random(seed)
            pattern = random_failure_pattern(
                processes, rng_set, crash_prob=0.5, disconnect_prob=0.4,
                max_crashes=max_crashes,
            )
            crash_mask, succ_clear = sample_admissibility_masks(
                order, rng_bit, 0.5, 0.4, max_crashes
            )
            assert index.set_of(crash_mask) == pattern.crash_prone
            assert index.channels_of(succ_clear) == pattern.disconnect_prone
            assert rng_set.getstate() == rng_bit.getstate()


# --------------------------------------------------------------------- #
# Engine equality on random systems / configurations
# --------------------------------------------------------------------- #
def test_reliability_counters_equal_on_random_systems():
    """≥20 random quorum systems: identical ReliabilityEstimate per engine."""
    rng = random.Random(2024)
    for case in range(24):
        quorum_system = _random_quorum_system(rng, rng.randint(3, 8))
        crash_prob = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
        disconnect_prob = rng.choice([0.0, 0.2, 0.5, 0.9])
        seed = rng.randrange(10_000)
        config = dict(
            crash_prob=crash_prob, disconnect_prob=disconnect_prob, samples=60, seed=seed
        )
        assert estimate_reliability(quorum_system, **config) == estimate_reliability_set(
            quorum_system, **config
        ), (case, crash_prob, disconnect_prob, seed)


def test_admissibility_counters_equal_on_random_configurations():
    """≥20 random sweep configurations: identical per-point counters."""
    rng = random.Random(77)
    for case in range(22):
        n = rng.randint(3, 7)
        config = dict(
            disconnect_probs=(rng.choice([0.0, 0.3, 0.6, 0.9]),),
            n=n,
            num_patterns=rng.randint(1, 4),
            crash_prob=rng.choice([0.0, 0.2, 0.5, 0.9]),
            samples=40,
            max_crashes=rng.choice([None, 1, n - 1]),
            seed=rng.randrange(10_000),
        )
        assert admissibility_sweep(**config) == admissibility_sweep_set(**config), (
            case, config,
        )


def test_asymmetric_sweep_equal_across_engines():
    config = dict(n_values=(3, 4, 5, 6), num_patterns=3, samples=40, seed=9)
    assert asymmetric_admissibility_sweep(**config).rows == asymmetric_rows_set(**config)


def test_reliability_counters_independent_of_jobs(figure1_gqs):
    config = dict(crash_prob=0.2, disconnect_prob=0.3, samples=96, seed=11)
    reference = estimate_reliability(figure1_gqs, jobs=1, **config)
    for jobs in (2, 4):
        assert estimate_reliability(figure1_gqs, jobs=jobs, **config) == reference
        assert estimate_reliability_set(figure1_gqs, jobs=jobs, **config) == reference


# --------------------------------------------------------------------- #
# Public sweep JSON: byte-identical across engines and jobs counts
# --------------------------------------------------------------------- #
def test_sweep_json_bytes_identical_across_engines_and_jobs():
    outputs = set()
    for jobs in (1, 2, 4):
        outcome = api.sweep(
            kind="all", probs=(0.0, 0.3), n=4, patterns=2, samples=24, seed=5, jobs=jobs
        )
        outputs.add(outcome.to_json().encode("utf-8"))
        # What api.sweep computes, recomputed by the oracle engine.
        oracle = api.MonteCarloSweep(
            admissibility=admissibility_sweep_set(
                disconnect_probs=(0.0, 0.3), n=4, num_patterns=2, samples=24, seed=5, jobs=jobs
            ),
            reliability=reliability_sweep_set(
                figure1_quorum_system(),
                disconnect_probs=(0.0, 0.3), samples=24, seed=5, jobs=jobs,
            ),
        )
        outputs.add(oracle.to_json().encode("utf-8"))
    assert len(outputs) == 1
    payload = json.loads(outputs.pop().decode("utf-8"))
    assert set(payload) == {"admissibility", "reliability"}
    assert all(point["samples"] == 24 for point in payload["admissibility"])
