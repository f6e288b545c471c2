"""Differential battery: the bitset Monte Carlo shards vs the set-based oracle.

The production shards (:mod:`repro.montecarlo.bitsampler`) are a faster
representation of the same experiment as the object-per-pattern engine in
``oracles.montecarlo``, never a different experiment.  These tests pin the
strongest form of that claim: for identical shard seeds the two consume the
RNG stream draw for draw and therefore produce **the same counters on every
sample**, not merely statistically compatible estimates.  The battery runs
the samplers head-to-head, sweeps ≥20 random systems and configurations
through both (the same studies with different shards), and checks the
public ``sweep`` JSON is byte-identical to the oracle's and across ``jobs``
counts.
"""

import json
import random

import pytest

from repro import api
from repro.analysis import figure1_quorum_system
from repro.engine import ShardSpec
from repro.failures import FailProneSystem, FailurePattern
from repro.graph import ProcessIndex, popcount
from repro.montecarlo import (
    admissibility_sweep,
    asymmetric_admissibility_sweep,
    reliability_sweep,
)
from repro.montecarlo.bitsampler import (
    _admissibility_shard_bitset,
    _coin_table,
    _reliability_shard_bitset,
    _sample_residual,
    sample_admissibility_masks,
    sample_reliability_masks,
)
from repro.montecarlo.comparison import ADMISSIBILITY
from repro.montecarlo.reliability import RELIABILITY
from repro.failures.generators import random_failure_pattern
from repro.quorums import GeneralizedQuorumSystem

from oracles.montecarlo import (
    admissibility_shard,
    admissibility_sweep_set,
    asymmetric_rows_set,
    estimate_reliability_set,
    reliability_shard,
    reliability_sweep_set,
    sample_pattern,
)


def reliability_point(quorum_system, disconnect_prob, **config):
    """One ``(crash, disconnect)`` point of the production sweep, compared with
    the oracle's single-spec ``estimate_reliability_set``."""
    return reliability_sweep(quorum_system, (disconnect_prob,), **config)[0]


def _random_quorum_system(rng, n, processes=None, channels=None):
    """A random (not necessarily valid) GQS — reliability estimation never
    consults validity, only the quorum families."""
    if processes is None:
        processes = ["p{}".format(i) for i in range(n)]
    fail_prone = FailProneSystem(
        processes, [FailurePattern.crash_only([processes[0]], name="f0")], channels
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


def _shard_result_and_end_state(monkeypatch, shard_fn, spec, shard):
    """Run one shard; return its result and the final state of the RNG it made."""
    created = []

    class RecordingRandom(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            created.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", RecordingRandom)
        result = shard_fn(spec, shard)
    (rng,) = created
    return result, rng.getstate()


@pytest.mark.parametrize("crash_prob,disconnect_prob", [(0.3, 0.4), (1.0, 0.0), (0.0, 1.0)])
def test_reliability_shard_is_a_stream_twin_of_the_oracle_shard(
    monkeypatch, figure1_gqs, crash_prob, disconnect_prob
):
    """Not one sampler call: the RNG a whole production shard leaves behind."""
    (spec,) = RELIABILITY.specs(
        (disconnect_prob,), 40, 3, None, quorum_system=figure1_gqs, crash_prob=crash_prob
    )
    shard = ShardSpec(index=0, samples=40, seed=1234)
    assert _shard_result_and_end_state(
        monkeypatch, _reliability_shard_bitset, spec, shard
    ) == _shard_result_and_end_state(monkeypatch, reliability_shard, spec, shard)


@pytest.mark.parametrize("max_crashes", [None, 0, 2])
@pytest.mark.parametrize("disconnect_prob", [0.0, 0.4, 1.0])
def test_admissibility_shard_is_a_stream_twin_of_the_oracle_shard(
    monkeypatch, disconnect_prob, max_crashes
):
    (spec,) = ADMISSIBILITY.specs(
        (disconnect_prob,), 30, 8, None, n=5, num_patterns=3, crash_prob=0.5,
        max_crashes=max_crashes,
    )
    shard = ShardSpec(index=0, samples=30, seed=4321)
    assert _shard_result_and_end_state(
        monkeypatch, _admissibility_shard_bitset, spec, shard
    ) == _shard_result_and_end_state(monkeypatch, admissibility_shard, spec, shard)


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
        assert reliability_point(quorum_system, **config) == estimate_reliability_set(
            quorum_system, **config
        ), (case, crash_prob, disconnect_prob, seed)


#: Every kernel branch by construction: no coin can land (p = 0), every coin
#: lands (p = 1: survivors are singletons), nobody may crash, everybody does
#: (the revival draw), one- and two-process systems, and systems with more
#: crash outcomes than one coin-table cache holds.
@pytest.mark.parametrize(
    "n,crash_prob,disconnect_prob",
    [
        (1, 0.5, 0.5), (1, 1.0, 0.0), (2, 0.5, 0.5), (2, 1.0, 1.0), (4, 1.0, 0.3),
        (5, 0.0, 0.0), (5, 0.0, 1.0), (5, 0.3, 1.0), (6, 1.0, 1.0),
        (9, 0.4, 0.1), (10, 0.5, 0.3), (11, 0.5, 0.05), (12, 0.6, 0.2),
    ],
)
def test_reliability_counters_equal_on_kernel_branches(n, crash_prob, disconnect_prob):
    quorum_system = _random_quorum_system(random.Random(n), n)
    config = dict(
        crash_prob=crash_prob, disconnect_prob=disconnect_prob, samples=48, seed=100 + n
    )
    assert reliability_point(quorum_system, **config) == estimate_reliability_set(
        quorum_system, **config
    )


def test_battery_parameters_reach_every_kernel_branch():
    """The configurations above are not hopeful: each branch of the kernel is
    counted on them — complete, strongly connected and split residuals, the
    crash limit (also 0), the revival draw, and coin-table eviction."""

    def census(n, crash_prob, disconnect_prob, limit, draws=300, seed=1):
        rng = random.Random(seed)
        kinds = {"complete": 0, "connected": 0, "split": 0}
        survivors_seen = set()
        for _ in range(draws):
            survivors, components, succ, pred = _sample_residual(
                tuple(range(n)), rng, crash_prob, disconnect_prob, limit
            )
            assert (succ is None) == (pred is None)
            assert sum(components) == survivors  # a partition of the survivors
            survivors_seen.add(popcount(survivors))
            connected = "connected" if len(components) == 1 else "split"
            kinds["complete" if pred is None else connected] += 1
        return kinds, survivors_seen

    kinds, _ = census(5, 0.2, 0.2, 4)
    assert all(kinds.values()), kinds
    assert census(5, 0.3, 0.0, 4)[0] == {"complete": 300, "connected": 0, "split": 0}
    kinds, sizes = census(5, 0.0, 1.0, 4)
    assert kinds == {"complete": 0, "connected": 0, "split": 300} and sizes == {5}
    assert census(5, 0.9, 0.5, 0)[1] == {5}  # limit 0: nobody may crash
    assert census(6, 1.0, 0.5, 2)[1] == {4}  # the limit stops the crash coins
    assert census(6, 1.0, 0.5, 6)[1] == {1}  # no limit, all crashed: one revived
    assert census(1, 1.0, 0.5, 1)[1] == {1}
    # More crash outcomes than the table holds: old entries are evicted, and
    # whatever is rebuilt later still agrees with the oracle (tests above).
    _coin_table.cache_clear()
    census(12, 0.5, 0.1, 11, draws=3000)
    info = _coin_table.cache_info()
    assert info.currsize == info.maxsize < info.misses


def _ring(processes, hops):
    """Every process has a channel to the ``h``-th next one, for ``h`` in ``hops``."""
    n = len(processes)
    return [(processes[i], processes[(i + h) % n]) for i in range(n) for h in hops]


@pytest.mark.parametrize("disconnect_prob", [0.0, 0.2, 0.5])
@pytest.mark.parametrize(
    "n,hops", [(5, (1,)), (6, (1, -1)), (6, (1, 2)), (7, (1, 3)), (8, (1, -1, 4))]
)
def test_reliability_counters_equal_on_sparse_networks(n, hops, disconnect_prob):
    """Rings and 2-regular graphs: "no coin landed" is not "complete residual"
    here, and coins are still drawn for the pairs that are no channel."""
    processes = ["p{}".format(i) for i in range(n)]
    quorum_system = _random_quorum_system(
        random.Random(n * 31 + len(hops)), n, processes, _ring(processes, hops)
    )
    for crash_prob in (0.0, 0.2):
        config = dict(
            crash_prob=crash_prob, disconnect_prob=disconnect_prob, samples=60, seed=n
        )
        assert reliability_point(quorum_system, **config) == estimate_reliability_set(
            quorum_system, **config
        ), crash_prob


@pytest.mark.parametrize("graph_hops", [None, (1, 2)])
def test_reliability_counters_equal_on_mixed_type_ids(graph_hops):
    """``sorted(key=repr)`` puts ``'a'`` before ``1``; bit order does the
    opposite — the coin table must follow the sampler, not the index."""
    processes = [1, 2, "a", "b", 3]
    index = ProcessIndex(processes)
    assert [index.position(p) for p in sorted(processes, key=repr)] != list(range(5))
    channels = None if graph_hops is None else _ring(processes, graph_hops)
    quorum_system = _random_quorum_system(random.Random(5), 5, processes, channels)
    for disconnect_prob in (0.0, 0.3, 0.6):
        config = dict(crash_prob=0.3, disconnect_prob=disconnect_prob, samples=80, seed=21)
        assert reliability_point(quorum_system, **config) == estimate_reliability_set(
            quorum_system, **config
        ), disconnect_prob


@pytest.mark.parametrize(
    "n,num_patterns,crash_prob,disconnect_prob,max_crashes,samples",
    [
        (1, 1, 0.5, 0.5, None, 20), (1, 3, 1.0, 1.0, 0, 20), (2, 1, 0.5, 0.5, None, 30),
        (2, 3, 1.0, 1.0, None, 30), (5, 1, 0.2, 0.3, None, 40), (5, 3, 0.5, 0.0, 0, 40),
        (5, 3, 0.5, 1.0, 0, 40), (6, 2, 1.0, 0.0, None, 30), (6, 4, 1.0, 1.0, 3, 30),
        (4, 3, 0.0, 1.0, None, 30), (9, 3, 0.5, 0.15, None, 12), (10, 2, 0.5, 0.3, None, 8),
        (11, 1, 0.5, 0.2, None, 8), (12, 2, 0.6, 0.1, 11, 6),
    ],
)
def test_admissibility_counters_equal_on_kernel_branches(
    n, num_patterns, crash_prob, disconnect_prob, max_crashes, samples
):
    config = dict(
        disconnect_probs=(disconnect_prob,), n=n, num_patterns=num_patterns,
        crash_prob=crash_prob, samples=samples, max_crashes=max_crashes, seed=n + num_patterns,
    )
    assert admissibility_sweep(**config) == admissibility_sweep_set(**config)


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
    reference = reliability_point(figure1_gqs, jobs=1, **config)
    for jobs in (2, 4):
        assert reliability_point(figure1_gqs, jobs=jobs, **config) == reference
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
