"""The object-per-pattern Monte Carlo engine: samplers, predicates and shards.

Every sampled failure pattern is materialised as a
:class:`~repro.failures.FailurePattern`, wrapped in a fresh
:class:`~repro.failures.FailProneSystem` and evaluated through set-based
reachability, one quorum pair at a time — slow, and independent of every mask
the production shards compute.  The shards consume the RNG in the documented
draw order (see :mod:`repro.montecarlo.bitsampler`) and return the same
``(samples, *counters)`` tuples, and the ``*_set`` runners swap them into the
*production* studies (same grids, seed rules and summing merge), so a
differential test compares merged counters draw for draw.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.engine import ExperimentSpec, ShardSpec
from repro.failures import FailProneSystem, FailurePattern, random_failure_pattern
from repro.montecarlo import (
    AdmissibilityPoint,
    ReliabilityEstimate,
    sample_asymmetric_partition_system,
)
from repro.montecarlo.comparison import ADMISSIBILITY, ASYMMETRIC_ADMISSIBILITY
from repro.montecarlo.reliability import RELIABILITY
from repro.types import ProcessId

from .discovery import discover_naive, strong_system_exists_reference
from .graph import mutually_reachable, network, residual
from .predicates import is_f_available, is_f_reachable


def sample_pattern(
    processes: Sequence[ProcessId],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
) -> FailurePattern:
    """Sample one i.i.d. failure pattern, conditioned on at least one survivor.

    The all-crashed draw is adjusted by un-crashing one process chosen
    uniformly at random, spending one extra ``rng`` draw only in that branch.
    """
    crashed = [p for p in processes if rng.random() < crash_prob]
    if len(crashed) == len(processes):
        crashed.pop(rng.randrange(len(crashed)))
    survivors = [p for p in processes if p not in crashed]
    channels = [
        (src, dst)
        for src in survivors
        for dst in survivors
        if src != dst and rng.random() < disconnect_prob
    ]
    return FailurePattern(crashed, channels)


def sample_fail_prone_system(
    rng: random.Random,
    n: int,
    num_patterns: int,
    crash_prob: float,
    disconnect_prob: float,
    max_crashes: Optional[int] = None,
) -> FailProneSystem:
    """Sample one random fail-prone system: ``num_patterns`` i.i.d. patterns over ``p0..p{n-1}``.

    The admissibility sweep's distribution; ``bitsampler`` replays its draws
    at mask level.
    """
    processes = ["p{}".format(i) for i in range(n)]
    patterns = [
        random_failure_pattern(
            processes,
            rng,
            crash_prob=crash_prob,
            disconnect_prob=disconnect_prob,
            max_crashes=max_crashes,
            name="f{}".format(i),
        )
        for i in range(num_patterns)
    ]
    return FailProneSystem(processes, patterns)


def availability_under(quorum_system, pattern: FailurePattern) -> Tuple[bool, bool, bool]:
    """(GQS availability, QS+ availability, classical availability) for one pattern.

    The samplers draw a disconnect coin for *every* ordered pair of survivors;
    on a sparse network graph the pairs that are no channel are dropped here
    (the draws already happened), since a pattern may only disconnect channels
    that exist.
    """
    channels = network(quorum_system.fail_prone).edge_set()
    pattern = FailurePattern(
        pattern.crash_prone, pattern.disconnect_prone & channels, name=pattern.name
    )
    fail_prone = FailProneSystem(quorum_system.processes, [pattern], channels)
    correct = pattern.correct_processes(quorum_system.processes)
    graph = residual(fail_prone, pattern)

    gqs_ok = False
    strong_ok = False
    classical_ok = False
    for write_quorum in quorum_system.write_quorums:
        if not write_quorum <= correct:
            continue
        write_available = is_f_available(fail_prone, pattern, write_quorum)
        for read_quorum in quorum_system.read_quorums:
            if not read_quorum <= correct:
                continue
            classical_ok = True
            if write_available and is_f_reachable(fail_prone, pattern, write_quorum, read_quorum):
                gqs_ok = True
            if mutually_reachable(graph, read_quorum | write_quorum):
                strong_ok = True
        if gqs_ok and strong_ok and classical_ok:
            break
    return gqs_ok, strong_ok, classical_ok


# ---------------------------------------------------------------------- #
# Shards (same signature as the production ones: run inside a worker)
# ---------------------------------------------------------------------- #
def reliability_shard(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int, int]:
    """``(samples, GQS, QS+, classical)`` availability counts of one shard."""
    quorum_system = spec.params["quorum_system"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    rng = random.Random(shard.seed)
    processes = sorted(quorum_system.processes, key=repr)
    gqs_count = strong_count = classical_count = 0
    for _ in range(shard.samples):
        pattern = sample_pattern(processes, rng, crash_prob, disconnect_prob)
        gqs_ok, strong_ok, classical_ok = availability_under(quorum_system, pattern)
        gqs_count += gqs_ok
        strong_count += strong_ok
        classical_count += classical_ok
    return shard.samples, gqs_count, strong_count, classical_count


def _classify(system: FailProneSystem) -> Tuple[bool, bool]:
    """(GQS exists, QS+ exists) by the reference deciders."""
    return discover_naive(system, validate=False).exists, strong_system_exists_reference(system)


def admissibility_shard(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int, int]:
    """``(samples, GQS, QS+, classical)`` admission counts of one shard."""
    rng = random.Random(shard.seed)
    generalized_count = strong_count = classical_count = 0
    for _ in range(shard.samples):
        system = sample_fail_prone_system(
            rng,
            n=spec.params["n"],
            num_patterns=spec.params["num_patterns"],
            crash_prob=spec.params["crash_prob"],
            disconnect_prob=spec.params["disconnect_prob"],
            max_crashes=spec.params["max_crashes"],
        )
        generalized, strong = _classify(system)
        generalized_count += generalized
        strong_count += strong
        # Definition 1 applies only without channel failures (see
        # repro.quorums.classify_fail_prone_system).
        classical_count += strong and not system.allows_channel_failures()
    return shard.samples, generalized_count, strong_count, classical_count


def asymmetric_shard(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int]:
    """``(samples, QS+, GQS)`` admission counts of one shard."""
    rng = random.Random(shard.seed)
    strong_count = 0
    generalized_count = 0
    for _ in range(shard.samples):
        system = sample_asymmetric_partition_system(
            rng,
            n=spec.params["n"],
            num_patterns=spec.params["num_patterns"],
            window_size=spec.params["window_size"],
        )
        generalized, strong = _classify(system)
        strong_count += strong
        generalized_count += generalized
    return shard.samples, strong_count, generalized_count


# ---------------------------------------------------------------------- #
# Runners: the production studies, reference shards
# ---------------------------------------------------------------------- #
RELIABILITY_SET = replace(RELIABILITY, shard=reliability_shard)
ADMISSIBILITY_SET = replace(ADMISSIBILITY, shard=admissibility_shard)
ASYMMETRIC_ADMISSIBILITY_SET = replace(ASYMMETRIC_ADMISSIBILITY, shard=asymmetric_shard)


def estimate_reliability_set(
    quorum_system,
    crash_prob: float = 0.1,
    disconnect_prob: float = 0.2,
    samples: int = 200,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ReliabilityEstimate:
    (estimate,) = reliability_sweep_set(
        quorum_system, (disconnect_prob,), crash_prob, samples, seed, jobs, chunk_size
    )
    return estimate


def reliability_sweep_set(
    quorum_system,
    disconnect_probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    crash_prob: float = 0.1,
    samples: int = 200,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> List[ReliabilityEstimate]:
    return RELIABILITY_SET.run(
        disconnect_probs, samples, seed, jobs, chunk_size, None,
        quorum_system=quorum_system, crash_prob=crash_prob,
    )


def admissibility_sweep_set(
    disconnect_probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    n: int = 5,
    num_patterns: int = 3,
    crash_prob: float = 0.2,
    samples: int = 50,
    max_crashes: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> List[AdmissibilityPoint]:
    return ADMISSIBILITY_SET.run(
        disconnect_probs, samples, seed, jobs, chunk_size, None,
        crash_prob=crash_prob, n=n, num_patterns=num_patterns, max_crashes=max_crashes,
    )


def asymmetric_rows_set(
    n_values: Sequence[int] = (4, 5, 6),
    num_patterns: int = 3,
    samples: int = 100,
    seed: int = 0,
    window_size: Optional[int] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> List[dict]:
    """The rows :func:`repro.montecarlo.asymmetric_admissibility_sweep` tabulates."""
    return ASYMMETRIC_ADMISSIBILITY_SET.run(
        n_values, samples, seed, jobs, chunk_size, None,
        num_patterns=num_patterns, window_size=window_size,
    )
