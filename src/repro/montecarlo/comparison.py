"""Admissibility comparison: how many fail-prone systems admit a GQS vs. stricter conditions.

The paper's headline message is that the generalized quorum system condition is
strictly weaker than previously known sufficient conditions (strong-connectivity
quorum systems, QS+), yet still tight.  This module quantifies the gap by Monte
Carlo sampling (experiment E6): random fail-prone systems are generated for a
sweep of channel-disconnection probabilities, and each is classified by which
quorum condition it admits.  The expected shape: the fraction admitting a GQS
dominates the fraction admitting a QS+, which dominates the (channel-failure
free) classical condition, with the gap widening as channel failures become
more likely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis.metrics import ResultTable
from ..engine import derive_seed
from ..engine.runner import ProgressCallback
from ..failures import FailProneSystem, FailurePattern
from ..quorums import gqs_exists, strong_system_exists
from .bitsampler import _admissibility_shard_bitset, _asymmetric_shard_bitset
from .study import (
    Fraction, Study, Tally, check_probabilities, check_sizes, fraction, partition_window,
)


@dataclass
class AdmissibilityPoint(Tally):
    """Classification counts for one parameter setting."""

    disconnect_prob: float
    crash_prob: float
    samples: int
    generalized: int = 0
    strong: int = 0
    classical: int = 0

    generalized_fraction = Fraction("generalized")
    strong_fraction = Fraction("strong")
    classical_fraction = Fraction("classical")


#: E6: ``(samples, generalized, strong, classical)`` shards per disconnection probability.
ADMISSIBILITY = Study(
    name="admissibility",
    axis="disconnect_prob",
    seed_rule=lambda seed, _index, p: derive_seed(seed, "admissibility", p),
    shard=_admissibility_shard_bitset,
    result=AdmissibilityPoint,
    grid=("disconnect_prob", "crash_prob"),
)


def admissibility_sweep(
    disconnect_probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    n: int = 5,
    num_patterns: int = 3,
    crash_prob: float = 0.2,
    samples: int = 50,
    max_crashes: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[AdmissibilityPoint]:
    """Classify random fail-prone systems across a channel-failure probability sweep.

    Each grid point's sample budget is sharded with deterministic per-shard
    seeds and all shards share one worker pool; the classification counts are
    independent of ``jobs``.
    """
    check_probabilities(disconnect_probs, crash_prob)
    check_sizes(n, num_patterns)
    return ADMISSIBILITY.run(
        disconnect_probs, samples, seed, jobs, chunk_size, progress,
        crash_prob=crash_prob, n=n, num_patterns=num_patterns, max_crashes=max_crashes,
    )


def admissibility_table(points: Iterable[AdmissibilityPoint]) -> ResultTable:
    """Format an admissibility sweep as a result table (the E6 'figure')."""
    table = ResultTable(
        title="E6: fraction of random fail-prone systems admitting each quorum condition",
        columns=["disconnect_prob", "classical", "strong (QS+)", "generalized (GQS)"],
    )
    for point in points:
        table.add_row(
            **{
                "disconnect_prob": point.disconnect_prob,
                "classical": point.classical_fraction,
                "strong (QS+)": point.strong_fraction,
                "generalized (GQS)": point.generalized_fraction,
            }
        )
    return table


def sample_asymmetric_partition_system(
    rng: random.Random,
    n: int = 4,
    num_patterns: int = 3,
    window_size: Optional[int] = None,
) -> FailProneSystem:
    """Sample a fail-prone system made of Figure 1 style asymmetric partitions.

    Each pattern keeps a random *window* of processes fully connected (the
    candidate write quorum), keeps one randomly chosen unidirectional channel
    from an outside "reader" process into the window, and lets every other
    channel between correct processes disconnect.  Processes outside the window
    and distinct from the reader may crash.  This is the adversarial shape that
    separates the GQS condition from the strongly connected QS+ condition:
    windows of different patterns may be disjoint, so a QS+ often does not
    exist, while readers can still bridge patterns into a valid GQS.
    """
    size = partition_window(n, window_size)
    check_sizes(n, num_patterns, size)
    processes = ["p{}".format(i) for i in range(n)]
    patterns = []
    for index in range(num_patterns):
        window = rng.sample(processes, size)
        outside = [p for p in processes if p not in window]
        reader = rng.choice(outside) if outside else None
        survivors = set(window) | ({reader} if reader is not None else set())
        crash = [p for p in processes if p not in survivors]
        correct = {(src, dst) for src in window for dst in window if src != dst}
        if reader is not None:
            correct.add((reader, rng.choice(window)))
        disconnect = [
            (src, dst)
            for src in survivors
            for dst in survivors
            if src != dst and (src, dst) not in correct
        ]
        patterns.append(FailurePattern(crash, disconnect, name="f{}".format(index)))
    return FailProneSystem(processes, patterns)


def _asymmetric_row(n: int, samples: int, strong: int = 0, generalized: int = 0) -> Dict[str, object]:
    """One system size's result-table row."""
    return {
        "n": n,
        "samples": samples,
        "strong (QS+)": fraction(strong, samples),
        "generalized (GQS)": fraction(generalized, samples),
        "gap": fraction(generalized - strong, samples),
    }


#: E6′: ``(samples, strong, generalized)`` shards per system size.
ASYMMETRIC_ADMISSIBILITY = Study(
    name="asymmetric-admissibility",
    axis="n",
    seed_rule=lambda seed, _index, n: derive_seed(seed, "asymmetric", n),
    shard=_asymmetric_shard_bitset,
    result=_asymmetric_row,
    grid=("n",),
)


def asymmetric_admissibility_sweep(
    n_values: Sequence[int] = (4, 5, 6),
    num_patterns: int = 3,
    samples: int = 100,
    seed: int = 0,
    window_size: Optional[int] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> ResultTable:
    """E6 (second series): admissibility under the asymmetric-partition distribution.

    Uniformly random channel failures rarely separate the GQS condition from
    the strongly connected QS+ condition (their large components overlap), so
    this sweep samples the Figure 1 style asymmetric partitions instead and
    reports, per system size, the fraction of systems admitting a QS+ and the
    fraction admitting a GQS.  The GQS column dominates — the quantitative form
    of "GQS is strictly weaker".
    """
    for n in n_values:
        check_sizes(n, num_patterns, partition_window(n, window_size))
    rows = ASYMMETRIC_ADMISSIBILITY.run(
        n_values, samples, seed, jobs, chunk_size, progress,
        num_patterns=num_patterns, window_size=window_size,
    )
    table = ResultTable(
        title="E6: admissibility under asymmetric partitions (GQS vs QS+)",
        columns=["n", "samples", "strong (QS+)", "generalized (GQS)", "gap"],
    )
    for row in rows:
        table.add_row(**row)
    return table


def gqs_strictly_weaker_examples(
    n: int = 5,
    num_patterns: int = 3,
    samples: int = 200,
    seed: int = 1,
    window_size: Optional[int] = None,
) -> List[FailProneSystem]:
    """Sample fail-prone systems that admit a GQS but no QS+ (witnesses of the gap).

    Witnesses are drawn from the asymmetric-partition distribution of
    :func:`sample_asymmetric_partition_system`; uniformly random channel
    failures almost never separate the two conditions (the largest strongly
    connected components of independent random graphs nearly always overlap),
    whereas asymmetric partitions — the failure mode reported in the study the
    paper cites — do so regularly.
    """
    check_sizes(n, num_patterns, partition_window(n, window_size))
    rng = random.Random(seed)
    witnesses: List[FailProneSystem] = []
    for _ in range(samples):
        system = sample_asymmetric_partition_system(
            rng, n=n, num_patterns=num_patterns, window_size=window_size
        )
        if gqs_exists(system) and not strong_system_exists(system):
            witnesses.append(system)
    return witnesses
