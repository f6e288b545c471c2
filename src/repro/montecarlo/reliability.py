"""Monte Carlo reliability of concrete quorum systems under random failures.

Given a fixed quorum system (classical or generalized) these routines estimate
the probability that its Availability condition holds when processes crash and
channels disconnect *independently at random* — the classical "quorum system
reliability" question (Naor & Wool) transplanted to the paper's channel-failure
model.  They quantify how much availability the GQS relaxation buys for a fixed
set of quorums: a GQS only needs one strongly connected write quorum reachable
from a read quorum, whereas the QS+ condition needs a strongly connected
read∪write pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..analysis.metrics import ResultTable
from ..engine.runner import ProgressCallback
from ..quorums import GeneralizedQuorumSystem
from .bitsampler import _reliability_shard_bitset
from .study import Fraction, Study, Tally, check_probabilities


@dataclass
class ReliabilityEstimate(Tally):
    """Availability estimates for one (crash, disconnect) probability point."""

    crash_prob: float
    disconnect_prob: float
    samples: int
    gqs_available: int = 0
    strong_available: int = 0
    classical_available: int = 0

    gqs_availability = Fraction("gqs_available")
    strong_availability = Fraction("strong_available")
    classical_availability = Fraction("classical_available")


#: ``(samples, gqs, strong, classical)`` availability shards per disconnection
#: probability; the grid point at ``index`` is seeded ``seed + index``.
RELIABILITY = Study(
    name="reliability",
    axis="disconnect_prob",
    seed_rule=lambda seed, index, _p: seed + index,
    shard=_reliability_shard_bitset,
    result=ReliabilityEstimate,
    grid=("crash_prob", "disconnect_prob"),
)


def reliability_sweep(
    quorum_system: GeneralizedQuorumSystem,
    disconnect_probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    crash_prob: float = 0.1,
    samples: int = 200,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[ReliabilityEstimate]:
    """Sweep the disconnection probability, keeping the crash probability fixed.

    All grid points share one worker pool, so parallelism spans the whole
    sweep rather than a single point.
    """
    check_probabilities(disconnect_probs, crash_prob)
    return RELIABILITY.run(
        disconnect_probs, samples, seed, jobs, chunk_size, progress,
        quorum_system=quorum_system, crash_prob=crash_prob,
    )


def reliability_table(estimates: Iterable[ReliabilityEstimate]) -> ResultTable:
    """Format reliability estimates as a result table."""
    table = ResultTable(
        title="Quorum availability under i.i.d. process/channel failures",
        columns=[
            "disconnect_prob",
            "crash_prob",
            "classical availability",
            "QS+ availability",
            "GQS availability",
        ],
    )
    for estimate in estimates:
        table.add_row(
            **{
                "disconnect_prob": estimate.disconnect_prob,
                "crash_prob": estimate.crash_prob,
                "classical availability": estimate.classical_availability,
                "QS+ availability": estimate.strong_availability,
                "GQS availability": estimate.gqs_availability,
            }
        )
    return table
