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
from ..engine import DEFAULT_CHUNK_SIZE, ExperimentSpec, ParallelRunner
from ..engine.runner import ProgressCallback
from ..errors import ReproError
from ..quorums import GeneralizedQuorumSystem


@dataclass
class ReliabilityEstimate:
    """Availability estimates for one (crash, disconnect) probability point."""

    crash_prob: float
    disconnect_prob: float
    samples: int
    gqs_available: int = 0
    strong_available: int = 0
    classical_available: int = 0

    @property
    def gqs_availability(self) -> float:
        return self.gqs_available / self.samples if self.samples else 0.0

    @property
    def strong_availability(self) -> float:
        return self.strong_available / self.samples if self.samples else 0.0

    @property
    def classical_availability(self) -> float:
        return self.classical_available / self.samples if self.samples else 0.0


def _reliability_spec(
    quorum_system: GeneralizedQuorumSystem,
    crash_prob: float,
    disconnect_prob: float,
    samples: int,
    seed: int,
    chunk_size: Optional[int],
) -> ExperimentSpec:
    """Engine spec for one (crash, disconnect) grid point."""
    spec = ExperimentSpec(
        name="reliability",
        samples=samples,
        seed=seed,
        chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
    )
    return spec.with_params(
        quorum_system=quorum_system,
        crash_prob=crash_prob,
        disconnect_prob=disconnect_prob,
    )


def _merge_reliability(
    spec: ExperimentSpec, shard_estimates: List[ReliabilityEstimate]
) -> ReliabilityEstimate:
    """Merge per-shard estimates for one grid point, preserving sample counts.

    Every shard must carry the grid point's own ``(crash_prob,
    disconnect_prob)``: a shard routed here from another spec would silently
    corrupt the counters it is summed into, so a mismatch raises instead.
    """
    merged = ReliabilityEstimate(
        crash_prob=spec.params["crash_prob"],
        disconnect_prob=spec.params["disconnect_prob"],
        samples=0,
    )
    for estimate in shard_estimates:
        if (
            estimate.crash_prob != merged.crash_prob
            or estimate.disconnect_prob != merged.disconnect_prob
        ):
            raise ReproError(
                "mis-routed reliability shard: estimate for (crash={}, disconnect={}) "
                "cannot merge into grid point (crash={}, disconnect={})".format(
                    estimate.crash_prob,
                    estimate.disconnect_prob,
                    merged.crash_prob,
                    merged.disconnect_prob,
                )
            )
        merged.samples += estimate.samples
        merged.gqs_available += estimate.gqs_available
        merged.strong_available += estimate.strong_available
        merged.classical_available += estimate.classical_available
    return merged


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
    from .bitsampler import _reliability_shard_bitset  # imports this module

    runner = ParallelRunner(jobs=jobs, progress=progress)
    specs = [
        _reliability_spec(
            quorum_system, crash_prob, p, samples, seed + index, chunk_size
        )
        for index, p in enumerate(disconnect_probs)
    ]
    return runner.run_sharded(specs, _reliability_shard_bitset, _merge_reliability)


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
