"""The one shape of a Monte Carlo study: a grid of specs, counter shards, summed merges.

Every study sweeps one parameter over a grid.  Each grid point is an
:class:`~repro.engine.ExperimentSpec` whose shards return plain counter tuples
``(samples, *counters)``; the merge sums them column by column and hands the
totals, after the grid point's own parameters, to the study's result type.
The engine checks that every shard result is routed to the position it was
submitted at, so a merge never sees another point's counters.  A counter is
read as a share of the samples by one rule, :func:`fraction`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import DEFAULT_CHUNK_SIZE, ExperimentSpec, ParallelRunner, ShardSpec
from ..engine.runner import ProgressCallback
from ..errors import ReproError


def fraction(count: int, samples: int) -> float:
    """``count`` as a share of ``samples``; 0.0 when nothing was sampled."""
    return count / samples if samples else 0.0


class Fraction:
    """A read-only property: a counter field as a :func:`fraction` of ``samples``."""

    def __init__(self, counter: str) -> None:
        self.counter = counter

    def __get__(self, point: Any, owner: Any = None) -> Any:
        return self if point is None else fraction(getattr(point, self.counter), point.samples)


class Tally:
    """Base of a study's per-point result: counter fields and their :class:`Fraction` s."""

    def to_dict(self) -> Dict[str, Any]:
        """The fields, then every fraction in the order the class declares it."""
        shares = {
            name: getattr(self, name)
            for name, value in vars(type(self)).items()
            if isinstance(value, Fraction)
        }
        return dict(asdict(self), **shares)


def check_probabilities(disconnect_probs: Sequence[float], crash_prob: float) -> None:
    """Refuse a probability outside [0, 1] (``nan`` included) before any shard runs."""
    if not all(0.0 <= p <= 1.0 for p in (*disconnect_probs, crash_prob)):
        raise ReproError(
            "probabilities must lie in [0, 1] (got disconnect_probs {}, crash_prob {})".format(
                list(disconnect_probs), crash_prob
            )
        )


def partition_window(n: int, window_size: Optional[int]) -> int:
    """The asymmetric-partition window: ``window_size``, else ``max(2, n // 2)``."""
    return window_size if window_size is not None else max(2, n // 2)


def check_sizes(n: int, num_patterns: int, window: Optional[int] = None) -> None:
    """Refuse a system no sample can be drawn from, before any shard runs.

    ``n`` and ``num_patterns`` are at least 1 (an empty fail-prone system
    admits every condition vacuously); an asymmetric-partition study also
    passes its effective ``window``, which must hold 1 to ``n`` processes.
    """
    for name, value in (("n", n), ("num_patterns", num_patterns)):
        if value < 1:
            raise ReproError("a Monte Carlo study needs {} >= 1 (got {})".format(name, value))
    if window is not None and not 1 <= window <= n:
        raise ReproError(
            "an asymmetric-partition window holds 1 to n processes (got {} with n {})".format(
                window, n
            )
        )


@dataclass(frozen=True)
class Study:
    """What one Monte Carlo study fixes, whatever grid it is run on.

    ``seed_rule(root seed, grid index, grid value)`` is the grid point's spec
    seed; ``result(*grid values, samples, *counters)`` builds the merged
    point, where the grid values are the spec parameters named by ``grid``.
    """

    name: str
    axis: str
    seed_rule: Callable[[int, int, Any], int]
    shard: Callable[[ExperimentSpec, ShardSpec], Tuple[int, ...]]
    result: Callable[..., Any]
    grid: Tuple[str, ...]

    def specs(
        self, values: Sequence[Any], samples: int, seed: int, chunk_size: Optional[int], **params: Any
    ) -> List[ExperimentSpec]:
        """One spec per grid value: ``params`` plus the value under :attr:`axis`."""
        return [
            ExperimentSpec(
                name=self.name,
                samples=samples,
                seed=self.seed_rule(seed, index, value),
                chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
                params=dict(params, **{self.axis: value}),
            )
            for index, value in enumerate(values)
        ]

    def merge(self, spec: ExperimentSpec, shard_counts: List[Tuple[int, ...]]) -> Any:
        """Sum the shards' counter tuples into one result for ``spec``'s grid point."""
        # An empty budget has no shards: zero samples, every counter at its default.
        totals = [sum(column) for column in zip(*shard_counts)] or [0]
        return self.result(*(spec.params[name] for name in self.grid), *totals)

    def run(
        self,
        values: Sequence[Any],
        samples: int,
        seed: int,
        jobs: int,
        chunk_size: Optional[int],
        progress: Optional[ProgressCallback],
        **params: Any,
    ) -> List[Any]:
        """Every grid point's shards over one worker pool, merged in grid order."""
        runner = ParallelRunner(jobs=jobs, progress=progress)
        specs = self.specs(values, samples, seed, chunk_size, **params)
        return runner.run_sharded(specs, self.shard, self.merge)


__all__ = [
    "Fraction", "Study", "Tally", "check_probabilities", "check_sizes", "fraction",
    "partition_window",
]
