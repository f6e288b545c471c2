"""Experiment specifications and their deterministic shard decomposition.

An :class:`ExperimentSpec` names one unit of Monte Carlo work: a system under
study (carried opaquely in ``params``), one grid point, a sample budget and a
root seed.  Its :meth:`~ExperimentSpec.shards` method splits the budget into
fixed-size :class:`ShardSpec` chunks with per-shard seeds spawned from the root
seed.  The decomposition depends only on ``(name, seed, samples, chunk_size)``
— never on the worker count — which is what makes results reproducible across
``jobs`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Tuple

from .seeding import spawn_seeds

__all__ = ["DEFAULT_CHUNK_SIZE", "ExperimentSpec", "ShardSpec"]

#: Samples per shard unless a spec overrides it.  Small enough that a default
#: sweep (tens of samples per grid point) still splits into several shards —
#: giving parallelism and chunked progress — yet large enough that the
#: per-shard RNG/IPC overhead stays negligible.
DEFAULT_CHUNK_SIZE = 16


@dataclass(frozen=True)
class ShardSpec:
    """One chunk of an experiment's sample budget with its own derived seed."""

    index: int
    samples: int
    seed: int


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a named grid point with a sample budget and a root seed.

    Parameters
    ----------
    name:
        Identifies the experiment family; it salts the shard seeds, so two
        specs with the same root seed but different names draw unrelated
        sample streams.
    samples:
        Total Monte Carlo sample budget, split across shards.
    seed:
        Root seed for the whole spec; shard seeds are spawned from it.
    params:
        Opaque grid-point parameters handed to the shard task (for example the
        quorum system under study and the failure probabilities).
    chunk_size:
        Samples per shard; the last shard takes the remainder.
    """

    name: str
    samples: int
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError("samples must be non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    def shards(self) -> Tuple[ShardSpec, ...]:
        """Split the sample budget into deterministic fixed-size shards.

        The shard list is a pure function of the spec: the same name, seed,
        budget and chunk size always produce the same shards, independent of
        how many workers later execute them.
        """
        sizes = []
        remaining = self.samples
        while remaining > 0:
            size = min(self.chunk_size, remaining)
            sizes.append(size)
            remaining -= size
        seeds = spawn_seeds(self.seed, len(sizes), self.name)
        return tuple(
            ShardSpec(index=index, samples=size, seed=seeds[index])
            for index, size in enumerate(sizes)
        )
