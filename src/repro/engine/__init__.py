"""Parallel experiment engine: deterministic sharded Monte Carlo execution.

The engine is the substrate the repository's experiment sweeps run on.  It
splits a sample budget into fixed-size shards with deterministically spawned
seeds (:mod:`~repro.engine.spec`, :mod:`~repro.engine.seeding`) and executes
them across ``multiprocessing`` workers with order-preserving merges
(:mod:`~repro.engine.runner`).  The contract: **identical seeds produce
identical merged results regardless of the number of jobs** — parallelism is
an execution detail, never part of the experiment's definition.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".runner": ("ParallelRunner", "ProgressCallback", "resolve_jobs"),
    ".seeding": ("derive_seed", "spawn_seeds"),
    ".spec": ("DEFAULT_CHUNK_SIZE", "ExperimentSpec", "ShardSpec"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
