"""Parallel execution of sharded experiments with deterministic merging.

:class:`ParallelRunner` fans shards out across ``multiprocessing`` workers and
hands results back *in submission order*, so merging is deterministic no matter
which worker finished first.  With ``jobs=1`` (the default) it degrades to a
plain serial loop in the calling process — no pool, no pickling — and it also
falls back to that loop when the platform cannot provide worker processes.
Every result comes back tagged with the position its item was submitted at,
and a tag other than the one due ends the run in a
:class:`~repro.errors.ReproError`: a mis-routed result never reaches a merge.
A task that raises ends the run at once, the same way in both modes; a shard
task's failure (or mis-routed result) surfaces as a ``ReproError`` naming the
spec, the shard index and the shard's derived seed.

Two entry points:

* :meth:`ParallelRunner.map` — ordered map of a picklable task over items
  (used for grid-sharded work such as per-pattern verification);
* :meth:`ParallelRunner.run_sharded` — flatten several
  :class:`~repro.engine.spec.ExperimentSpec` sample budgets into one task
  stream, execute, regroup by spec and merge (used for the Monte Carlo
  sweeps, where cross-grid-point parallelism matters on small grids).

Tasks must be module-level callables (or ``functools.partial`` of one) with
picklable arguments so worker processes can import them.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .spec import ExperimentSpec, ShardSpec

__all__ = ["ParallelRunner", "resolve_jobs"]

#: Progress callback: ``progress(done, total)`` after each completed item.
ProgressCallback = Callable[[int, int], None]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 → serial, 0 → one per CPU."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be non-negative (0 means one per CPU)")
    return jobs


def _invoke_shard_task(
    shard_task: Callable[[ExperimentSpec, ShardSpec], Any],
    item: Tuple[ExperimentSpec, ShardSpec],
) -> Any:
    """Module-level trampoline so flattened (spec, shard) work pickles cleanly."""
    spec, shard = item
    return shard_task(spec, shard)


def _tagged(task: Callable[[Any], Any], entry: Tuple[int, Any]) -> Tuple[int, Any]:
    """Worker-side trampoline: ``task(item)`` tagged with the item's submission position."""
    position, item = entry
    return position, task(item)


def _shard_failure(item: Tuple[ExperimentSpec, ShardSpec], error: Exception) -> ReproError:
    """What a failed shard surfaces as: enough to re-run exactly that shard."""
    spec, shard = item
    return ReproError(
        "shard {} of experiment {!r} (derived seed {}) failed: {}: {}".format(
            shard.index, spec.name, shard.seed, type(error).__name__, error
        )
    )


def _worker_initializer() -> None:
    """Prepare a fresh worker process: load the ``REPRO_PLUGINS`` plugins.

    Fork-started workers inherit the parent's extension registries, but
    spawn-started ones (the default on macOS/Windows) re-import :mod:`repro`
    from scratch — without this hook, plugin-registered protocols, topologies
    and scenarios would be unknown inside the pool.  The CLI mirrors
    ``--plugin`` modules into ``REPRO_PLUGINS`` before any pool is built, so
    both loading styles reach the workers.
    """
    from ..registry.plugins import load_env_plugins

    load_env_plugins()


class ParallelRunner:
    """Execute experiment shards across worker processes, deterministically.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs everything serially in-process (the
        graceful-fallback path); ``0`` means one worker per CPU.
    progress:
        Optional ``progress(done, total)`` callback, invoked in the parent
        process after each completed shard (chunked progress reporting).
    mp_context:
        Optional ``multiprocessing`` context, mainly for tests; defaults to
        the platform default.
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
        mp_context: Optional[Any] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        self._mp_context = mp_context
        #: How the most recent call executed: ``"serial"`` or ``"parallel"``.
        self.last_mode: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Ordered map
    # ------------------------------------------------------------------ #
    def map(self, task: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``task`` to every item, returning results in item order.

        Results are collected with ``Pool.imap`` (ordered) and each is checked
        against its item's position, so the output list — and anything merged
        from it — is identical whether one worker or sixteen executed the tasks.
        """
        return self._run(task, list(items))

    def _run(
        self,
        task: Callable[[Any], Any],
        work: Sequence[Any],
        blame: Optional[Callable[[Any, Exception], Exception]] = None,
    ) -> List[Any]:
        """Ordered ``task(item)`` results, reporting progress after each.

        A worker returns each result tagged with its item's position, and the
        result due at position ``i`` must carry tag ``i``: whatever permutes
        results between the pool and here ends the run in a ``ReproError``.
        That error, or an exception raised by a task, ends the run where the
        result was due, serial or parallel alike; ``blame(item, error)`` may
        supply the exception raised in its place (chained to the original).
        """
        pool = self._open_pool(len(work))
        self.last_mode = "serial" if pool is None else "parallel"
        results: List[Any] = []
        with pool if pool is not None else contextlib.nullcontext():
            if pool is None:
                outcomes = enumerate(map(task, work))
            else:
                outcomes = pool.imap(functools.partial(_tagged, task), enumerate(work))
            for position, item in enumerate(work):
                try:
                    tag, result = next(outcomes)
                    if tag != position:
                        raise ReproError(
                            "mis-routed result: the result of work item {} arrived where "
                            "item {} of {} was due".format(tag, position, len(work))
                        )
                except Exception as error:
                    if blame is None:
                        raise
                    raise blame(item, error) from error
                results.append(result)
                self._report(len(results), len(work))
        return results

    def _open_pool(self, tasks: int) -> Optional[Any]:
        """A worker pool for ``tasks`` items, or ``None`` for the serial loop."""
        if self.jobs == 1 or tasks <= 1:
            return None
        try:
            import multiprocessing  # deferred: serial runs never pay for it

            context = self._mp_context or multiprocessing.get_context()
            return context.Pool(
                processes=min(self.jobs, tasks), initializer=_worker_initializer
            )
        except (OSError, ImportError, PermissionError):
            # Platforms without usable process/semaphore support (some
            # sandboxes, AWS Lambda, ...): degrade to the serial path.  Only
            # pool creation is guarded — an OSError raised *by a task* must
            # fail the run, not restart it serially.
            return None

    def _report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    # ------------------------------------------------------------------ #
    # Sharded experiments
    # ------------------------------------------------------------------ #
    def run_sharded(
        self,
        specs: Sequence[ExperimentSpec],
        shard_task: Callable[[ExperimentSpec, ShardSpec], Any],
        merge: Callable[[ExperimentSpec, List[Any]], Any],
    ) -> List[Any]:
        """Execute every spec's shards (in one flattened stream) and merge.

        All shards of all specs share one worker pool, so a four-point grid
        with three shards each keeps ``jobs=8`` busy instead of parallelising
        only within a point.  ``merge(spec, shard_results)`` receives the
        results in shard order; a spec with an empty budget gets an empty list.
        """
        spec_list = list(specs)
        # Each work item carries only its own spec, so a task pickles one grid
        # point's payload, not the whole grid; the parent keeps the index map.
        spec_indices: List[int] = []
        flattened: List[Tuple[ExperimentSpec, ShardSpec]] = []
        for spec_index, spec in enumerate(spec_list):
            for shard in spec.shards():
                spec_indices.append(spec_index)
                flattened.append((spec, shard))
        task = functools.partial(_invoke_shard_task, shard_task)
        results = self._run(task, flattened, blame=_shard_failure)
        grouped: List[List[Any]] = [[] for _ in spec_list]
        for spec_index, result in zip(spec_indices, results):
            grouped[spec_index].append(result)
        return [merge(spec, shard_results) for spec, shard_results in zip(spec_list, grouped)]
