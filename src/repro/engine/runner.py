"""Parallel execution of sharded experiments with deterministic merging.

:class:`ParallelRunner` fans work items out across ``multiprocessing`` workers
and hands results back *in item order*, so merging is deterministic no matter
which worker finished first.  With ``jobs=1`` (the default) it degrades to a
plain serial loop in the calling process — no worker, no pickling — and it also
falls back to that loop when the platform offers no shared lock and counter.

The parallel path is self-scheduling: each of ``min(jobs, items)`` workers
claims the next position from one shared counter, runs its item and sends the
result back over its own pipe, tagged with the position.  The parent puts each
result in the slot its tag names and reports progress as the filled prefix
grows.  A tag that repeats, lies outside the items or never arrives ends the
run in a :class:`~repro.errors.ReproError` (``mis-routed result: …``), and a
worker that dies ends it naming the item it was running, instead of hanging
it.  A task that raises ends the run with the error of the lowest failing
position, the same way in both modes; a shard task's failure surfaces as a
``ReproError`` naming the spec, the shard index and the shard's derived seed.
Every worker is joined (killed first if still running) before a call returns
or raises.

Two entry points:

* :meth:`ParallelRunner.map` — ordered map of a picklable task over items
  (used for grid-sharded work such as per-pattern verification);
* :meth:`ParallelRunner.run_sharded` — flatten several
  :class:`~repro.engine.spec.ExperimentSpec` sample budgets into one task
  stream, execute, regroup by spec and merge (used for the Monte Carlo
  sweeps, where cross-grid-point parallelism matters on small grids).

Tasks must be module-level callables (or ``functools.partial`` of one) with
picklable arguments and results, so spawn-started workers can import them and
every worker can send its results back.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .spec import ExperimentSpec, ShardSpec

__all__ = ["ParallelRunner", "resolve_jobs"]

#: Progress callback: ``progress(done, total)`` after each completed item.
ProgressCallback = Callable[[int, int], None]

#: One tagged result: ``(position, ok, value)``, where ``value`` is the task's
#: result when ``ok`` and the exception that ended the item otherwise.
Arrival = Tuple[int, bool, Any]

#: A slot whose result has not arrived.
_PENDING = object()


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
    and scenarios would be unknown inside the workers.  The CLI mirrors
    ``--plugin`` modules into ``REPRO_PLUGINS`` before any worker starts, so
    both loading styles reach the workers.
    """
    from ..registry.plugins import load_env_plugins

    load_env_plugins()


def _serial(task: Callable[[Any], Any], work: Sequence[Any]) -> Iterator[Arrival]:
    """The serial loop: each item's tagged outcome in item order, up to the first failure."""
    for position, item in enumerate(work):
        try:
            result = task(item)
        except Exception as error:
            yield position, False, error
            return
        yield position, True, result


def _misrouted(text: str, *values: Any) -> ReproError:
    return ReproError("mis-routed result: " + text.format(*values))


def _serve(task, work, lock, shared, slot, connection) -> None:
    """A worker: claim the next position, run its item, send back the tagged result.

    ``shared`` holds the claim counter and then one claim per worker.  The
    claim is written to the worker's slot before the counter moves, so the
    parent can name the item a dead worker was running.  After a failure the
    worker moves the counter past the end: no later item starts.
    """
    import pickle  # deferred: only workers need these
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to act on
    _worker_initializer()
    total = len(work)
    counts = shared.create_memoryview().cast("q")
    while True:
        with lock:
            position = counts[1 + slot] = counts[0]
            counts[0] = position + 1
        if position >= total:
            return
        try:
            outcome = (position, True, task(work[position]))
        except Exception as error:
            outcome = (position, False, error)
        try:
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[1]:
                pickle.loads(payload)  # the exception must rebuild in the parent too
        except Exception as error:
            what = "result" if outcome[1] else "exception {}: {}".format(
                type(outcome[2]).__name__, outcome[2]
            )
            outcome = (position, False, ReproError(
                "work item {} of {}: its {} cannot be sent back: {}: {}".format(
                    position, total, what, type(error).__name__, error
                )
            ))
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        connection.send_bytes(payload)  # what the parent's ``recv`` unpickles
        if not outcome[1]:
            with lock:
                counts[0] = total
            return


class ParallelRunner:
    """Execute experiment shards across worker processes, deterministically.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs everything serially in-process (the
        graceful-fallback path); ``0`` means one worker per CPU.
    progress:
        Optional ``progress(done, total)`` callback, invoked in the parent
        process each time one more leading item is complete — the same calls,
        in the same order, whatever ``jobs`` is.
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

        Workers claim items one at a time and send back results tagged with
        the item's position; each result is placed by its tag, so the output
        list — and anything merged from it — is identical whether one worker
        or sixteen executed the tasks.
        """
        return self._run(task, list(items))

    def _run(
        self,
        task: Callable[[Any], Any],
        work: Sequence[Any],
        blame: Optional[Callable[[Any, Exception], Exception]] = None,
    ) -> List[Any]:
        """Ordered ``task(item)`` results, reporting progress as they complete.

        Each tagged arrival fills the slot its tag names; a tag outside the
        items, a second arrival for a slot, or a slot still empty when the
        stream ends is a ``ReproError``.  A failure ends the run once every
        item before it is in, with the error of the lowest failing position,
        serial or parallel alike; ``blame(item, error)`` may supply the
        exception raised in its place (chained to the original).
        """
        arrivals = self._open_stream(task, work)
        self.last_mode = "serial" if arrivals is None else "parallel"
        if arrivals is None:
            arrivals = _serial(task, work)
        total = len(work)
        slots: List[Any] = [_PENDING] * total
        done = 0
        failure: Optional[Tuple[int, Exception]] = None
        with contextlib.closing(arrivals):
            for position, ok, value in arrivals:
                if not 0 <= position < total:
                    failure = (min(done, total - 1), _misrouted(
                        "a result tagged {} arrived for work items 0-{}", position, total - 1
                    ))
                    break
                if slots[position] is not _PENDING:
                    failure = (position, _misrouted(
                        "work item {} of {} was answered twice", position, total
                    ))
                    break
                slots[position] = value
                if not ok and (failure is None or position < failure[0]):
                    failure = (position, value)
                due = total if failure is None else failure[0]
                while done < due and slots[done] is not _PENDING:
                    done += 1
                    self._report(done, total)
                if done == due and failure is not None:
                    break  # every item before the failure is in
            else:
                if failure is None and done < total:
                    failure = (done, _misrouted(
                        "work item {} of {} was never answered", done, total
                    ))
        if failure is None:
            return slots
        position, error = failure
        if blame is None:
            raise error
        raise blame(work[position], error) from error

    def _open_stream(
        self, task: Callable[[Any], Any], work: Sequence[Any]
    ) -> Optional[Iterator[Arrival]]:
        """The workers' tagged results for ``work``, or ``None`` for the serial loop."""
        if self.jobs == 1 or len(work) <= 1:
            return None
        try:
            import multiprocessing  # deferred: serial runs never pay for it
            from multiprocessing.heap import BufferWrapper

            context = self._mp_context or multiprocessing.get_context()
            lock = context.Lock()
            # The counter and one claim per worker, as int64s in the shared
            # buffer ``RawArray`` would wrap: without ``ctypes``, the parent
            # stays about 0.2 MiB smaller.
            shared = BufferWrapper(8 * (1 + min(self.jobs, len(work))))
        except (OSError, ImportError):
            # Platforms without usable semaphore or shared-memory support
            # (some sandboxes, AWS Lambda, ...): degrade to the serial path.
            # Only this set-up is guarded — an OSError raised *by a task* must
            # fail the run, not restart it serially.
            return None
        return self._stream(context, task, work, lock, shared)

    def _stream(self, context, task, work, lock, shared) -> Iterator[Arrival]:
        """Start one worker per claim slot of ``shared`` and yield their results as they arrive.

        The parent waits on every worker's pipe and process sentinel at once
        and never takes the claim lock, which a dead worker may hold.  A worker
        that exits with a non-zero code therefore ends the stream: the item it
        had claimed and not answered arrives as a failure, and a death outside
        any item is raised.  When the stream ends or is closed, every worker
        still running is killed, and every worker is joined.
        """
        from multiprocessing.connection import wait

        total = len(work)
        counts = shared.create_memoryview().cast("q")
        claims = counts[1:]
        counts[0] = 0
        for slot in range(len(claims)):
            claims[slot] = -1
        workers = []
        try:
            for slot in range(len(claims)):
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_serve, args=(task, work, lock, shared, slot, writer), daemon=True
                )
                with writer:  # once started, the worker holds the only write end
                    process.start()
                workers.append((process, reader))

            answered = [-1] * len(workers)
            readers = {reader: slot for slot, (_process, reader) in enumerate(workers)}
            sentinels = {process.sentinel: slot for slot, (process, _reader) in enumerate(workers)}
            while sentinels:
                for ready in wait(list(readers) + list(sentinels)):
                    if ready in readers:
                        try:
                            arrival = ready.recv()
                        except (EOFError, OSError):  # closed, or cut short by a death
                            del readers[ready]
                            continue
                        answered[readers[ready]] = arrival[0]
                        yield arrival
                    elif ready in sentinels:
                        slot = sentinels[ready]
                        process, reader = workers[slot]
                        if reader in readers and reader.poll():
                            continue  # read what it sent before it ended first
                        del sentinels[ready]
                        readers.pop(reader, None)
                        process.join()
                        if not process.exitcode:
                            continue
                        claimed = claims[slot]
                        if not (0 <= claimed < total and answered[slot] != claimed):
                            raise ReproError("a worker process exited with code {} outside "
                                             "any work item".format(process.exitcode))
                        yield claimed, False, ReproError(
                            "work item {} of {}: its worker process exited with code {}".format(
                                claimed, total, process.exitcode
                            )
                        )
                        return
        finally:
            for process, reader in workers:
                if process.exitcode is None:
                    process.kill()
                process.join()
                reader.close()

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

        All shards of all specs are claimed from one counter by one set of
        workers, so a four-point grid with three shards each keeps ``jobs=8``
        busy instead of parallelising only within a point.
        ``merge(spec, shard_results)`` receives the results in shard order; a
        spec with an empty budget gets an empty list.
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
