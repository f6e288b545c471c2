"""Machine-speed calibration for wall-clock metrics on a shared sandbox.

The 2-core sandbox this benchmark is sized for shares its host: for seconds
to minutes at a time everything in it runs 10-50 % slower, CPU time included,
one core often more than the other.  Measured at the parent commit, that made
the run-to-run spread of raw wall-clock medians 15-30 % (quartile distance
over ten seeds) — wider than any regression bound worth having — and moved
the median of ten runs by 20-40 % between a quiet and a busy quarter hour.

So every timed region is bracketed by *ticks*: a fixed pure-Python kernel whose
duration on the quiet sandbox is known.  Half of a tick is integer arithmetic
in a tight loop, half a breadth-first search over a dict-of-sets graph of about
a megabyte: under a busy host the library's set- and dict-heavy code slows
more than arithmetic alone does, and the blend tracked all six workloads
within a few percent where arithmetic alone left 10-20 % uncorrected.  The slowdown the ticks saw (their
median duration over :data:`NOMINAL_TICK_S`) divides the region's seconds,
which states them at the quiet machine's speed.  Inside a dead band around 1
the machine counts as quiet and the seconds stay exactly as measured: the
tick's own speed differs by a few percent from process to process, and a
quiet machine should add no calibration noise.  Raw medians and the slowdown
applied are reported next to the calibrated metrics.

Ticks run where the work runs: in this process for in-process workloads, in
two helper processes at once for workloads whose work happens in worker
processes or subprocesses.  Each helper is pinned to its own CPU — left to
the scheduler, both are often woken onto the waker's CPU and read a 2x
slowdown that is not there — and sleeps on a pipe while the workload runs.
"""

import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

#: Median tick on the quiet sandbox (parent commit, CPython 3.11).
NOMINAL_TICK_S = 0.0255

#: Slowdowns below this are treated as a quiet machine: no correction.
DEAD_BAND = 1.08

ARITHMETIC_LOOPS = 200_000
GRAPH_VERTICES = 3000
GRAPH = {
    vertex: frozenset((vertex * 7 + k * k * 13 + 1) % GRAPH_VERTICES for k in range(12))
    for vertex in range(GRAPH_VERTICES)
}
SEARCH_SOURCES = (0, 611, 1223, 1847, 2459)

#: Ticks per sample; one more runs first and is dropped, because a core that
#: idled while the work ran elsewhere starts its first tick slow.
TICKS_PER_SAMPLE = 5


def tick():
    start = time.perf_counter()
    total = 0
    for i in range(ARITHMETIC_LOOPS):
        total += i * i
    for source in SEARCH_SOURCES:
        seen = {source}
        frontier = [source]
        while frontier:
            reached = []
            for vertex in frontier:
                for successor in GRAPH[vertex]:
                    if successor not in seen:
                        seen.add(successor)
                        reached.append(successor)
            frontier = reached
    return time.perf_counter() - start


def sample(_=None):
    """Median tick seconds of this process right now."""
    tick()
    return statistics.median(tick() for _ in range(TICKS_PER_SAMPLE))


def slowdown_of(samples):
    """The slowdown a region's samples saw: 1.0 when the machine was quiet."""
    ratio = statistics.mean(samples) / NOMINAL_TICK_S
    return ratio if ratio > DEAD_BAND else 1.0


def _pin_to_next_cpu(cpus):
    os.sched_setaffinity(0, {cpus.get()})


class Calibration:
    """Slowdown of the machine over each region between two samples."""

    def __init__(self, processes=1):
        self.helpers = None
        cpus = sorted(os.sched_getaffinity(0))[:processes]
        if len(cpus) > 1:
            context = multiprocessing.get_context("spawn")
            queue = context.Queue()
            for cpu in cpus:
                queue.put(cpu)
            self.processes = len(cpus)
            self.helpers = ProcessPoolExecutor(
                max_workers=self.processes, mp_context=context,
                initializer=_pin_to_next_cpu, initargs=(queue,),
            )
        self.before = self.sample()

    def sample(self):
        if self.helpers is None:
            return sample()
        return statistics.mean(self.helpers.map(sample, range(self.processes)))

    def restart(self):
        """Begin a region now, when the previous sample has gone stale."""
        self.before = self.sample()

    def slowdown(self):
        """Sample now; the slowdown since the previous sample (1.0 when quiet)."""
        before, self.before = self.before, self.sample()
        return slowdown_of([before, self.before])

    def close(self):
        if self.helpers is not None:
            self.helpers.shutdown()
