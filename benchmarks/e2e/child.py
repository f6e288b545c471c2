"""One workload, one pass, in one fresh process (started by ``run.py``).

The child measures its own set-up — from the moment the parent spawned it to
the end of a verified warm-up iteration — and then runs either the timed pass
(``--trace 0``: closed loop, one client, end-to-end metrics) or the traced
pass (``--trace 1``: untraced and span-recording iterations alternate on the
same seeds, per-layer metrics).  Its last line of standard output is one JSON
document for the parent.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from calibration import Calibration, sample, slowdown_of
from catalogue import unit_of
from spans import ITERATION, Tracer

PASS_TIMED, PASS_TRACED = 0, 1

#: A timed pass never reports a median over fewer iterations than this.
MIN_ITERATIONS = 5
MIN_TRACED_ITERATIONS = 2


def cpu_seconds():
    """User + system CPU of this process and of every descendant it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def upper_quartile(values):
    """p75: the highest percentile with ten samples beyond it at forty iterations."""
    return statistics.quantiles(values, n=4)[2] if len(values) >= 2 else values[0]


class Checks:
    """Failures and mismatches seen so far; every message names its iteration."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.errors = []
        self.units = 0
        self.failed = 0
        self.mismatches = 0
        self.digests = {}

    def judge(self, seed, raw, replay=False):
        """Judge one iteration; a traced replay adds errors but no units."""
        outcome = self.workload.judge(seed, raw)
        self.errors.extend("seed {}: {}".format(seed, error) for error in outcome.errors)
        if not replay:
            self.units += outcome.units
            self.failed += outcome.failed
            self.digests[str(seed)] = outcome.digest
            if self.expected.get(str(seed), outcome.digest) != outcome.digest:
                self.mismatch(seed, "output differs from the digest pinned in expected.json")
        return outcome

    def mismatch(self, seed, message):
        self.mismatches += 1
        self.errors.append("seed {}: {}".format(seed, message))


def loop_is_over(done, minimum, iterations, deadline):
    if iterations is not None:
        return done >= iterations
    return done >= minimum and time.perf_counter() >= deadline


def timed_pass(workload, checks, seed, seconds, iterations, calibration):
    raw_wall, wall, cpu, slowdowns, first = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    while not loop_is_over(len(wall), MIN_ITERATIONS, iterations, deadline):
        iteration_seed = seed + len(wall)
        gc.collect()
        cpu_start, start = cpu_seconds(), time.perf_counter()
        raw = workload.run(iteration_seed)
        seconds_taken = time.perf_counter() - start
        cpu_taken = cpu_seconds() - cpu_start
        slowdown = calibration.slowdown()
        raw_wall.append(seconds_taken)
        wall.append(seconds_taken / slowdown)
        cpu.append(cpu_taken / slowdown)
        slowdowns.append(slowdown)
        outcome = checks.judge(iteration_seed, raw)
        first = first or outcome
    metrics = {
        "iter_s_p50": statistics.median(wall),
        "units_per_s": checks.units / sum(wall),
        "cpu_s_per_iter": statistics.median(cpu),
        "iter_s_p50_raw": statistics.median(raw_wall),
        "machine_slowdown_p50": statistics.median(slowdowns),
        "failed_fraction": checks.failed / checks.units,
        "output_mismatch": checks.mismatches,
        "harness.iterations": len(wall),
        "harness.iter_s_p75": upper_quartile(wall),
    }
    metrics.update(first.counts)
    return metrics


def traced_pass(workload, checks, seed, seconds, iterations, out):
    # Ticks run where the work runs: run() may work in other processes, the
    # replay and the probes may not (see the workload's two attributes).
    ticks = {
        processes: Calibration(processes)
        for processes in {workload.tick_processes, workload.replay_tick_processes}
    }
    run_ticks = ticks[workload.tick_processes]
    replay_ticks = ticks[workload.replay_tick_processes]
    tracer = Tracer()
    reference_seconds, first = [], None
    deadline = time.perf_counter() + seconds
    while not loop_is_over(len(reference_seconds), MIN_TRACED_ITERATIONS, iterations, deadline):
        iteration_seed = seed + len(reference_seconds)
        gc.collect()
        run_ticks.restart()
        start = time.perf_counter()
        raw = workload.run(iteration_seed)
        seconds_taken = time.perf_counter() - start
        reference_seconds.append(seconds_taken / run_ticks.slowdown())
        reference = checks.judge(iteration_seed, raw)

        gc.collect()
        replay_ticks.restart()
        tracer.iteration = iteration_seed
        with tracer.span(ITERATION):
            raw, stats = workload.traced(iteration_seed, tracer)
        tracer.iteration = None
        tracer.scale[iteration_seed] = 1.0 / replay_ticks.slowdown()
        replayed = checks.judge(iteration_seed, raw, replay=True)
        if replayed.digest != reference.digest:
            checks.mismatch(iteration_seed, "traced replay is not byte-identical to the api output")
        for name, value in reference.counts.items():
            if stats.get(name, value) != value:
                checks.mismatch(iteration_seed, "{} differs between replay and api".format(name))
        first = first or (reference.counts, stats)

    replay_ticks.restart()
    probes = workload.probes()
    slowdown = replay_ticks.slowdown()
    for name, value in probes.items():
        # Seconds shrink and rates grow by the slowdown; counts stay.
        probes[name] = {"s": value / slowdown, "1/s": value * slowdown}.get(unit_of(name), value)
    for calibration in ticks.values():
        calibration.close()

    metrics = {
        "harness.iterations": len(reference_seconds),
        "harness.iter_s_p75": upper_quartile(reference_seconds),
        "harness.tracing_overhead": statistics.median(tracer.replay_seconds())
        / statistics.median(reference_seconds)
        - 1.0,
    }
    metrics.update(first[0])
    metrics.update(probes)
    metrics.update(workload.layer_metrics(tracer, first[1], reference_seconds, probes))
    os.makedirs(out, exist_ok=True)
    tracer.dump(
        os.path.join(out, "trace-{}.json".format(workload.name)),
        workload=workload.name,
        seed=seed,
        smoke=workload.smoke,
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--iterations", type=int, default=None,
                        help="run exactly this many iterations instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(PASS_TIMED, PASS_TRACED), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before it started this process")
    parser.add_argument("--parent-tick", type=float, required=True,
                        help="calibration tick seconds the parent measured just before that")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # Set-up, as a user pays it: import the library, build the inputs, run
    # one verified iteration.  Three tick samples bracket it — the parent's
    # before the spawn, one now, one at the end — and this one's own duration
    # does not count as set-up.
    tick_began = time.time()
    ticks = [args.parent_tick, sample()]
    tick_seconds = time.time() - tick_began
    from workloads import WORKLOADS

    size = "smoke" if args.smoke else "full"
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"),
              "r", encoding="utf-8") as handle:
        expected = json.load(handle).get(size, {}).get(args.workload, {})
    workload = WORKLOADS[args.workload](args.smoke, args.scratch)
    warmup = Checks(workload, expected)
    raw = workload.run(args.seed)
    # What one process needs to import the library and do the work once; a
    # peak over all iterations would instead track the heaviest seed met.
    peak_rss_mb = peak_rss_mib()
    outcome = warmup.judge(args.seed, raw)
    warmup.errors.extend(
        "warm-up: {}".format(error) for error in workload.verify_warmup(args.seed, raw, outcome)
    )
    setup_raw_s = time.time() - args.spawned_at - tick_seconds
    setup_s = setup_raw_s / slowdown_of(ticks + [sample()])

    checks = Checks(workload, expected)
    metrics = {}
    if not args.setup_only:
        if args.trace == PASS_TRACED:
            metrics = traced_pass(workload, checks, args.seed, args.seconds, args.iterations,
                                  args.out)
        else:
            calibration = Calibration(processes=workload.tick_processes)
            try:
                metrics = timed_pass(workload, checks, args.seed, args.seconds, args.iterations,
                                     calibration)
            finally:
                calibration.close()
    metrics.update(setup_s=setup_s, setup_s_raw=setup_raw_s, peak_rss_mb=peak_rss_mb)
    errors = warmup.errors + checks.errors
    for error in errors:
        sys.stderr.write("{}: {}\n".format(args.workload, error))
    print(json.dumps({
        "workload": args.workload,
        "unit": workload.unit,
        "correct": not errors,
        "attempted": checks.units or warmup.units,
        "failed": checks.failed + warmup.failed,
        "metrics": metrics,
        "digests": checks.digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
