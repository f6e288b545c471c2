"""End-to-end and per-layer benchmark of the ``repro`` library: one command.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                 [--trace 0|1 | --traced] [--smoke]
                                 [--repeat N [--check-agreement]] [--out DIR]

Each workload runs in its own fresh child process (``child.py``,
``PYTHONHASHSEED=0``, ``PYTHONPATH=src``), one after the other.  Load is
closed-loop with one client and at most two worker processes.  Without
``--workload`` all six run; without ``--trace`` both passes run (timed, then
traced).  Every metric is printed by name with its unit; the exit code is
non-zero when any output check failed.

With one workload and one pass the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}`` — end-to-end
metrics for ``--trace 0``, per-layer metrics for ``--trace 1``.  Otherwise the
last line is a report holding one such object per workload and pass.

See README.md in this directory for the metric glossary.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibration import sample
from catalogue import (
    END_TO_END,
    EXACT,
    PER_LAYER,
    RUN_SECONDS,
    UNGATED_END_TO_END,
    WORKLOADS,
    unit_of,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Everything the benchmark writes lands here (inside the checkout, ignored by git).
WORK_DIR = os.path.join(ROOT, ".bench_e2e")

#: ``setup_s`` is the median over this many fresh children.
SETUP_REPEATS = 3

CHILD_TIMEOUT_S = 170

#: ``--update-expected`` pins the output digests of this many iteration seeds.
PINNED_SEEDS = 40

PASS_NAMES = {0: "timed", 1: "traced"}


def fail(message, code=2):
    sys.stderr.write("benchmarks/e2e/run.py: {}\n".format(message))
    sys.exit(code)


def run_child(args, workload, trace, scratch, setup_only=False):
    """Run ``child.py`` once in a fresh interpreter and return its JSON document."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    inherited = os.environ.get("PYTHONPATH")
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([inherited] if inherited else [])
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scratch", scratch, "--out", args.out,
    ]
    if args.smoke:
        command += ["--smoke", "--iterations", "1" if trace else "2"]
    elif args.update_expected:
        command += ["--iterations", str(PINNED_SEEDS)]
    if setup_only:
        command.append("--setup-only")
    command += ["--parent-tick", repr(sample()), "--spawned-at", repr(time.time())]
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE,
            universal_newlines=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("{} did not finish within {} s".format(workload, CHILD_TIMEOUT_S), code=1)
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        fail("{} child exited with code {}".format(workload, finished.returncode), code=1)
    return json.loads(lines[-1])


def run_pass(args, workload, trace):
    """One workload, one pass: the result object in the driver's format, plus digests."""
    scratch = os.path.join(WORK_DIR, "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        documents = [run_child(args, workload, trace, scratch)]
        if trace == 0 and not args.smoke:
            # Set-up is paid once per process, so it is sampled by starting
            # more processes; the median keeps one slow start from gating.
            documents += [
                run_child(args, workload, trace, scratch, setup_only=True)
                for _ in range(SETUP_REPEATS - 1)
            ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    main = documents[0]
    measured = dict(main["metrics"])
    for name in ("setup_s", "setup_s_raw"):
        measured[name] = statistics.median(d["metrics"][name] for d in documents)

    if trace == 0:
        gated = list(END_TO_END)
        printed = gated + list(UNGATED_END_TO_END) + sorted(
            name for name in measured if name in PER_LAYER
        )
    else:
        gated = printed = list(PER_LAYER)
        unknown = sorted(set(measured) - set(PER_LAYER) - set(END_TO_END) - set(UNGATED_END_TO_END))
        if unknown:
            fail("{} emitted undeclared metrics {}".format(workload, unknown), code=1)
    # A layer that is not on a workload's path did no work there: it reads 0.
    values = {name: measured.get(name, 0.0) for name in printed}
    samples = measured["harness.iterations"]
    for name in printed:
        note = "  (n={})".format(samples) if name.startswith(("iter_s", "harness.iter_s")) else ""
        print("{:<20} {:<7} {:<40} {:>16.6f} {}{}".format(
            workload, PASS_NAMES[trace], name, values[name], unit_of(name), note))
    return {
        "correct": all(d["correct"] for d in documents),
        "attempted": main["attempted"],
        "failed": sum(d["failed"] for d in documents),
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in gated},
        "reported": {name: values[name] for name in printed},
        "digests": main["digests"],
    }


def run_all(args, workloads, passes):
    report = {}
    for workload in workloads:
        report[workload] = {PASS_NAMES[trace]: run_pass(args, workload, trace) for trace in passes}
    return report


def disagreements(first, second):
    """Where two reports of the same code differ by more than the benchmark allows."""
    found = []
    for workload in first:
        for pass_name in first[workload]:
            one = first[workload][pass_name]["reported"]
            two = second[workload][pass_name]["reported"]
            for name in one:
                if name in EXACT and one[name] != two[name]:
                    found.append("{} {}: exact metric read {} then {}".format(
                        workload, name, one[name], two[name]))
                elif name in END_TO_END:
                    bound = END_TO_END[name]["bound"]
                    if abs(two[name] - one[name]) > bound * one[name]:
                        found.append("{} {}: {} then {} differ by more than {:.0%}".format(
                            workload, name, one[name], two[name], bound))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None, help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; iteration i uses seed + i (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each pass measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass only; 1: traced pass only (default: both)")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, 1 warm-up + 2 iterations: a functional check")
    parser.add_argument("--repeat", type=int, default=1, help="run everything N times")
    parser.add_argument("--check-agreement", action="store_true",
                        help="with --repeat: fail if two repeats disagree beyond the bounds")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's output digests in expected.json")
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "out"),
                        help="where trace-<workload>.json and results.json go")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("no library to measure: {} is missing".format(os.path.join("src", "repro")))
    if args.workload is not None and args.workload not in WORKLOADS:
        fail("unknown workload {!r}; expected one of {}".format(args.workload, WORKLOADS))
    if args.seconds is None:
        args.seconds = RUN_SECONDS
    args.out = os.path.abspath(args.out)
    workloads = [args.workload] if args.workload else WORKLOADS
    passes = [args.trace] if args.trace is not None else [0, 1]
    if args.update_expected:
        passes = [0]

    reports = [run_all(args, workloads, passes) for _ in range(args.repeat)]
    results = [
        result for report in reports for by_pass in report.values() for result in by_pass.values()
    ]
    correct = all(result["correct"] for result in results)

    if args.check_agreement:
        for problem in (p for later in reports[1:] for p in disagreements(reports[0], later)):
            correct = False
            sys.stderr.write("disagreement: {}\n".format(problem))

    if args.update_expected:
        size = "smoke" if args.smoke else "full"
        path = os.path.join(HERE, "expected.json")
        with open(path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        for workload, by_pass in reports[0].items():
            pinned = expected.setdefault(size, {}).setdefault(workload, {})
            for result in by_pass.values():
                pinned.update(result["digests"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "smoke": args.smoke, "reports": reports}, handle, indent=1)
        handle.write("\n")

    if len(results) == 1:
        last = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {
            "correct": correct,
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "reports": reports,
        }
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
