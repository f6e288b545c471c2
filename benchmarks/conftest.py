"""Shared fixtures for the benchmark harness (experiments E1-E8 of docs/experiments.md).

Besides the fixtures, this conftest gives the harness a memory: every
``bench_once`` timing — and any counter a test attaches via the
``bench_numbers`` fixture — is collected into a session-wide snapshot, and
when ``REPRO_BENCH_DIR`` is set the snapshot is written there as
``BENCH_<python>-<platform>.json`` (canonical JSON, atomic rename).  Without
the environment variable nothing is persisted, so local runs stay clean; CI
sets it and uploads the snapshot as an artifact, turning the benchmark
numbers from ephemeral terminal output into comparable records.  A seed
snapshot (``BENCH_seed.json``) is committed alongside as the first point of
the series.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import pytest

# The reference implementations the speedup benchmarks race against live
# with the tests (``tests/oracles``), not in the installed package.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

from repro.analysis import figure1_quorum_system
from repro.quorums import GeneralizedQuorumSystem

#: Bumped whenever the snapshot layout changes.
BENCH_SNAPSHOT_SCHEMA = 1

#: Session-wide accumulator: test name -> {metric: value}.
_RESULTS = {}

#: The committed first point of the snapshot series; throughput metrics in a
#: new snapshot are compared against it (see ``_throughput_regressions``).
SEED_SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_seed.json")


@pytest.fixture(scope="session")
def figure1_gqs() -> GeneralizedQuorumSystem:
    """The paper's running example, shared by the benchmarks."""
    return figure1_quorum_system()


def record_bench_numbers(name, **numbers):
    """Attach counters (explored states, nodes, scores...) to a snapshot entry."""
    entry = _RESULTS.setdefault(name, {})
    for key, value in numbers.items():
        entry[key] = value


@pytest.fixture
def bench_numbers(request):
    """Record named counters under the calling test's snapshot entry."""

    def record(**numbers):
        record_bench_numbers(request.node.name, **numbers)

    return record


def bench_once(benchmark, func, *args, **kwargs):
    """Run a (possibly slow) experiment exactly once under pytest-benchmark timing."""
    result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        record_bench_numbers(benchmark.name, seconds=round(stats.stats.mean, 6))
    return result


def _snapshot_path(directory):
    label = "py{}-{}".format(platform.python_version(), sys.platform)
    return os.path.join(directory, "BENCH_{}.json".format(label))


#: Guarded metric-name substrings where bigger numbers are better; a value
#: falling more than 2x below the committed seed is a regression.
HIGHER_IS_BETTER = ("samples_per_sec", "events_per_sec", "reuse_fraction", "speedup")

#: Guarded metric-name substrings where smaller numbers are better (search
#: effort, the cost of witness validation and of witness rendering relative
#: to the search they certify or print, and the wall clock of fixed one-shot
#: commands and searches); a value growing more than 2x above the committed
#: seed is a regression.  ``reference or 1`` keeps a perfect seed of 0
#: explored nodes from flagging every nonzero future value.
LOWER_IS_BETTER = ("nodes_explored", "validate_ratio", "render_ratio", "_wall_s")


def _throughput_regressions(results):
    """Guarded metrics that moved more than 2x past the committed seed.

    Wall-clock seconds vary with workload sizes between revisions, so the
    guard only watches workload-independent numbers: throughput metrics
    (``*samples_per_sec*``, ``*events_per_sec*``), production-vs-oracle
    ``*speedup*`` ratios, the watch-mode ``*reuse_fraction*`` (all
    higher-is-better: a >2x drop is a regression), discovery search effort
    and validation and rendering overhead (``*nodes_explored*``,
    ``*validate_ratio*``, ``*render_ratio*``) and
    the wall clock of fixed one-shot commands and searches (``*_wall_s``;
    lower-is-better: a >2x growth is a regression).
    """
    try:
        with open(SEED_SNAPSHOT, encoding="utf-8") as handle:
            baseline = json.load(handle).get("results", {})
    except (OSError, ValueError):
        return []
    regressions = []
    for name, entry in sorted(results.items()):
        for metric, value in sorted(entry.items()):
            if not isinstance(value, (int, float)):
                continue
            reference = baseline.get(name, {}).get(metric)
            if not isinstance(reference, (int, float)):
                continue
            higher = any(tag in metric for tag in HIGHER_IS_BETTER)
            lower = any(tag in metric for tag in LOWER_IS_BETTER)
            if higher and value * 2 < reference:
                regressions.append((name, metric, value, reference))
            elif lower and value > (reference or 1) * 2:
                regressions.append((name, metric, value, reference))
    return regressions


def pytest_sessionfinish(session, exitstatus):
    """Persist the collected numbers when REPRO_BENCH_DIR asks for it.

    After writing the snapshot the throughput guard runs: if any recorded
    samples/sec metric regressed more than 2x below ``BENCH_seed.json`` the
    session is failed, so CI's bench smoke step catches engine slowdowns even
    when every functional assertion still passes.
    """
    directory = os.environ.get("REPRO_BENCH_DIR")
    if not directory or not _RESULTS:
        return
    snapshot = {
        "schema": BENCH_SNAPSHOT_SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "exit_status": int(exitstatus),
        "results": {
            name: dict(sorted(entry.items())) for name, entry in sorted(_RESULTS.items())
        },
    }
    os.makedirs(directory, exist_ok=True)
    path = _snapshot_path(directory)
    partial = "{}.tmp".format(path)
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(partial, path)
    regressions = _throughput_regressions(snapshot["results"])
    if regressions:
        print("\nBench throughput regressed >2x below BENCH_seed.json:")
        for name, metric, value, reference in regressions:
            print("  {} {}: {} (seed: {})".format(name, metric, value, reference))
        session.exitstatus = 1
