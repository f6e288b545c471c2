"""Differential battery: the simulator hot path vs the reference simulator.

The production per-message path (:mod:`repro.sim.events`: tuple-keyed queue,
the FIFO short-circuit lane for :attr:`~repro.sim.DelayModel.preserves_fifo`
models, lazy-deletion heap compaction; ``Process.deliver`` polling wait probes
only after a protocol step) is a faster implementation of the same simulator,
never a different simulator.  The reference — one heap of ``Event`` objects,
probes polled after every delivery — lives in :mod:`oracles.sim`.  These tests
pin the strongest form of the claim: every catalogue scenario is recorded on
both and the trace directories are compared **byte for byte** (jobs 1 and 2
included), per-workload histories / ``NetworkStats`` / ``events_processed`` are
asserted equal, and property tests cover the tuple queue (no callback fires
twice, nothing stale survives a round) and the FIFO lane's ``(time, seq)``
tie-break equivalence against the reference scheduler fed the same schedule.

(The file keeps its historical name so the test ids stay stable; there is no
"fast path" switch any more — :func:`oracles.sim.reference_simulator` swaps
the reference in.)
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext

import pytest

from oracles.sim import EventScheduler as ReferenceScheduler
from oracles.sim import reference_simulator
from repro.experiments import run_workload
from repro.scenarios.registry import all_scenarios
from repro.scenarios.runner import run_scenario, sweep_scenarios
from repro.sim import EventScheduler, FixedDelay, ScheduleOverride, UniformDelay


def _workload_fingerprint(kind, quorum_system, seed, delay_model=None):
    result = run_workload(kind, quorum_system, seed=seed, delay_model=delay_model)
    cluster = result.cluster
    return {
        "records": result.history.records,
        "completed": result.completed,
        "stats": vars(cluster.network.stats),
        "events_processed": cluster.network.scheduler.events_processed,
        "pending": cluster.network.scheduler.pending(),
        "now": cluster.now,
    }


# --------------------------------------------------------------------- #
# Per-workload equality: histories, NetworkStats, events_processed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["register", "snapshot", "lattice", "consensus", "paxos"])
def test_workload_histories_stats_and_event_counts_equal(kind, figure1_gqs):
    for seed in (0, 3):
        with reference_simulator():
            reference = _workload_fingerprint(kind, figure1_gqs, seed)
        fast = _workload_fingerprint(kind, figure1_gqs, seed)
        assert fast == reference, (kind, seed)


def test_fixed_delay_workload_exercises_the_fifo_lane_and_stays_equal(figure1_gqs):
    """FixedDelay is the model that actually routes through the FIFO lane."""
    with reference_simulator():
        reference = _workload_fingerprint(
            "register", figure1_gqs, seed=1, delay_model=FixedDelay(1.0)
        )
    fast = _workload_fingerprint(
        "register", figure1_gqs, seed=1, delay_model=FixedDelay(1.0)
    )
    assert fast == reference


def test_schedule_override_workload_stays_equal(figure1_gqs):
    """The nemesis path: a stretched channel and nudged deliveries reorder
    arrivals (and keep the run on the heap lane) identically on both sides."""

    def mutated():
        return ScheduleOverride(
            UniformDelay(0.5, 2.0, seed=5),
            stretches={("a", "b"): 4.0, ("c", "a"): 0.25},
            nudges={(("b", "c"), 0): 3.0, (("a", "c"), 2): 1.5},
        )

    for kind in ("register", "snapshot"):
        with reference_simulator():
            reference = _workload_fingerprint(kind, figure1_gqs, seed=2, delay_model=mutated())
        fast = _workload_fingerprint(kind, figure1_gqs, seed=2, delay_model=mutated())
        assert fast == reference, kind


# --------------------------------------------------------------------- #
# Scenario catalogue: recorded trace directories byte-identical
# --------------------------------------------------------------------- #
def _read_directory(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def test_catalogue_traces_byte_identical_across_paths_and_jobs(tmp_path):
    """Every catalogue scenario, fast vs reference, jobs 1 and 2."""
    recordings = {}
    for label, simulator, jobs in (
        ("ref-jobs1", reference_simulator, 1),
        ("fast-jobs1", nullcontext, 1),
        ("fast-jobs2", nullcontext, 2),
    ):
        directory = str(tmp_path / label)
        with simulator():
            results = sweep_scenarios(runs=2, seed=7, jobs=jobs, record_traces=directory)
        recordings[label] = (
            _read_directory(directory),
            [result.to_json() for result in results],
        )
    names = {scenario.name for scenario in all_scenarios()}
    reference_files, reference_tables = recordings["ref-jobs1"]
    # One trace per (scenario, run) — the whole catalogue is really covered.
    assert len(reference_files) == 2 * len(names)
    for label in ("fast-jobs1", "fast-jobs2"):
        files, tables = recordings[label]
        assert files == reference_files, label
        assert tables == reference_tables, label


def test_single_scenario_rows_equal_with_reference_jobs2(tmp_path):
    """The reference path is itself jobs-independent; pin one scenario at jobs 2."""
    with reference_simulator():
        serial = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=1)
        parallel = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=2)
    fast = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=2)
    assert serial.rows == parallel.rows == fast.rows


# --------------------------------------------------------------------- #
# Property: the tuple queue leaks no stale state from one event to the next
# --------------------------------------------------------------------- #
def test_pool_recycling_is_invisible_under_random_schedules():
    """Random mixes of handle-less/FIFO/plain events with cancellations: the
    production scheduler fires exactly what the reference scheduler fires, in
    the same order, and no spent entry ever resurrects an old callback."""
    for case in range(25):
        rng = random.Random(case)
        plan = []
        for step in range(rng.randint(5, 40)):
            lane = rng.choice(["plain", "pooled", "fifo"])
            delay = rng.choice([0.0, 0.5, 1.0, 1.0, 2.5])
            cancel = lane == "plain" and rng.random() < 0.3
            plan.append((lane, delay, cancel))

        def execute(scheduler):
            fired = []
            cancellable = []

            def spawn(tag, depth):
                def callback():
                    fired.append(tag)
                    # A third of the events schedule follow-up deliveries, so
                    # the lanes are refilled while the run is hot.
                    if depth < 2 and tag % 3 == 0:
                        scheduler.schedule_fifo(1.0, spawn(tag + 1000, depth + 1))

                return callback

            for index, (lane, delay, cancel) in enumerate(plan):
                if lane == "plain":
                    event = scheduler.schedule(delay, spawn(index, 0))
                    if cancel:
                        cancellable.append(event)
                elif lane == "pooled":
                    scheduler.schedule_pooled(delay, spawn(index, 0))
                else:
                    scheduler.schedule_fifo(delay, spawn(index, 0))
            for event in cancellable:
                event.cancel()
            scheduler.run()
            return fired, scheduler.events_processed, scheduler.now, scheduler.pending()

        assert execute(EventScheduler()) == execute(ReferenceScheduler()), case


def test_pool_never_fires_a_callback_twice():
    scheduler = EventScheduler()
    counts = {}
    for wave in range(30):
        for i in range(8):
            key = (wave, i)
            scheduler.schedule_fifo(
                float(i % 3), lambda key=key: counts.__setitem__(key, counts.get(key, 0) + 1)
            )
        scheduler.run()
        assert not scheduler._fifo and not scheduler._queue
    assert all(count == 1 for count in counts.values())
    assert len(counts) == 30 * 8


# --------------------------------------------------------------------- #
# Property: FIFO-lane tie-break equivalence
# --------------------------------------------------------------------- #
def test_fifo_lane_tie_breaks_match_the_reference_heap():
    """Monotone (FIFO-preserving) schedules full of exact time ties: the lane
    must reproduce the reference heap's (time, seq) order event for event."""
    for case in range(25):
        rng = random.Random(1000 + case)
        # Non-decreasing target times with heavy tie density, interleaved
        # across the heap lane (timers) and the FIFO lane (deliveries).
        entries = []
        time_now = 0.0
        for index in range(rng.randint(10, 60)):
            if rng.random() < 0.6:
                time_now += rng.choice([0.0, 0.0, 1.0])
            entries.append((time_now, rng.random() < 0.5))

        def execute(scheduler):
            fired = []
            for index, (at, use_fifo) in enumerate(entries):
                if use_fifo:
                    scheduler.schedule_fifo(at, lambda index=index: fired.append(index))
                else:
                    scheduler.schedule(at, lambda index=index: fired.append(index))
            scheduler.run()
            return fired

        assert execute(EventScheduler()) == execute(ReferenceScheduler()), case
