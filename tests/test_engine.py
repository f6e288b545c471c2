"""Tests for the parallel experiment engine (:mod:`repro.engine`).

The engine's contract: identical seeds produce identical merged results
regardless of the number of worker processes.  These tests pin the seed
derivation, the shard decomposition, the runner's ordering/fallback behaviour,
and the contract end-to-end on the Monte Carlo experiments that run on it.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.engine import (
    DEFAULT_CHUNK_SIZE,
    ExperimentSpec,
    ParallelRunner,
    ShardSpec,
    derive_seed,
    resolve_jobs,
    spawn_seeds,
)
from repro.errors import ReproError

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------- #
# Seeding
# ---------------------------------------------------------------------- #
def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)
    assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 0) != derive_seed(7, "b", 0)
    assert derive_seed(7, "a", 0) != derive_seed(8, "a", 0)


def test_spawn_seeds_are_distinct_and_reproducible():
    seeds = spawn_seeds(42, 32, "experiment")
    assert len(seeds) == 32
    assert len(set(seeds)) == 32
    assert seeds == spawn_seeds(42, 32, "experiment")
    assert seeds != spawn_seeds(43, 32, "experiment")


def test_spawn_seeds_rejects_negative_count():
    with pytest.raises(ValueError):
        spawn_seeds(0, -1)


# ---------------------------------------------------------------------- #
# Shard decomposition
# ---------------------------------------------------------------------- #
def test_shards_preserve_sample_budget():
    spec = ExperimentSpec(name="x", samples=53, seed=3, chunk_size=10)
    shards = spec.shards()
    assert [s.samples for s in shards] == [10, 10, 10, 10, 10, 3]
    assert sum(s.samples for s in shards) == 53
    assert [s.index for s in shards] == list(range(6))


def test_shards_are_deterministic_and_jobs_independent():
    # The decomposition is a pure function of the spec — there is no "jobs"
    # input anywhere in it.
    a = ExperimentSpec(name="x", samples=40, seed=9).shards()
    b = ExperimentSpec(name="x", samples=40, seed=9).shards()
    assert a == b
    assert len(set(s.seed for s in a)) == len(a)


def test_shards_empty_budget_and_validation():
    assert ExperimentSpec(name="x", samples=0).shards() == ()
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", samples=-1)
    with pytest.raises(ValueError):
        ExperimentSpec(name="x", samples=1, chunk_size=0)


def test_spec_name_salts_shard_seeds():
    a = ExperimentSpec(name="reliability", samples=16, seed=5).shards()
    b = ExperimentSpec(name="admissibility", samples=16, seed=5).shards()
    assert all(x.seed != y.seed for x, y in zip(a, b))


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
#: Each parallel test below runs under both start methods: fork passes the
#: workers their arguments in memory, spawn pickles them once per worker.
START_METHODS = ["fork", "spawn"]


def _square(value):
    """Top-level task so multiprocessing workers can pickle it."""
    return value * value


def _count_shard(spec, shard):
    """Toy shard task: report the shard it was handed."""
    return {"samples": shard.samples, "seed": shard.seed}


def _merge_counts(spec, shard_results):
    return {
        "name": spec.name,
        "samples": sum(r["samples"] for r in shard_results),
        "seeds": tuple(r["seed"] for r in shard_results),
    }


def _log_then_fail_on_three(log_path, value):
    """Appends one line per call (across processes), then fails on item 3."""
    with open(log_path, "a") as handle:
        handle.write("{}\n".format(value))
    if value == 3:
        raise OSError("disk full on item 3")
    return value


def _fail_second_shard(spec, shard):
    if shard.index == 1:
        raise OSError("cannot write shard {}".format(shard.index))
    return {"samples": shard.samples, "seed": shard.seed}


def _fail_slowly_on_two_and_at_once_on_five(value):
    if value == 2:
        time.sleep(0.2)
        raise ValueError("item 2")
    if value == 5:
        raise ValueError("item 5")
    return value


def _sleep(value):
    time.sleep(0.05)
    return value


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_map_serial_fallback_for_single_job():
    runner = ParallelRunner(jobs=1)
    assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert runner.last_mode == "serial"


def test_map_serial_fallback_for_single_item():
    runner = ParallelRunner(jobs=8)
    assert runner.map(_square, [5]) == [25]
    assert runner.last_mode == "serial"


@pytest.mark.parametrize("method", START_METHODS)
def test_map_parallel_preserves_order(method):
    runner = ParallelRunner(jobs=2, mp_context=multiprocessing.get_context(method))
    items = list(range(20))
    assert runner.map(_square, items) == [i * i for i in items]
    assert runner.last_mode == "parallel"


def test_progress_reports_every_shard():
    seen = []
    runner = ParallelRunner(jobs=1, progress=lambda done, total: seen.append((done, total)))
    runner.map(_square, [1, 2, 3])
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_progress_at_two_jobs_makes_the_serial_calls():
    """Results arrive in completion order, but progress follows the contiguous
    prefix of completed items: the same calls as the serial loop."""
    calls = {}
    for jobs in (1, 2):
        seen = calls[jobs] = []
        ParallelRunner(jobs=jobs, progress=lambda done, total: seen.append((done, total))).map(
            _square, range(12)
        )
    assert calls[2] == calls[1] == [(done, 12) for done in range(1, 13)]


def test_run_sharded_merges_in_shard_order():
    specs = [
        ExperimentSpec(name="a", samples=25, seed=1, chunk_size=10),
        ExperimentSpec(name="b", samples=5, seed=2, chunk_size=10),
        ExperimentSpec(name="c", samples=0, seed=3, chunk_size=10),
    ]
    for jobs in (1, 2):
        merged = ParallelRunner(jobs=jobs).run_sharded(specs, _count_shard, _merge_counts)
        assert [m["samples"] for m in merged] == [25, 5, 0]
        assert merged[0]["seeds"] == tuple(s.seed for s in specs[0].shards())


@pytest.mark.parametrize("method", START_METHODS)
def test_task_oserror_fails_the_run_instead_of_restarting_it_serially(tmp_path, method):
    """Only the set-up of the workers may fall back to the serial loop: an
    OSError raised by a task used to be mistaken for a platform without
    process support."""
    log = tmp_path / "calls.log"
    seen = []
    runner = ParallelRunner(
        jobs=2,
        progress=lambda done, total: seen.append(done),
        mp_context=multiprocessing.get_context(method),
    )
    with pytest.raises(OSError, match="disk full on item 3"):
        runner.map(functools.partial(_log_then_fail_on_three, str(log)), list(range(8)))
    assert runner.last_mode == "parallel"
    calls = log.read_text().split()
    assert len(calls) == len(set(calls)) <= 8, calls  # no item ran twice
    assert seen == list(range(1, len(seen) + 1)) and len(seen) <= 3, seen  # never past item 3


@pytest.mark.parametrize("jobs, method", [(1, None), (2, "fork"), (2, "spawn")])
def test_failing_shard_surfaces_as_attributed_repro_error(jobs, method):
    spec = ExperimentSpec(name="boom", samples=25, seed=9, chunk_size=10)
    context = multiprocessing.get_context(method) if method else None
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=jobs, mp_context=context).run_sharded(
            [spec], _fail_second_shard, _merge_counts
        )
    assert str(excinfo.value) == (
        "shard 1 of experiment 'boom' (derived seed {}) failed: "
        "OSError: cannot write shard 1".format(spec.shards()[1].seed)
    )
    assert isinstance(excinfo.value.__cause__, OSError)
    assert str(excinfo.value.__cause__) == "cannot write shard 1"


def test_the_lowest_failing_position_wins_whatever_fails_first():
    """Item 5 fails at once while item 2 is still running: the run waits for
    item 2 and raises its error, as the serial loop would."""
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^item 2$"):
            ParallelRunner(jobs=jobs).map(_fail_slowly_on_two_and_at_once_on_five, range(8))


def test_more_workers_than_cores_claim_every_item_once():
    """A lost update of the shared claim counter would hand one item to two
    workers (``answered twice``) or skip one (``never answered``)."""
    items = list(range(300))
    assert ParallelRunner(jobs=4).map(_square, items) == [i * i for i in items]


def test_an_interrupt_in_the_parent_kills_and_joins_every_worker():
    def interrupt(done, total):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        ParallelRunner(jobs=2, progress=interrupt).map(_sleep, range(20))
    assert multiprocessing.active_children() == []


def test_run_single_spec():
    spec = ExperimentSpec(name="solo", samples=12, seed=4, chunk_size=5)
    (merged,) = ParallelRunner(jobs=1).run_sharded([spec], _count_shard, _merge_counts)
    assert merged["samples"] == 12


# ---------------------------------------------------------------------- #
# A worker that dies or cannot answer ends the run instead of hanging it
# ---------------------------------------------------------------------- #
DYING_WORKER_SCRIPT = """
import os
import signal
import sys
import threading

from repro.engine import ExperimentSpec, ParallelRunner
from repro.errors import ReproError


def kill_on_three(value):
    if value == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def kill_on_shard_two(spec, shard):
    if shard.index == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return shard.samples


def lock_on_three(value):
    return threading.Lock() if value == 3 else value


class TwoArgumentError(Exception):
    def __init__(self, first, second):
        super().__init__("{}/{}".format(first, second))


def raise_on_three(value):
    if value == 3:
        raise TwoArgumentError(value, "x")
    return value


if __name__ == "__main__":
    case = sys.argv[1]
    try:
        if case == "map-kill":
            ParallelRunner(jobs=2).map(kill_on_three, range(8))
        elif case == "sharded-kill":
            spec = ExperimentSpec(name="doomed", samples=40, seed=9, chunk_size=10)
            ParallelRunner(jobs=2).run_sharded([spec], kill_on_shard_two, lambda spec, rs: rs)
        elif case == "unpicklable":
            ParallelRunner(jobs=2).map(lock_on_three, range(8))
        else:
            ParallelRunner(jobs=2).map(raise_on_three, range(8))
    except ReproError as error:
        try:
            os.waitpid(-1, os.WNOHANG)
            print("a child process is left")
        except ChildProcessError:
            print("no child process is left")
        print("{}: {}".format(type(error).__name__, error), file=sys.stderr)
        sys.exit(1)
    print("the run succeeded")
"""


def _dying_worker(case, tmp_path):
    path = tmp_path / "dying_worker.py"
    path.write_text(DYING_WORKER_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    # The timeout is the regression's bound: a worker death used to hang the
    # parent forever.
    return subprocess.run(
        [sys.executable, str(path), case], capture_output=True, text=True, env=env, timeout=60
    )


def test_a_killed_worker_ends_the_map_naming_its_item(tmp_path):
    result = _dying_worker("map-kill", tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        "no child process is left\n",
        "ReproError: work item 3 of 8: its worker process exited with code -9\n",
    )


def test_a_killed_worker_is_blamed_on_its_shard_and_derived_seed(tmp_path):
    seed = ExperimentSpec(name="doomed", samples=40, seed=9, chunk_size=10).shards()[2].seed
    result = _dying_worker("sharded-kill", tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        "no child process is left\n",
        "ReproError: shard 2 of experiment 'doomed' (derived seed {}) failed: ReproError: "
        "work item 2 of 4: its worker process exited with code -9\n".format(seed),
    )


def test_an_unpicklable_result_ends_the_run_naming_its_item(tmp_path):
    result = _dying_worker("unpicklable", tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        "no child process is left\n",
        "ReproError: work item 3 of 8: its result cannot be sent back: TypeError: "
        "cannot pickle '_thread.lock' object\n",
    )


def test_an_exception_that_cannot_rebuild_ends_the_run_naming_its_item(tmp_path):
    """Unpickling it in the parent fails (its constructor takes two arguments):
    the worker pool this runner replaced hung on that for ever."""
    result = _dying_worker("unrebuildable", tmp_path)
    assert (result.returncode, result.stdout) == (1, "no child process is left\n")
    assert result.stderr.startswith(
        "ReproError: work item 3 of 8: its exception TwoArgumentError: 3/x cannot be sent "
        "back: TypeError: "
    )
    assert result.stderr.endswith("missing 1 required positional argument: 'second'\n")


# ---------------------------------------------------------------------- #
# Routing: each result is placed by its tag, and a tag that cannot be placed
# ends the run
# ---------------------------------------------------------------------- #
def _tags(*tags):
    return lambda count: list(tags)


def _swap(first, second):
    def tags(count):
        positions = list(range(count))
        positions[first], positions[second] = positions[second], positions[first]
        return positions

    return tags


@pytest.fixture
def arrivals(monkeypatch):
    """``arrivals(tags)``: every parallel run in the test runs its tasks in
    process, then receives one result per entry of ``tags(count)``, tagged
    with that entry and in that order — a stand-in for the workers' result
    streams that can permute, repeat, invent or lose tags."""

    def install(tags):
        def open_stream(self, task, work):
            outcomes = [(tag, True, task(work[tag % len(work)])) for tag in tags(len(work))]
            return (outcome for outcome in outcomes)

        monkeypatch.setattr(ParallelRunner, "_open_stream", open_stream)

    return install


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_map_places_every_permutation_of_arrivals_by_tag(arrivals, order):
    arrivals(lambda count: list(order))
    seen = []
    runner = ParallelRunner(jobs=2, progress=lambda done, total: seen.append((done, total)))
    assert runner.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
    assert runner.last_mode == "parallel"
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


@pytest.mark.parametrize(
    "tags, message",
    [
        ((0, 1, 1, 2), "work item 1 of 3 was answered twice"),
        ((0, 3, 1, 2), "a result tagged 3 arrived for work items 0-2"),
        ((-1, 0, 1, 2), "a result tagged -1 arrived for work items 0-2"),
        ((0, 2), "work item 1 of 3 was never answered"),
    ],
    ids=["repeated", "past-the-end", "negative", "unanswered"],
)
def test_map_refuses_a_tag_it_cannot_place(arrivals, tags, message):
    arrivals(_tags(*tags))
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=2).map(_square, [1, 2, 3])
    assert str(excinfo.value) == "mis-routed result: " + message


def _shard_results(spec, shard_results):
    return shard_results


def test_run_sharded_places_a_swap_inside_one_monte_carlo_grid_point(arrivals, figure1_gqs):
    """The study's merge sums its shards, so a swap would not show in it: the
    merge here hands back the shard results as ``run_sharded`` ordered them."""
    from repro.montecarlo.reliability import RELIABILITY

    (spec,) = RELIABILITY.specs((0.2,), 32, 5, 16, quorum_system=figure1_gqs, crash_prob=0.1)
    (serial,) = ParallelRunner(jobs=1).run_sharded([spec], RELIABILITY.shard, _shard_results)
    assert serial[0] != serial[1]
    arrivals(_swap(0, 1))
    (swapped,) = ParallelRunner(jobs=2).run_sharded([spec], RELIABILITY.shard, _shard_results)
    assert swapped == serial


def test_run_sharded_blames_a_repeated_tag_on_its_shard(arrivals, figure1_gqs):
    from repro.montecarlo.reliability import RELIABILITY

    arrivals(_tags(0, 0, 1))
    (spec,) = RELIABILITY.specs((0.2,), 32, 5, 16, quorum_system=figure1_gqs, crash_prob=0.1)
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=2).run_sharded([spec], RELIABILITY.shard, RELIABILITY.merge)
    assert str(excinfo.value) == (
        "shard 0 of experiment 'reliability' (derived seed {}) failed: ReproError: "
        "mis-routed result: work item 0 of 2 was answered twice".format(spec.shards()[0].seed)
    )


def test_run_sharded_places_a_swap_across_monte_carlo_grid_points(arrivals):
    from repro.montecarlo import admissibility_sweep

    kwargs = dict(disconnect_probs=(0.0, 0.4), n=4, samples=32, chunk_size=16, jobs=2)
    serial = admissibility_sweep(**dict(kwargs, jobs=1))
    arrivals(_swap(1, 2))
    assert admissibility_sweep(**kwargs) == serial


def test_run_sharded_blames_an_unanswered_scenario_run_on_its_shard(arrivals):
    from repro.scenarios import run_scenario

    serial = run_scenario("unidirectional-ring", runs=2, seed=7, jobs=1)
    arrivals(_swap(0, 1))
    assert run_scenario("unidirectional-ring", runs=2, seed=7, jobs=2).to_dict() == serial.to_dict()
    arrivals(_tags(1))
    with pytest.raises(
        ReproError,
        match=r"shard 0 of experiment 'scenario/unidirectional-ring'.*never answered",
    ):
        run_scenario("unidirectional-ring", runs=2, seed=7, jobs=2)


# ---------------------------------------------------------------------- #
# End-to-end: the experiments that run on the engine
# ---------------------------------------------------------------------- #
def test_reliability_identical_across_jobs(figure1_gqs):
    from repro.montecarlo import reliability_sweep, reliability_table

    (serial,) = reliability_sweep(figure1_gqs, (0.2,), samples=48, seed=11, jobs=1)
    (parallel,) = reliability_sweep(figure1_gqs, (0.2,), samples=48, seed=11, jobs=3)
    assert serial.samples == parallel.samples == 48
    assert serial.gqs_available == parallel.gqs_available
    assert serial.strong_available == parallel.strong_available
    assert serial.classical_available == parallel.classical_available

    table_serial = reliability_table(
        reliability_sweep(figure1_gqs, disconnect_probs=(0.0, 0.3), samples=24, seed=5, jobs=1)
    )
    table_parallel = reliability_table(
        reliability_sweep(figure1_gqs, disconnect_probs=(0.0, 0.3), samples=24, seed=5, jobs=4)
    )
    assert table_serial.to_text() == table_parallel.to_text()


def test_admissibility_identical_across_jobs():
    from repro.montecarlo import admissibility_sweep, admissibility_table

    kwargs = dict(disconnect_probs=(0.0, 0.4), n=4, num_patterns=2, samples=24, seed=13)
    serial = admissibility_sweep(jobs=1, **kwargs)
    parallel = admissibility_sweep(jobs=2, **kwargs)
    assert [p.samples for p in serial] == [p.samples for p in parallel] == [24, 24]
    assert admissibility_table(serial).to_text() == admissibility_table(parallel).to_text()


def test_admissibility_chunk_size_changes_stream_not_budget():
    from repro.montecarlo import admissibility_sweep

    coarse = admissibility_sweep(disconnect_probs=(0.2,), samples=20, seed=1, chunk_size=20)
    fine = admissibility_sweep(disconnect_probs=(0.2,), samples=20, seed=1, chunk_size=4)
    # Different chunking draws different sample streams (documented), but the
    # budget accounting is exact either way.
    assert coarse[0].samples == fine[0].samples == 20


def test_tightness_identical_across_jobs(figure1_system):
    from repro.experiments import verify_tightness

    serial = verify_tightness(figure1_system, include_snapshot=True, include_lattice=True, jobs=1)
    parallel = verify_tightness(figure1_system, include_snapshot=True, include_lattice=True, jobs=2)
    assert serial.discovery.exists and parallel.discovery.exists
    assert serial.all_patterns_ok and parallel.all_patterns_ok
    assert serial.to_table().to_text() == parallel.to_table().to_text()
    assert [v.pattern.name for v in serial.verdicts] == [
        v.pattern.name for v in parallel.verdicts
    ]
