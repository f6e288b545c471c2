"""Tests for the parallel experiment engine (:mod:`repro.engine`).

The engine's contract: identical seeds produce identical merged results
regardless of the number of worker processes.  These tests pin the seed
derivation, the shard decomposition, the runner's ordering/fallback behaviour,
and the contract end-to-end on the Monte Carlo experiments that run on it.
"""

from __future__ import annotations

import functools
import itertools

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


def test_map_parallel_preserves_order():
    runner = ParallelRunner(jobs=2)
    items = list(range(20))
    assert runner.map(_square, items) == [i * i for i in items]
    assert runner.last_mode in ("parallel", "serial")  # serial on fork-less platforms


def test_progress_reports_every_shard():
    seen = []
    runner = ParallelRunner(jobs=1, progress=lambda done, total: seen.append((done, total)))
    runner.map(_square, [1, 2, 3])
    assert seen == [(1, 3), (2, 3), (3, 3)]


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


def test_task_oserror_fails_the_run_instead_of_restarting_it_serially(tmp_path):
    """Only pool *creation* may fall back to the serial loop: an OSError raised
    by a task used to be mistaken for a platform without process support."""
    log = tmp_path / "calls.log"
    seen = []
    runner = ParallelRunner(jobs=2, progress=lambda done, total: seen.append(done))
    with pytest.raises(OSError, match="disk full on item 3"):
        runner.map(functools.partial(_log_then_fail_on_three, str(log)), list(range(8)))
    assert runner.last_mode == "parallel"
    calls = log.read_text().split()
    assert len(calls) == len(set(calls)) <= 8, calls  # no item ran twice
    assert seen == sorted(set(seen)) and 4 not in seen, seen  # progress never restarted


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_shard_surfaces_as_attributed_repro_error(jobs):
    spec = ExperimentSpec(name="boom", samples=25, seed=9, chunk_size=10)
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=jobs).run_sharded([spec], _fail_second_shard, _merge_counts)
    assert str(excinfo.value) == (
        "shard 1 of experiment 'boom' (derived seed {}) failed: "
        "OSError: cannot write shard 1".format(spec.shards()[1].seed)
    )
    assert isinstance(excinfo.value.__cause__, OSError)
    assert str(excinfo.value.__cause__) == "cannot write shard 1"


def test_run_single_spec():
    spec = ExperimentSpec(name="solo", samples=12, seed=4, chunk_size=5)
    (merged,) = ParallelRunner(jobs=1).run_sharded([spec], _count_shard, _merge_counts)
    assert merged["samples"] == 12


# ---------------------------------------------------------------------- #
# Routing: a result that arrives at another item's position is refused
# ---------------------------------------------------------------------- #
class _PermutingPool:
    """A stand-in worker pool whose ``imap`` runs every task, then hands the
    results back in ``order`` (positions into the submitted items)."""

    def __init__(self, order):
        self.order = order

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, task, entries):
        results = [task(entry) for entry in entries]
        return iter([results[i] for i in self.order(len(results))])


def _swap(first, second):
    def order(count):
        positions = list(range(count))
        positions[first], positions[second] = positions[second], positions[first]
        return positions

    return order


@pytest.fixture
def permuted(monkeypatch):
    """``permuted(order)``: every parallel run in the test collects in ``order``."""

    def install(order):
        monkeypatch.setattr(ParallelRunner, "_open_pool", lambda self, tasks: _PermutingPool(order))

    return install


@pytest.mark.parametrize(
    "order", [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
)
def test_map_refuses_every_permutation_of_its_results(permuted, order):
    permuted(lambda count: list(order))
    first = next(i for i, tag in enumerate(order) if tag != i)
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=2).map(_square, [1, 2, 3])
    assert str(excinfo.value) == (
        "mis-routed result: the result of work item {} arrived where item {} of 3 "
        "was due".format(order[first], first)
    )


def test_run_sharded_refuses_a_swap_inside_one_monte_carlo_grid_point(permuted, figure1_gqs):
    """Two shards of one grid point swapped: the per-study guards compared grid
    parameters and let it through; the position tags do not."""
    from repro.montecarlo.reliability import RELIABILITY

    permuted(_swap(0, 1))
    (spec,) = RELIABILITY.specs((0.2,), 32, 5, 16, quorum_system=figure1_gqs, crash_prob=0.1)
    with pytest.raises(ReproError) as excinfo:
        ParallelRunner(jobs=2).run_sharded([spec], RELIABILITY.shard, RELIABILITY.merge)
    assert str(excinfo.value) == (
        "shard 0 of experiment 'reliability' (derived seed {}) failed: ReproError: "
        "mis-routed result: the result of work item 1 arrived where item 0 of 2 "
        "was due".format(spec.shards()[0].seed)
    )


def test_run_sharded_refuses_a_swap_across_monte_carlo_grid_points(permuted):
    from repro.montecarlo import admissibility_sweep

    permuted(_swap(1, 2))
    with pytest.raises(ReproError, match="shard 1 of experiment 'admissibility'.*mis-routed"):
        admissibility_sweep(disconnect_probs=(0.0, 0.4), n=4, samples=32, chunk_size=16, jobs=2)


def test_run_sharded_refuses_a_swap_between_scenario_runs(permuted):
    """Scenario sweeps had no guard: swapped runs were merged as given."""
    from repro.scenarios import run_scenario

    permuted(_swap(0, 1))
    with pytest.raises(ReproError, match="shard 0 of experiment 'scenario/unidirectional-ring'.*mis-routed"):
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
