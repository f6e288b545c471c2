"""Nemesis guidance benchmark: does search actually beat blind sampling?

The issue's acceptance criterion: on ``heavy-contention-register`` and
``adversarial-partition``, a fixed-budget hill-climb must find schedules with
*strictly* higher checker effort than equal-budget random search — i.e. the
fitness gradient (delay stretches stress the linearizability search, partition
patterns stall ``U_f``) is real and climbable, not noise.  Both hunts are
fully deterministic, so the margins below are stable numbers, recorded into
the benchmark snapshot for trend tracking — together with ``hunt_wall_s``,
the wall clock of the hill-climb hunt, which the conftest ``_wall_s`` guard
judges against ``BENCH_seed.json`` (never asserted here).

The second half closes the loop on trustworthiness: every schedule the
hill-climb keeps must replay deterministically through the ordinary
``repro check`` path with verdicts matching the hunt-time inline ones.
"""

from __future__ import annotations

import time

import pytest

from repro import api

from conftest import bench_once

BUDGET = 24
SEED_SCHEDULES = 2

#: (scenario, root seed): deterministic configurations where guidance is
#: expected to produce a strict margin at this budget.
GUIDED_CONFIGS = [
    ("heavy-contention-register", 4),
    ("adversarial-partition", 7),
]


def _hunt_pair(scenario, seed):
    """Both hunts, plus the wall clock of the hill-climb: ``repro nemesis
    hunt`` as a user types it, which no other benchmark measures."""
    start = time.perf_counter()
    hill = api.hunt(
        scenario, strategy="hill-climb", budget=BUDGET, seeds=SEED_SCHEDULES, seed=seed
    )
    hunt_wall_s = time.perf_counter() - start
    rand = api.hunt(
        scenario, strategy="random", budget=BUDGET, seeds=SEED_SCHEDULES, seed=seed
    )
    return hill, rand, hunt_wall_s


@pytest.mark.parametrize("scenario,seed", GUIDED_CONFIGS)
def test_hill_climb_strictly_beats_random(benchmark, bench_numbers, scenario, seed):
    hill, rand, hunt_wall_s = bench_once(benchmark, _hunt_pair, scenario, seed)
    hill_explored = hill.best_row["explored"]
    rand_explored = rand.best_row["explored"]
    bench_numbers(
        hill_climb_explored=hill_explored,
        random_explored=rand_explored,
        hill_climb_score=hill.best_score,
        random_score=rand.best_score,
        hunt_wall_s=round(hunt_wall_s, 6),
    )
    assert hill_explored > rand_explored, (
        "{} seed {}: hill-climb explored {} <= random {}".format(
            scenario, seed, hill_explored, rand_explored
        )
    )
    assert hill.best_score > rand.best_score


def test_surviving_mutants_replay_deterministically(benchmark, bench_numbers, tmp_path):
    """Every kept schedule re-verifies via the standard trace-check path."""
    directory = str(tmp_path / "corpus")

    def hunt_and_check():
        report = api.hunt(
            "heavy-contention-register",
            strategy="hill-climb",
            budget=BUDGET,
            seeds=SEED_SCHEDULES,
            seed=4,
            corpus_dir=directory,
        )
        return report, api.check_traces(directory)

    report, check = bench_once(benchmark, hunt_and_check)
    bench_numbers(survivors=check.traces, best_score=report.best_score)
    assert check.traces == len(report.corpus) > 0
    assert check.ok  # re-checked verdicts match the recorded inline ones
