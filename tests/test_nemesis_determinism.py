"""Determinism of the nemesis hunt: jobs-independence and hash-seed freedom.

The hunt's contract is that ``(scenario, strategy, budget, seeds, batch,
seed)`` fully determine the report and the persisted corpus — worker count
must only change wall-clock time, and nothing may leak Python's per-process
hash randomization into the output.  These tests compare complete artifacts
byte for byte: corpus files across ``jobs`` ∈ {serial, 2, 4} in process.
The CLI's reports and corpora across ``--jobs`` and ``PYTHONHASHSEED`` are
rows of ``tests/determinism.py``.
"""

from __future__ import annotations

import os

import pytest

from repro import api

SCENARIO = "unidirectional-ring"
BUDGET = 6
ROOT_SEED = 3


def _corpus_bytes(directory):
    """Every corpus file's (name, bytes), sorted — the whole observable state."""
    return [
        (name, open(os.path.join(directory, name), "rb").read())
        for name in sorted(os.listdir(directory))
    ]


def _hunt(directory, jobs):
    report = api.hunt(
        SCENARIO,
        strategy="coverage-guided",
        budget=BUDGET,
        seed=ROOT_SEED,
        corpus_dir=directory,
        jobs=jobs,
    )
    return report.to_json(), _corpus_bytes(directory)


def test_hunt_is_jobs_independent(tmp_path):
    """Same seed and budget ⇒ byte-identical report and corpus for any jobs."""
    serial_json, serial_files = _hunt(str(tmp_path / "serial"), jobs=1)
    for jobs in (2, 4):
        json_n, files_n = _hunt(str(tmp_path / "jobs{}".format(jobs)), jobs=jobs)
        assert json_n == serial_json
        assert [name for name, _ in files_n] == [name for name, _ in serial_files]
        assert files_n == serial_files
    assert serial_files  # survivors actually got persisted


def test_strategies_diverge_but_each_is_deterministic(tmp_path):
    """Different strategies are allowed to differ; reruns of one are not."""
    reports = {
        strategy: api.hunt(SCENARIO, strategy=strategy, budget=BUDGET, seed=ROOT_SEED)
        for strategy in ("random", "hill-climb", "coverage-guided")
    }
    for strategy, report in reports.items():
        again = api.hunt(SCENARIO, strategy=strategy, budget=BUDGET, seed=ROOT_SEED)
        assert report.to_json() == again.to_json()



@pytest.mark.parametrize("scenario", ["unidirectional-ring", "adversarial-partition"])
def test_hunt_seed_rows_are_the_scenario_runs_rows(monkeypatch, scenario):
    """Seed schedule ``i`` of ``hunt --seed S`` replays run ``i`` of
    ``scenario run --seed S``: both draw the scenario runner's seed stream."""
    from repro.nemesis import hunt as hunt_module
    from repro.scenarios import run_scenario

    rows = []
    evaluate = hunt_module.evaluate_schedule

    def recording(schedule, *args, **kwargs):
        outcome = evaluate(schedule, *args, **kwargs)
        rows.append(outcome["row"])
        return outcome

    monkeypatch.setattr(hunt_module, "evaluate_schedule", recording)
    seeds = 3
    api.hunt(scenario, budget=1, seeds=seeds, batch=1, seed=ROOT_SEED)
    fields = ("completed", "safe", "operations", "messages", "explored_states")
    expected = run_scenario(scenario, runs=seeds, seed=ROOT_SEED).rows
    assert [[row[f] for f in fields] for row in rows[:seeds]] == [
        [row[f] for f in fields] for row in expected
    ]
