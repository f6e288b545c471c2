"""Tests for the typed facade (:mod:`repro.api`)."""

import dataclasses
import json

import pytest

from repro import api
from repro.errors import NoQuorumSystemExistsError, ReproError
from repro.scenarios import get_scenario


# ---------------------------------------------------------------------- #
# System resolution and the quorum-decision toolbox
# ---------------------------------------------------------------------- #
def test_resolve_system_builtin_and_spec(tmp_path):
    system = api.resolve_system(builtin="ring-5")
    assert len(system.processes) == 5
    path = tmp_path / "system.json"
    path.write_text(
        '{"processes": ["a", "b", "c"], "patterns": [{"name": "f", "crash": ["c"], '
        '"disconnect": []}]}'
    )
    loaded = api.resolve_system(spec=str(path))
    assert sorted(loaded.processes) == ["a", "b", "c"]


def test_discovery_report_payload_matches_cli_json():
    import json
    import os

    report = api.discovery_report(api.resolve_system(builtin="figure1"))
    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "quorums_discover_figure1.json"
    )
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert report.to_dict() == golden
    assert report.exists is True
    assert all(row["candidates"] >= 1 for row in report.rows)


def test_classify_report():
    report = api.classify(api.resolve_system(builtin="figure1"))
    assert report.admits == {"classical": False, "strong": False, "generalized": True}
    payload = report.to_dict()
    assert payload["system"]["num_processes"] == len(report.system.processes)


def test_repair_outcome_json_projection():
    outcome = api.repair(api.resolve_system(builtin="figure1-modified"), max_channels=1)
    assert outcome.report.repairable
    payload = outcome.to_dict()
    assert payload["repairable"] is True
    assert payload["suggestions"] == outcome.suggestions
    assert [["a", "b"]] in outcome.suggestions


@pytest.mark.parametrize(
    "kwargs, complaint",
    [
        ({"max_channels": 0}, "max_channels >= 1"),
        ({"max_channels": -1}, "max_channels >= 1"),
        ({"max_suggestions": 0}, "max_suggestions >= 1"),
        ({"max_suggestions": -2}, "max_suggestions >= 1"),
    ],
    ids=["max-channels-0", "max-channels-neg", "max-suggestions-0", "max-suggestions-neg"],
)
def test_repair_rejects_meaningless_budgets_before_searching(kwargs, complaint):
    """An empty search used to conclude "the problem lies in the process failures"."""
    system = api.resolve_system(builtin="figure1-modified")
    with pytest.raises(ReproError, match=complaint):
        api.repair(system, **kwargs)
    assert not system._residual_bitset_cache  # rejected before any search


# ---------------------------------------------------------------------- #
# simulate
# ---------------------------------------------------------------------- #
def test_simulate_single_run_report():
    system = api.resolve_system(builtin="figure1")
    report = api.simulate(system, protocol="register", pattern="f1", ops=1, seed=3)
    assert report.runs == 1
    assert report.ok and report.exit_ok
    assert report.safety_label(True) == "linearizable=True"
    assert report.invokers == ["a", "b"]


def test_simulate_batch_independent_of_jobs():
    system = api.resolve_system(builtin="figure1")
    serial = api.simulate(system, protocol="register", pattern="f1", ops=1, seed=3, runs=3, jobs=1)
    parallel = api.simulate(system, protocol="register", pattern="f1", ops=1, seed=3, runs=3, jobs=2)
    assert serial.rows == parallel.rows
    assert serial.to_text() == parallel.to_text()
    assert serial.total_messages == parallel.total_messages
    assert serial.runs == parallel.runs == 3


def test_simulate_paxos_never_gates_on_safety():
    system = api.resolve_system(builtin="minority-5")
    report = api.simulate(system, protocol="paxos", ops=1, seed=0)
    assert report.gates_on_safety is False
    assert report.exit_ok is True
    assert report.safety_label(False) == "baseline (no safety check applied)"


def test_unknown_pattern_fails_before_discovery(monkeypatch):
    """A misnamed pattern is reported before the (possibly long) GQS discovery runs."""
    import repro.quorums
    import repro.scenarios.builders
    from repro.scenarios import FailureSpec

    def no_discovery(*args, **kwargs):
        raise AssertionError("discovery ran before the pattern was resolved")

    monkeypatch.setattr(repro.quorums, "discover_gqs", no_discovery)
    monkeypatch.setattr(repro.scenarios.builders, "discover_gqs", no_discovery)
    with pytest.raises(ReproError, match="unknown pattern 'nope'"):
        api.simulate(api.resolve_system(builtin="figure1"), pattern="nope")
    scenario = dataclasses.replace(get_scenario("geo-replication"), failure=FailureSpec("nope"))
    with pytest.raises(ReproError, match="injects unknown pattern 'nope'"):
        api.run_scenario(scenario, runs=1)


def test_simulate_rejects_unknown_pattern_and_protocol():
    system = api.resolve_system(builtin="figure1")
    with pytest.raises(ReproError, match="unknown pattern 'nope'"):
        api.simulate(system, pattern="nope")
    with pytest.raises(ReproError, match="unknown protocol kind 'registr'.*did you mean 'register'"):
        api.simulate(system, protocol="registr")


@pytest.mark.parametrize("kwargs", [{"ops": 0}, {"ops": -1}, {"runs": 0}, {"runs": -4}])
def test_simulate_rejects_vacuous_runs(kwargs):
    system = api.resolve_system(builtin="figure1")
    with pytest.raises(ReproError, match="at least 1 operation per process and at least 1 run"):
        api.simulate(system, **kwargs)


def test_simulate_intolerable_system_raises_typed_error():
    system = api.resolve_system(builtin="figure1-modified")
    with pytest.raises(NoQuorumSystemExistsError, match="nothing to simulate"):
        api.simulate(system)


# ---------------------------------------------------------------------- #
# scenarios
# ---------------------------------------------------------------------- #
def test_run_scenario_accepts_name_or_spec():
    by_name = api.run_scenario("unidirectional-ring", runs=2, seed=7)
    by_spec = api.run_scenario(get_scenario("unidirectional-ring"), runs=2, seed=7)
    assert by_name.to_dict() == by_spec.to_dict()


def test_run_scenario_unknown_name_gets_registry_error():
    with pytest.raises(ReproError, match="unknown scenario 'ringg'"):
        api.run_scenario("ringg")


def test_sweep_scenarios_subset():
    results = api.sweep_scenarios(["unidirectional-ring"], runs=1, seed=7)
    assert [r.scenario.name for r in results] == ["unidirectional-ring"]
    assert results[0].ok


# ---------------------------------------------------------------------- #
# Monte Carlo sweep and trace checking
# ---------------------------------------------------------------------- #
def test_sweep_kinds_and_validation():
    outcome = api.sweep(kind="admissibility", probs=(0.0,), n=4, patterns=2, samples=4, seed=1)
    assert outcome.admissibility is not None
    assert outcome.reliability is None
    assert "generalized (GQS)" in outcome.to_text()
    with pytest.raises(ReproError, match="unknown sweep kind 'both'"):
        api.sweep(kind="both")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"samples": 0}, "samples >= 1"),
        ({"samples": -3}, "samples >= 1"),
        ({"n": 0}, "n >= 1"),
        ({"n": -2}, "n >= 1"),
        ({"patterns": 0}, "patterns >= 1"),
        ({"patterns": -1}, "patterns >= 1"),
        ({"probs": (0.1, 1.5)}, r"probabilities must lie in \[0, 1\]"),
        ({"probs": (-0.2,)}, r"probabilities must lie in \[0, 1\]"),
        ({"probs": (float("nan"),)}, r"probabilities must lie in \[0, 1\]"),
    ],
)
def test_sweep_rejects_meaningless_budgets_and_probabilities(monkeypatch, kwargs, message):
    """All-zero or vacuously all-one tables, a negative shift count out of a
    shard, a nan that trips the merge guard: refused before any shard runs."""
    from repro.engine import ParallelRunner

    def no_shard_may_run(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(ParallelRunner, "run_sharded", no_shard_may_run)
    with pytest.raises(ReproError, match=message):
        api.sweep(**kwargs)


def test_check_traces_round_trip(tmp_path):
    directory = str(tmp_path / "traces")
    api.run_scenario("unidirectional-ring", runs=2, seed=7, record_traces=directory)
    report = api.check_traces(directory)
    assert report.ok
    assert report.traces == 2
    with pytest.raises(ReproError, match="unknown checker 'wing-gog'.*did you mean 'wing-gong'"):
        api.check_traces(directory, checker="wing-gog")


def test_run_examples_all_hold():
    outcomes = api.run_examples()
    assert len(outcomes) == 6
    assert all(outcome.holds for outcome in outcomes)


def test_protocol_safety_label_dispatch():
    assert api.protocol_safety_label("register", True) == "linearizable=True"
    assert api.protocol_safety_label("consensus", False) == "agreement+validity+termination=False"
    with pytest.raises(ReproError, match="unknown protocol kind"):
        api.protocol_safety_label("nope", True)


# ---------------------------------------------------------------------- #
# Results render themselves: what the CLI prints is callable from here
# ---------------------------------------------------------------------- #
def test_field_lines_puts_the_colon_in_the_asked_column():
    from repro.analysis.metrics import field_lines

    for width in (10, 14, 18, 19):
        lines = field_lines(width, ("safe", True), ("mean latency", "1.50 (avg)"))
        assert [line.index(":") for line in lines] == [width, max(width, len("mean latency"))]
        assert lines[0] == "safe" + " " * (width - 4) + ": True"
    # A label longer than the column keeps its colon right behind it.
    assert field_lines(18, ("cache entries reused", 3)) == ["cache entries reused: 3"]
    assert field_lines(18) == []


def test_every_result_type_prints_what_the_cli_prints(tmp_path, capsys):
    from repro.cli import main

    def printed(argv):
        main(argv)
        return capsys.readouterr().out

    def same(argv, result, json_too=True):
        assert printed(argv) == result.to_text() + "\n"
        if json_too:
            assert printed(argv + ["--format", "json"]) == result.to_json() + "\n"

    deltas = tmp_path / "deltas.jsonl"
    deltas.write_text('{"op": "suspect", "process": "a"}\n')
    traces = str(tmp_path / "traces")
    system, broken = api.resolve_system(), api.resolve_system(builtin="figure1-modified")
    same(["quorums", "discover"], api.discovery_report(system))
    same(["quorums", "discover", "--builtin", "figure1-modified"], api.discovery_report(broken))
    same(["quorums", "watch", str(deltas)], api.watch_quorums(system, str(deltas)))
    same(["quorums", "classify"], api.classify(system))
    same(["quorums", "repair", "--builtin", "figure1-modified"], api.repair(broken))
    same(["quorums", "repair"], api.repair(system))
    same(["sweep", "--samples", "4", "--probs", "0.2"], api.sweep(samples=4, probs=(0.2,)))
    same(["scenario", "show", "churn-at-gst"], get_scenario("churn-at-gst"))
    ring = api.run_scenario("unidirectional-ring", runs=2, seed=7, record_traces=traces)
    same(["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7"], ring)
    same(["check", traces], api.check_traces(traces))
    hunted = api.hunt("adversarial-partition", budget=2, seeds=1)
    same(["nemesis", "hunt", "adversarial-partition", "--budget", "2", "--seeds", "1"], hunted)
    # ``simulate`` has no --format; its report still has both renderings.
    for runs in (1, 2):
        report = api.simulate(system, pattern="f1", ops=1, runs=runs)
        argv = ["simulate", "--pattern", "f1", "--ops", "1", "--runs", str(runs)]
        same(argv, report, json_too=False)
        assert json.loads(report.to_json())["rows"] == report.rows
    # ``check`` without a directory prints the decision with the repairs searched for.
    checked = api.CheckReport(broken, api.discover(broken), repair=api.repair(broken))
    same(["check", "--builtin", "figure1-modified", "--suggest-repairs"], checked, json_too=False)
