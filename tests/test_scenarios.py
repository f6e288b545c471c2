"""Tests for the declarative scenario subsystem (:mod:`repro.scenarios`)."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.scenarios import (
    DelaySpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    all_scenarios,
    build_quorum_system,
    build_topology,
    catalogue_markdown,
    get_scenario,
    register_scenario,
    resolve_pattern,
    run_built_scenario,
    run_scenario,
    scenario_names,
    sweep_scenarios,
    sweep_table,
)
from repro.serialization import fail_prone_system_to_dict
from repro.failures import ring_unidirectional_system


def run_scenario_once(scenario, seed):
    """Build ``scenario`` from scratch and execute one seeded run."""
    system = build_topology(scenario)
    quorum_system = build_quorum_system(scenario, system)
    return run_built_scenario(scenario, quorum_system, resolve_pattern(scenario, system), seed)


EXPECTED_NAMES = [
    "geo-replication",
    "unidirectional-ring",
    "adversarial-partition",
    "churn-at-gst",
    "partial-synchrony-stress",
    "heavy-contention-register",
    "lattice-fan-in",
    "zoned-threshold",
    "multi-region-blackout",
    "paxos-baseline",
]


# ---------------------------------------------------------------------- #
# Spec serialization
# ---------------------------------------------------------------------- #
def test_every_registered_scenario_round_trips_through_json():
    for scenario in all_scenarios():
        text = json.dumps(scenario.to_dict())
        assert ScenarioSpec.from_dict(json.loads(text)) == scenario


def test_scenario_file_round_trip(tmp_path):
    scenario = get_scenario("unidirectional-ring")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_dict(), indent=2))
    assert ScenarioSpec.from_dict(json.loads(path.read_text())) == scenario


def test_explicit_topology_round_trips_and_builds():
    system = ring_unidirectional_system(4)
    scenario = ScenarioSpec(
        name="inline-ring",
        description="ring described inline",
        paper_section="S1",
        topology=TopologySpec("explicit", {"system": fail_prone_system_to_dict(system)}),
        failure=FailureSpec(pattern="f1"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register"),
        workload=WorkloadSpec(ops_per_process=1),
    )
    again = ScenarioSpec.from_dict(json.loads(scenario.to_json()))
    assert again == scenario
    built = build_topology(again)
    assert built.processes == system.processes
    assert [f.name for f in built.patterns] == [f.name for f in system.patterns]
    row = run_scenario_once(again, seed=0)
    assert row["completed"] and row["safe"]


def test_spec_validation_rejects_unknown_kinds():
    with pytest.raises(ReproError):
        TopologySpec("no-such-topology")
    with pytest.raises(ReproError):
        DelaySpec("no-such-delay")
    with pytest.raises(ReproError):
        ProtocolSpec("no-such-protocol")
    with pytest.raises(ReproError):
        ProtocolSpec("register", {"view_duration": 5.0})  # consensus-only knob
    with pytest.raises(ReproError):
        WorkloadSpec(ops_per_process=0)


def test_random_topology_requires_a_pinned_seed():
    with pytest.raises(ReproError, match="requires an explicit integer 'seed'"):
        TopologySpec("random", {"n": 4})
    # with a pinned seed the sampled system is reproducible and allowed
    spec = TopologySpec("random", {"n": 4, "num_patterns": 2, "seed": 3})
    assert spec.params["seed"] == 3


def test_resolve_pattern_rejects_unknown_names():
    scenario = get_scenario("unidirectional-ring")
    bad = ScenarioSpec.from_dict(
        dict(scenario.to_dict(), failure={"pattern": "not-a-pattern", "at_time": None})
    )
    with pytest.raises(ReproError, match="unknown pattern"):
        resolve_pattern(bad, build_topology(bad))


# ---------------------------------------------------------------------- #
# Registry completeness
# ---------------------------------------------------------------------- #
def test_registry_contains_the_documented_catalogue():
    assert scenario_names() == EXPECTED_NAMES


def test_every_registered_scenario_builds_and_completes_a_smoke_run():
    """Every catalogue entry must materialize and survive one seeded run."""
    for name in scenario_names():
        scenario = get_scenario(name)
        system = build_topology(scenario)
        build_quorum_system(scenario, system)
        resolve_pattern(scenario, system)
        row = run_scenario_once(scenario, seed=0)
        assert row["completed"], name
        assert row["safe"], name
        assert row["operations"] > 0, name


def test_register_scenario_rejects_duplicates_and_supports_replace():
    scenario = get_scenario("unidirectional-ring")
    with pytest.raises(ReproError, match="already registered"):
        register_scenario(scenario)
    # replace=True is idempotent and keeps the registry unchanged
    register_scenario(scenario, replace=True)
    assert scenario_names() == EXPECTED_NAMES


# ---------------------------------------------------------------------- #
# Engine execution: jobs-independence
# ---------------------------------------------------------------------- #
def test_run_scenario_results_are_independent_of_jobs():
    for name in scenario_names():
        serial = run_scenario(name, runs=2, seed=11, jobs=1)
        parallel = run_scenario(name, runs=2, seed=11, jobs=2)
        assert serial.run_table().to_text() == parallel.run_table().to_text(), name
        assert serial.to_dict() == parallel.to_dict(), name


def test_sweep_scenarios_shares_one_pool_and_matches_per_scenario_runs():
    names = ["unidirectional-ring", "paxos-baseline"]
    swept = sweep_scenarios(names, runs=2, seed=5, jobs=2)
    assert [r.scenario.name for r in swept] == names
    for result in swept:
        alone = run_scenario(result.scenario, runs=2, seed=5, jobs=1)
        assert alone.rows == result.rows
    assert "paxos-baseline" in sweep_table(swept).to_text()


def test_run_scenario_seed_changes_the_sample_streams():
    a = run_scenario("unidirectional-ring", runs=2, seed=0)
    b = run_scenario("unidirectional-ring", runs=2, seed=1)
    assert a.rows != b.rows


def test_run_scenario_rejects_zero_runs():
    with pytest.raises(ReproError, match="at least 1 run"):
        run_scenario("unidirectional-ring", runs=0)


def test_explored_states_is_surfaced_in_rows_summary_and_table():
    """Regression: the linearizability checker's explored_states used to be
    dropped on the floor by the scenario runner — verification cost must be
    observable in every surface (per-run rows, aggregate summary, table)."""
    result = run_scenario("unidirectional-ring", runs=2, seed=0)
    for row in result.rows:
        assert row["explored_states"] > 0  # a register run always searches
    assert result.explored_states == sum(row["explored_states"] for row in result.rows)
    assert result.summary()["explored_states"] == result.explored_states
    assert "explored_states" in result.run_table().to_text()


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    output = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert name in output


def test_cli_scenario_show_json_round_trips(capsys):
    assert main(["scenario", "show", "churn-at-gst", "--format", "json"]) == 0
    output = capsys.readouterr().out
    assert ScenarioSpec.from_dict(json.loads(output)) == get_scenario("churn-at-gst")


def test_cli_scenario_run_jobs_do_not_change_results(capsys):
    for name in scenario_names():
        argv = ["scenario", "run", name, "--runs", "2", "--seed", "7"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel, name


def test_cli_scenario_run_json_output(capsys):
    assert main(
        ["scenario", "run", "paxos-baseline", "--runs", "1", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["name"] == "paxos-baseline"
    assert payload["summary"]["all_completed"] is True
    assert len(payload["rows"]) == 1


def test_cli_scenario_sweep_subset(capsys):
    status = main(
        ["scenario", "sweep", "unidirectional-ring", "lattice-fan-in", "--runs", "1", "--jobs", "2"]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "unidirectional-ring" in output
    assert "lattice-fan-in" in output
    assert "geo-replication" not in output


def test_cli_scenario_unknown_name(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scenario_run_rejects_non_positive_runs(capsys):
    with pytest.raises(SystemExit):
        main(["scenario", "run", "unidirectional-ring", "--runs", "0"])
    assert "runs must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# Docs consistency
# ---------------------------------------------------------------------- #
DOCS_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "scenarios.md")
TABLE_BEGIN = "<!-- scenario-table:begin -->"
TABLE_END = "<!-- scenario-table:end -->"


def test_docs_scenario_catalogue_matches_registry():
    """The table in docs/scenarios.md must equal the generated catalogue.

    Regenerate with:  python -m repro scenario list --format markdown
    """
    with open(DOCS_PATH, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert TABLE_BEGIN in text and TABLE_END in text
    embedded = text.split(TABLE_BEGIN)[1].split(TABLE_END)[0].strip()
    assert embedded == catalogue_markdown().strip()


def test_cli_scenario_list_markdown_matches_registry(capsys):
    assert main(["scenario", "list", "--format", "markdown"]) == 0
    assert capsys.readouterr().out.strip() == catalogue_markdown().strip()
