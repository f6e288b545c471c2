"""Tests for the command-line interface (:mod:`repro.cli`)."""

import json

import pytest

from repro.cli import main


def test_check_builtin_figure1(capsys):
    status = main(["check", "--builtin", "figure1"])
    output = capsys.readouterr().out
    assert status == 0
    assert "generalized quorum system exists" in output
    assert "U_f" in output


def test_check_builtin_modified_reports_impossibility(capsys):
    status = main(["check", "--builtin", "figure1-modified"])
    output = capsys.readouterr().out
    assert status == 2
    assert "NO generalized quorum system" in output


def test_check_unknown_builtin(capsys):
    status = main(["check", "--builtin", "does-not-exist"])
    captured = capsys.readouterr()
    assert status == 1
    assert "unknown built-in" in captured.err


def test_check_spec_file(tmp_path, capsys):
    spec = {
        "processes": ["a", "b", "c"],
        "patterns": [
            {"name": "partition", "crash": [], "disconnect": [["a", "c"], ["b", "c"], ["c", "b"]]},
            {"name": "crash-b", "crash": ["b"], "disconnect": []},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    status = main(["check", "--spec", str(path)])
    assert status == 0
    assert "generalized quorum system exists" in capsys.readouterr().out


def test_simulate_register_under_f1(capsys):
    status = main(
        ["simulate", "--builtin", "figure1", "--object", "register", "--pattern", "f1", "--ops", "1"]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "linearizable=True" in output
    assert "all ops completed : True" in output


def test_simulate_consensus_failure_free(capsys):
    status = main(["simulate", "--builtin", "figure1", "--object", "consensus"])
    output = capsys.readouterr().out
    assert status == 0
    assert "agreement+validity+termination=True" in output


def test_simulate_unknown_pattern(capsys):
    status = main(["simulate", "--builtin", "figure1", "--pattern", "nope"])
    assert status == 1
    assert "unknown pattern" in capsys.readouterr().err


def test_simulate_on_intolerable_system(capsys):
    status = main(["simulate", "--builtin", "figure1-modified"])
    assert status == 2
    assert "nothing to simulate" in capsys.readouterr().out.lower()


def test_examples_command(capsys):
    status = main(["examples"])
    output = capsys.readouterr().out
    assert status == 0
    assert output.count("[ok ]") == 6


def test_sweep_admissibility(capsys):
    status = main(
        ["sweep", "admissibility", "--probs", "0.0", "0.3", "--samples", "5", "--n", "4"]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "generalized (GQS)" in output


def test_sweep_reliability(capsys):
    status = main(["sweep", "reliability", "--probs", "0.0", "--samples", "10"])
    output = capsys.readouterr().out
    assert status == 0
    assert "GQS availability" in output


def test_sweep_jobs_do_not_change_results(capsys):
    argv = ["sweep", "all", "--probs", "0.0", "0.3", "--samples", "8", "--n", "4", "--seed", "7"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_simulate_multiple_runs_aggregate(capsys):
    status = main(
        [
            "simulate", "--builtin", "figure1", "--object", "register",
            "--pattern", "f1", "--ops", "1", "--runs", "3", "--jobs", "2",
        ]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "runs              : 3" in output
    assert "linearizable=True (3/3 runs)" in output
    assert "all ops completed : True (3/3 runs)" in output


def test_check_with_repair_suggestions(capsys):
    status = main(
        ["check", "--builtin", "figure1-modified", "--suggest-repairs", "--max-repair-channels", "1"]
    )
    output = capsys.readouterr().out
    assert status == 2
    assert "Hardening any of the following channel sets" in output
    assert "('a', 'b')" in output


# ---------------------------------------------------------------------- #
# quorums command group
# ---------------------------------------------------------------------- #
def test_quorums_discover_table(capsys):
    status = main(["quorums", "discover", "--builtin", "figure1"])
    output = capsys.readouterr().out
    assert status == 0
    assert "GQS witness" in output
    assert "nodes explored" in output
    assert "algorithm         : pruned" in output


def test_quorums_discover_json_round_trips(capsys):
    status = main(["quorums", "discover", "--builtin", "multiregion-4x3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["exists"] is True
    assert payload["algorithm"] == "pruned"
    assert payload["nodes_explored"] >= len(payload["patterns"])
    for row in payload["patterns"]:
        assert row["candidates"] >= 1
        assert row["read_quorum"] and row["write_quorum"]
        assert set(row["write_quorum"]) <= set(row["read_quorum"])


def test_quorums_discover_reports_impossibility(capsys):
    status = main(["quorums", "discover", "--builtin", "figure1-modified"])
    output = capsys.readouterr().out
    assert status == 2
    assert "NO generalized quorum system" in output


def test_quorums_discover_naive_algorithm_agrees(capsys):
    from repro.failures import builtin_fail_prone_system
    from repro.types import sorted_processes

    from oracles.discovery import discover_naive

    assert main(["quorums", "discover", "--builtin", "ring-5", "--format", "json"]) == 0
    pruned = json.loads(capsys.readouterr().out)
    system = builtin_fail_prone_system("ring-5")
    naive = discover_naive(system)
    assert pruned["exists"] == naive.exists is True
    assert [
        (row["candidates"], row["read_quorum"], row["write_quorum"])
        for row in pruned["patterns"]
    ] == [
        (
            naive.candidates_per_pattern[pattern],
            sorted_processes(naive.choices[pattern].read_quorum),
            sorted_processes(naive.choices[pattern].write_quorum),
        )
        for pattern in system.patterns
    ]


def test_quorums_classify_table_and_json(capsys):
    assert main(["quorums", "classify", "--builtin", "minority-5"]) == 0
    output = capsys.readouterr().out
    assert "classical quorum system (Definition 1) : True" in output
    assert main(["quorums", "classify", "--builtin", "figure1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admits"] == {"classical": False, "strong": False, "generalized": True}


def test_quorums_repair_finds_figure1_hardenings(capsys):
    status = main(["quorums", "repair", "--builtin", "figure1-modified"])
    output = capsys.readouterr().out
    assert status == 0
    assert "restores a GQS" in output
    assert "('a', 'b')" in output
    assert "cache entries reused" in output


def test_quorums_repair_json_on_tolerable_system(capsys):
    status = main(["quorums", "repair", "--builtin", "figure1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["already_tolerable"] is True
    assert payload["suggestions"] == []
