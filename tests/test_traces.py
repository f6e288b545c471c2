"""Tests for the trace store and parallel replay verification (:mod:`repro.traces`)."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ReproError
from repro.experiments import run_workload
from repro.history import History, OperationRecord
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario, sweep_scenarios
from repro.serialization import (
    history_to_dicts,
    operation_record_from_dict,
    operation_record_to_dict,
    value_from_jsonable,
    value_to_jsonable,
)
from repro.sim import build_delay_model
from repro.traces import (
    TRACE_SCHEMA_VERSION,
    check_trace,
    check_traces,
    list_trace_files,
    load_trace,
    trace_file_name,
    write_run_trace,
)

from oracles.linearizability import check_streaming


# --------------------------------------------------------------------------- #
# Value codec
# --------------------------------------------------------------------------- #
def test_value_codec_round_trips_protocol_values():
    values = [
        None,
        True,
        0,
        3.5,
        "p1#0",
        ("number", 2),
        frozenset({"a", "b"}),
        {"a": 1, "b": None},
        {("site", 0): frozenset({1, 2})},  # tuple keys, frozenset values
        [1, "two", (3,)],
        {1, 2},
    ]
    for value in values:
        encoded = value_to_jsonable(value)
        assert json.loads(json.dumps(encoded)) == encoded  # JSON-native
        assert value_from_jsonable(encoded) == value
        assert type(value_from_jsonable(encoded)) is type(value)


def test_value_codec_rejects_unsupported_types():
    with pytest.raises(ReproError):
        value_to_jsonable(object())


json_scalars = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
nested_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=3)
        | st.frozensets(json_scalars, max_size=3)
        | st.dictionaries(json_scalars, children, max_size=3)
        | st.tuples(children, children)
    ),
    max_leaves=8,
)


@given(nested_values)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_value_codec_round_trips_arbitrary_nested_values(value):
    assert value_from_jsonable(value_to_jsonable(value)) == value


def test_operation_record_round_trip():
    record = OperationRecord("p0", "propose", frozenset({"p0"}), frozenset({"p0", "p1"}), 1.0, 2.5, op_id=7)
    assert operation_record_from_dict(operation_record_to_dict(record)) == record
    pending = OperationRecord("p1", "write", 3, None, 1.0, None, op_id=8)
    assert operation_record_from_dict(operation_record_to_dict(pending)) == pending


def test_history_round_trip_preserves_order_and_records():
    h = History([
        OperationRecord("a", "write", 1, "ack", 0.0, 1.0, op_id=0),
        OperationRecord("b", "read", None, 1, 2.0, None, op_id=1),
    ])
    again = History(map(operation_record_from_dict, history_to_dicts(h)))
    assert again.records == h.records


# --------------------------------------------------------------------------- #
# Store round trip
# --------------------------------------------------------------------------- #
def test_write_and_load_trace_round_trip(tmp_path):
    history = History([
        OperationRecord("a", "write", 1, "ack", 0.0, 1.0, op_id=0),
        OperationRecord("b", "read", None, 1, 2.0, 3.0, op_id=1),
    ])
    path = write_run_trace(
        str(tmp_path),
        name="unit",
        protocol="register",
        root_seed=3,
        run_index=2,
        seed=77,
        history=history,
        verdict={"completed": True, "safe": True, "explored_states": 4},
    )
    assert os.path.basename(path) == trace_file_name("unit", 3, 2)
    trace = load_trace(path)
    assert trace.schema == TRACE_SCHEMA_VERSION
    assert trace.name == "unit" and trace.protocol == "register"
    assert trace.root_seed == 3 and trace.run == 2 and trace.seed == 77
    assert trace.history.records == history.records
    assert trace.recorded_safe is True
    row = check_trace(trace)
    assert row["safe"] and row["match"]


def test_load_trace_rejects_truncated_trace_without_verdict(tmp_path):
    """A trace missing its closing verdict line is truncated evidence: it must
    be refused outright, never vacuously re-verified as a stub history."""
    path = tmp_path / "cut.trace.jsonl"
    path.write_text(
        json.dumps({"type": "meta", "schema": TRACE_SCHEMA_VERSION, "name": "cut",
                    "protocol": "register", "root_seed": 0, "run": 0, "seed": 0}) + "\n"
    )
    with pytest.raises(ReproError, match="no 'verdict' record"):
        load_trace(str(path))


def test_write_run_trace_is_atomic_and_leaves_no_temp_files(tmp_path):
    history = History([OperationRecord("a", "write", 1, "ack", 0.0, 1.0, op_id=0)])
    write_run_trace(
        str(tmp_path), name="atomic", protocol="register", root_seed=0, run_index=0,
        seed=1, history=history, verdict={"completed": True, "safe": True},
    )
    assert [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")] == []


def test_load_trace_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(json.dumps({"type": "meta", "schema": 999}) + "\n")
    with pytest.raises(ReproError, match="unsupported trace schema"):
        load_trace(str(path))


def test_list_trace_files_requires_traces(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        list_trace_files(str(tmp_path / "missing"))
    with pytest.raises(ReproError, match="no .* files"):
        list_trace_files(str(tmp_path))


# --------------------------------------------------------------------------- #
# Record → re-check round trip over the engine
# --------------------------------------------------------------------------- #
def test_recorded_scenario_traces_reproduce_inline_verdicts(tmp_path):
    directory = str(tmp_path / "traces")
    result = run_scenario("unidirectional-ring", runs=2, seed=11, record_traces=directory)
    report = check_traces(directory)
    assert report.traces == result.runs
    assert report.ok and report.all_match
    for row, run_row in zip(report.rows, result.rows):
        assert row["run"] == run_row["run"]
        assert row["safe"] == run_row["safe"]
        assert row["operations"] == run_row["operations"]


def test_recording_is_jobs_independent_bytewise(tmp_path):
    serial_dir, parallel_dir = str(tmp_path / "serial"), str(tmp_path / "parallel")
    run_scenario("unidirectional-ring", runs=2, seed=5, jobs=1, record_traces=serial_dir)
    run_scenario("unidirectional-ring", runs=2, seed=5, jobs=2, record_traces=parallel_dir)
    serial_files = sorted(os.listdir(serial_dir))
    assert serial_files == sorted(os.listdir(parallel_dir))
    for name in serial_files:
        with open(os.path.join(serial_dir, name), "rb") as first:
            with open(os.path.join(parallel_dir, name), "rb") as second:
                assert first.read() == second.read(), name


def test_sweep_records_every_scenario_without_collisions(tmp_path):
    directory = str(tmp_path / "traces")
    names = ["unidirectional-ring", "lattice-fan-in", "paxos-baseline"]
    sweep_scenarios(names, runs=1, seed=2, record_traces=directory)
    files = list_trace_files(directory)
    assert len(files) == len(names)
    protocols = {load_trace(path).protocol for path in files}
    assert protocols == {
        get_scenario(name).protocol.kind for name in names
    }
    report = check_traces(directory)
    assert report.ok


def test_check_traces_verdicts_are_jobs_independent(tmp_path):
    directory = str(tmp_path / "traces")
    run_scenario("unidirectional-ring", runs=3, seed=4, record_traces=directory)
    serial = check_traces(directory, jobs=1)
    for jobs in (2, 4):
        parallel = check_traces(directory, jobs=jobs)
        assert parallel.table().to_text() == serial.table().to_text()
        assert parallel.to_dict() == serial.to_dict()


def test_checker_variants_agree_on_recorded_register_traces(tmp_path):
    directory = str(tmp_path / "traces")
    run_scenario("heavy-contention-register", runs=1, seed=1, record_traces=directory)
    verdicts = {
        checker: [row["safe"] for row in check_traces(directory, checker=checker).rows]
        for checker in ("auto", "wing-gong")
    }
    # The streaming reference checker is the third voice, on the same histories.
    verdicts["streaming-oracle"] = [
        check_streaming(load_trace(path).history, initial_value=0).is_linearizable
        for path in list_trace_files(directory)
    ]
    assert len({tuple(v) for v in verdicts.values()}) == 1
    with pytest.raises(ReproError, match="unknown checker 'dep-graph'"):
        check_traces(directory, checker="dep-graph")


def test_check_traces_rejects_unknown_checker(tmp_path):
    directory = str(tmp_path / "traces")
    run_scenario("unidirectional-ring", runs=1, seed=0, record_traces=directory)
    with pytest.raises(ReproError, match="unknown checker"):
        check_traces(directory, checker="no-such-checker")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_record_then_check_round_trip(tmp_path, capsys):
    directory = str(tmp_path / "traces")
    argv = ["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7",
            "--record-traces", directory]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["check", directory]) == 0
    output = capsys.readouterr().out
    assert "match recorded     : True (2/2)" in output


@pytest.mark.parametrize("protocol", ["register", "snapshot", "lattice", "consensus", "paxos"])
def test_simulate_traces_say_how_to_rebuild_their_runs(tmp_path, capsys, protocol):
    """A ``simulate`` trace's system, failure and delay records (plus the
    workload its ``scenario`` names) rerun to the very operations it recorded."""
    directory = str(tmp_path / "traces")
    assert main(["simulate", "--object", protocol, "--pattern", "f1", "--runs", "2",
                 "--record-traces", directory]) == 0
    for path in list_trace_files(directory):
        trace = load_trace(path)
        delay_model = build_delay_model(
            trace.delay["kind"], trace.delay["params"], trace.delay["seed"]
        )
        scenario = ScenarioSpec.from_dict(trace.scenario)
        rebuilt = run_workload(
            trace.protocol,
            trace.quorum_system,
            pattern=trace.pattern,
            inject_at=trace.inject_at,
            delay_model=delay_model,
            protocol_params=scenario.protocol.params,
            ops_per_process=scenario.workload.ops_per_process,
            seed=trace.seed,
        )
        with open(path, "r", encoding="utf-8") as handle:
            recorded = [json.loads(line) for line in handle]
        operations = [
            {key: value for key, value in record.items() if key != "type"}
            for record in recorded
            if record["type"] == "op"
        ]
        assert json.loads(json.dumps(history_to_dicts(rebuilt.history))) == operations
    capsys.readouterr()
    assert main(["check", directory]) == 0
    assert "match recorded     : True (2/2)" in capsys.readouterr().out


def test_cli_check_jobs_do_not_change_results(tmp_path, capsys):
    """`repro check DIR` verdict tables are byte-identical for --jobs 1/2/4."""
    directory = str(tmp_path / "traces")
    assert main(["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7",
                 "--record-traces", directory]) == 0
    capsys.readouterr()
    outputs = []
    for jobs in ("1", "2", "4"):
        assert main(["check", directory, "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_check_json_format(tmp_path, capsys):
    directory = str(tmp_path / "traces")
    assert main(["scenario", "run", "paxos-baseline", "--runs", "1",
                 "--record-traces", directory]) == 0
    capsys.readouterr()
    assert main(["check", directory, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["all_match"] is True
    assert payload["rows"][0]["protocol"] == "paxos"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("checker", ["auto", "wing-gong"])
def test_cli_check_rejects_a_trace_with_a_foreign_operation_kind(tmp_path, capsys, checker, jobs):
    """Regression: the default judge used to print ``safe True ... match True``
    and exit 0 after ignoring every operation whose kind it did not know."""
    directory = str(tmp_path / "traces")
    assert main(["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7",
                 "--record-traces", directory]) == 0
    capsys.readouterr()
    tampered = list_trace_files(directory)[1]
    with open(tampered, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert '"kind":"read"' in text
    with open(tampered, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"kind":"read"', '"kind":"cas"'))
    assert main(["check", directory, "--checker", checker, "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: {}: register histories may only contain read/write operations, "
        "got 'cas'\n".format(tampered)
    )


def test_cli_check_missing_directory_errors(capsys):
    assert main(["check", "definitely-not-a-directory"]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_cli_check_without_target_still_decides_gqs(capsys):
    assert main(["check", "--builtin", "figure1"]) == 0
    assert "generalized quorum system exists" in capsys.readouterr().out


def test_cli_simulate_record_traces(tmp_path, capsys):
    directory = str(tmp_path / "traces")
    assert main(["simulate", "--builtin", "figure1", "--object", "register",
                 "--pattern", "f1", "--ops", "1", "--runs", "2", "--jobs", "2",
                 "--record-traces", directory]) == 0
    capsys.readouterr()
    assert len(list_trace_files(directory)) == 2
    assert main(["check", directory]) == 0
    assert "match recorded     : True (2/2)" in capsys.readouterr().out
