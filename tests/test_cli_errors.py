"""CLI error paths: unknown names exit non-zero with stable golden messages.

Every unknown-name error now funnels through the extension registry, so the
messages are deterministic (sorted candidate lists, hash-seed independent)
and carry a "did you mean" suggestion on a close miss — asserted here as
exact golden text.
"""

import pytest

from repro.cli import main

ALL_SCENARIOS = (
    "['adversarial-partition', 'churn-at-gst', 'geo-replication', "
    "'heavy-contention-register', 'lattice-fan-in', 'multi-region-blackout', "
    "'partial-synchrony-stress', 'paxos-baseline', 'unidirectional-ring', "
    "'zoned-threshold']"
)

BUILTIN_FORMS = (
    "figure1, figure1-modified, ring-<n>, geo-<sites>x<replicas>, minority-<n>, "
    "adversarial-<n>, large-threshold-<n>x<k>[x<zones>] or "
    "multiregion-<regions>x<replicas>"
)


def test_unknown_scenario_name_golden_message(capsys):
    status = main(["scenario", "run", "zoned-treshold"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown scenario 'zoned-treshold'; expected one of "
        + ALL_SCENARIOS
        + " (did you mean 'zoned-threshold'?)\n"
    )


def test_unknown_scenario_without_close_match_has_no_suggestion(capsys):
    status = main(["scenario", "show", "qqqq"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown scenario 'qqqq'; expected one of " + ALL_SCENARIOS + "\n"
    )


def test_unknown_builtin_topology_golden_message(capsys):
    status = main(["check", "--builtin", "doesnt-exist"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown built-in system 'doesnt-exist'; use " + BUILTIN_FORMS + "\n"
    )


@pytest.mark.parametrize(
    "name, reason",
    [
        ("large-threshold-60x3x1", "a catastrophic blackout pattern requires zones >= 2"),
        ("large-threshold-5x10", "max_crashes must be in [0, 5)"),
        ("multiregion-1x3", "need at least 2 regions"),
    ],
)
@pytest.mark.parametrize("command", [["check"], ["quorums", "discover"]])
def test_builtin_name_with_invalid_parameters_reports_the_reason(capsys, command, name, reason):
    """A name of a built-in form is parsed, then built: a bad parameter is not an unknown name."""
    status = main(command + ["--builtin", name])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == "error: built-in system '{}': {}\n".format(name, reason)
    assert "Traceback" not in captured.err and captured.out == ""


def test_unknown_protocol_object_rejected_by_generated_choices(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--object", "registr"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'registr'" in err
    # The choice list is generated from the protocol registry.
    for kind in ("register", "snapshot", "lattice", "consensus", "paxos"):
        assert kind in err


@pytest.mark.parametrize(
    "flag, value", [("--ops", "0"), ("--ops", "-1"), ("--runs", "0"), ("--runs", "-4")]
)
def test_simulate_rejects_vacuous_runs_as_usage_errors(capsys, flag, value):
    """Zero operations or zero runs would print an all-green report for nothing."""
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--builtin", "figure1", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "argument {}:".format(flag) in captured.err and "must be at least 1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flag, value, complaint",
    [
        ("--samples", "0", "samples must be at least 1"),
        ("--samples", "-3", "samples must be at least 1"),
        ("--n", "0", "n must be at least 1"),
        ("--n", "-2", "n must be at least 1"),
        ("--patterns", "0", "patterns must be at least 1"),
        ("--patterns", "-1", "patterns must be at least 1"),
        ("--probs", "1.5", "a probability must lie in [0, 1]"),
        ("--probs", "-0.2", "a probability must lie in [0, 1]"),
        ("--probs", "nan", "a probability must lie in [0, 1]"),
    ],
)
def test_sweep_rejects_meaningless_budgets_and_probabilities(capsys, flag, value, complaint):
    """They used to end in a traceback, an all-zero table, a vacuous all-one
    table or, for ``nan``, a false routing error from a per-study merge guard
    that compared grid parameters (``nan != nan``)."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "argument {}: {}".format(flag, complaint) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_sweep_arguments_are_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in (
        "probabilities to sweep, each in [0, 1]",
        "samples per probability (at least 1)",
        "processes per sampled system (at least 1)",
        "failure patterns per sampled system (at least 1)",
        "root seed",
    ):
        assert text in out


def test_unknown_checker_rejected_by_generated_choices(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(tmp_path), "--checker", "wing-gog"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'wing-gog'" in err
    for kind in ("auto", "wing-gong"):
        assert kind in err
    assert "streaming" not in err and "dep-graph" not in err


@pytest.mark.parametrize("removed", ["streaming", "dep-graph"])
def test_removed_checker_names_are_ordinary_usage_errors(capsys, tmp_path, removed):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(tmp_path), "--checker", removed])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "invalid choice: '{}'".format(removed) in captured.err
    assert captured.out == ""


def test_unknown_plugin_module_golden_message(capsys):
    status = main(["--plugin", "no_such_plugin_module", "examples"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith(
        "error: plugin 'no_such_plugin_module' failed to import: ModuleNotFoundError:"
    )


# ---------------------------------------------------------------------- #
# File ingress: an unreadable or malformed file is one ``error:`` line
# ---------------------------------------------------------------------- #
#: Every command that loads a fail-prone system from ``--spec``.
SPEC_COMMANDS = [
    ["quorums", "discover"],
    ["quorums", "classify"],
    ["quorums", "repair"],
    ["quorums", "watch", "deltas.jsonl"],
    ["check"],
    ["simulate"],
]


def _assert_one_error_line(status, captured, *fragments):
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


@pytest.mark.parametrize("command", SPEC_COMMANDS, ids=lambda command: "-".join(command[:2]))
@pytest.mark.parametrize("kind", ["missing", "directory", "not-json"])
def test_unreadable_spec_file_is_one_error_line(capsys, tmp_path, command, kind):
    """They used to die with FileNotFoundError / IsADirectoryError / JSONDecodeError."""
    path = tmp_path / "system.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-json":
        path.write_text("{processes: [a, b]")
    status = main(command + ["--spec", str(path)])
    expected = {
        "missing": "No such file or directory",
        "directory": "Is a directory",
        "not-json": "invalid JSON",
    }[kind]
    _assert_one_error_line(status, capsys.readouterr(), str(path) + ": ", expected)


@pytest.mark.parametrize(
    "spec, complaint",
    [
        ({"processes": 5}, "'processes' must be a list of process ids"),
        ({"processes": [["a"], "b"]}, "'processes' must be a list of process ids"),
        ({"processes": "abc"}, "'processes' must be a list of process ids"),
        ({"processes": ["a", "b"], "patterns": 3}, "'patterns' must be a list"),
        ({"processes": ["a", "b"], "patterns": [{"crash": 7}]}, "'crash' must be a list"),
        (
            {"processes": ["a", "b"], "patterns": [{"disconnect": [["a"]]}]},
            "'disconnect' must be a list of [sender, receiver] rows",
        ),
        (
            {"processes": ["a", "b"], "patterns": [{"disconnect": "ab"}]},
            "'disconnect' must be a list of [sender, receiver] rows",
        ),
    ],
    ids=[
        "processes-int", "processes-nested", "processes-string", "patterns-int",
        "crash-int", "channel-short", "disconnect-string",
    ],
)
def test_wrong_shaped_spec_file_is_one_error_line(capsys, tmp_path, spec, complaint):
    """Well-formed JSON of the wrong shape used to leak TypeError / ValueError."""
    import json

    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    status = main(["quorums", "discover", "--spec", str(path)])
    _assert_one_error_line(status, capsys.readouterr(), complaint)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_delta_stream_is_one_error_line(capsys, tmp_path, kind):
    path = tmp_path / "deltas.jsonl"
    if kind == "directory":
        path.mkdir()
    status = main(["quorums", "watch", "--builtin", "figure1", str(path)])
    _assert_one_error_line(status, capsys.readouterr(), str(path) + ": ")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_schedule_file_is_one_error_line(capsys, tmp_path, kind):
    path = tmp_path / "x.schedule.json"
    if kind == "directory":
        path.mkdir()
    status = main(["nemesis", "replay", str(path)])
    _assert_one_error_line(status, capsys.readouterr(), str(path) + ": ")


def test_schedule_setting_an_unknown_protocol_knob_is_one_error_line(capsys, tmp_path):
    """A lattice schedule naming a ``lattice`` knob used to reach the process
    and end in a bare ``AttributeError: 'str' object has no attribute 'bottom'``."""
    import json

    from repro.nemesis import identity_schedule
    from repro.scenarios import get_scenario

    data = identity_schedule(get_scenario("lattice-fan-in"), 7).to_dict()
    data["base"]["protocol"]["params"]["lattice"] = "max"
    path = tmp_path / "lattice.schedule.json"
    path.write_text(json.dumps(data))
    assert main(["nemesis", "replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: {}: protocol 'lattice' does not accept parameter(s) ['lattice']\n".format(path)
    )


def test_schedule_setting_a_knob_beside_classical_is_one_error_line(capsys, tmp_path):
    """A register schedule with ``classical`` and ``push_interval`` used to run
    classical ABD and drop the push period without a word, and then to refuse
    it without naming the file."""
    import json

    from repro.nemesis import identity_schedule
    from repro.scenarios import get_scenario

    data = identity_schedule(get_scenario("unidirectional-ring"), 7).to_dict()
    data["base"]["protocol"]["params"] = {"classical": True, "push_interval": 0.25}
    path = tmp_path / "classical.schedule.json"
    path.write_text(json.dumps(data))
    assert main(["nemesis", "replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: {}: protocol 'register': classical ABD takes no 'push_interval'\n".format(path)
    )


#: One line of 100 000 nested lists: deeper than the JSON decoder recurses.
DEEP_JSON = "[" * 100000 + "]" * 100000


def test_deeply_nested_trace_is_one_error_line(capsys, tmp_path):
    """It used to reach a bare RecursionError traceback out of ``json.loads``."""
    (tmp_path / "deep.trace.jsonl").write_text(DEEP_JSON + "\n")
    status = main(["check", str(tmp_path)])
    _assert_one_error_line(status, capsys.readouterr(), "deep.trace.jsonl:1: invalid JSON")


def test_deeply_nested_spec_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(DEEP_JSON)
    status = main(["quorums", "discover", "--spec", str(path)])
    _assert_one_error_line(
        status, capsys.readouterr(), str(path) + ": invalid JSON: maximum recursion depth"
    )


def test_deeply_nested_json_is_a_repro_error_at_every_other_ingress(tmp_path):
    """The delta stream, the incident report and a nemesis schedule."""
    from repro.errors import ReproError
    from repro.nemesis import load_schedule
    from repro.quorums import load_deltas
    from repro.traces.incidents import load_incident

    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    with pytest.raises(ReproError, match=r":1: invalid JSON: maximum recursion depth"):
        load_deltas(str(path))
    for load in (load_incident, load_schedule):
        with pytest.raises(ReproError, match=r"deep\.json: invalid JSON: maximum recursion"):
            load(str(path))


@pytest.mark.parametrize("checker", ["auto", "wing-gong"])
def test_register_trace_too_long_for_the_search_is_one_error_line(capsys, tmp_path, checker):
    """1500 sequential writes and a read of a value nobody wrote: the witness
    fails, and the recursive search used to overflow the stack with a bare
    RecursionError traceback."""
    from repro.history import History, OperationRecord
    from repro.traces import write_run_trace

    records = [
        OperationRecord("a", "write", i + 1, None, 2.0 * i, 2.0 * i + 1, op_id=i)
        for i in range(1500)
    ]
    records.append(OperationRecord("b", "read", None, -7, 3000.0, 3001.0, op_id=1500))
    write_run_trace(
        str(tmp_path), name="long", protocol="register", root_seed=0, run_index=0, seed=0,
        history=History(records), verdict={"safe": False},
    )
    status = main(["check", str(tmp_path), "--checker", checker])
    _assert_one_error_line(
        status, capsys.readouterr(), "long", "search over 1501 operations", "recursion limit"
    )


# ---------------------------------------------------------------------- #
# Field ingress: a well-formed file with a malformed field names file and field
# ---------------------------------------------------------------------- #
def _schedule(tmp_path, **fields):
    """A valid one-run schedule file (as ``nemesis hunt --corpus`` writes them), edited."""
    import json

    from repro.nemesis import identity_schedule
    from repro.scenarios import get_scenario

    data = identity_schedule(get_scenario("unidirectional-ring"), 7).to_dict()
    for part in ("workload", "delay"):
        edits = fields.pop(part, None)
        if edits is not None:
            target = data["base"][part]
            (target["params"] if part == "delay" else target).update(edits)
    data.update(fields)
    path = tmp_path / "edited.schedule.json"
    path.write_text(json.dumps(data))
    return ["nemesis", "replay", str(path)], str(path)


def _deltas(tmp_path, line):
    path = tmp_path / "deltas.jsonl"
    path.write_text("# membership churn\n" + line + "\n")
    return ["quorums", "watch", "--builtin", "figure1", str(path)], str(path) + ":2"


def _trace_with_header(tmp_path, **header):
    import json

    from repro import api

    api.run_scenario("unidirectional-ring", runs=1, record_traces=str(tmp_path))
    (path,) = tmp_path.iterdir()
    first, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps(dict(json.loads(first), **header)) + "\n" + rest)
    return ["check", str(tmp_path)], str(path) + ":1"


def _incident(tmp_path, **fields):
    import json

    from repro.traces import build_incident

    fitness = {"score": 5, "explored_states": 5, "stalled": False, "violation": False}
    incident = build_incident(scenario="s", candidate=0, seed=1, declared=(), fitness=fitness)
    path = tmp_path / "s-seed1-run0000.incident.json"
    path.write_text(json.dumps(dict(incident, **fields)))
    return ["nemesis", "corpus", str(tmp_path)], str(path)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda tmp: _schedule(tmp, stretches=[["a", "b"]]), "'stretches'"),
        (lambda tmp: _schedule(tmp, nudges="x"), "'nudges'"),
        (lambda tmp: _schedule(tmp, seed="zz"), "'seed'"),
        (lambda tmp: _schedule(tmp, lineage=5), "'lineage'"),
        (lambda tmp: _schedule(tmp, inject_at="soon"), "'inject_at'"),
        (lambda tmp: _schedule(tmp, workload={"ops_per_process": "many"}), "'ops_per_process'"),
        (lambda tmp: _deltas(tmp, '{"op": "suspect", "process": ["a"]}'), "'process'"),
        (lambda tmp: _deltas(tmp, '{"op": "suspect-channel", "src": {"a": 1}, "dst": "b"}'), "'src'"),
        (lambda tmp: _trace_with_header(tmp, seed="zz"), "'seed'"),
        (lambda tmp: _incident(tmp, flags=5), "'flags'"),
    ],
    ids=[
        "schedule-stretches", "schedule-nudges", "schedule-seed", "schedule-lineage",
        "schedule-inject-at", "schedule-workload-ops", "delta-process", "delta-src",
        "trace-header-seed", "incident-flags",
    ],
)
def test_malformed_field_is_one_error_line_naming_file_and_field(capsys, tmp_path, build, field):
    """Each used to die in a bare ``ValueError`` / ``TypeError`` traceback from
    ``Schedule.from_dict`` / ``WorkloadSpec.from_dict`` / ``parse_delta`` /
    ``load_trace`` / ``corpus_rows``."""
    argv, where = build(tmp_path)
    status = main(argv)
    _assert_one_error_line(status, capsys.readouterr(), "error: " + where + ": ", field)


@pytest.mark.parametrize(
    "spec, stream, complaint",
    [
        ({"processes": [0, 1, 2]}, '{"op": "suspect", "process": true}', "'process' must name"),
        ({"processes": [0, True, 2]}, None, "'processes' must be a list of process ids"),
        ({"processes": [0, 1, 2], "patterns": [{"crash": [False]}]}, None, "'crash' must be"),
    ],
    ids=["delta-process", "spec-processes", "spec-crash"],
)
def test_boolean_process_ids_are_refused(capsys, tmp_path, spec, stream, complaint):
    """``True == 1``: a JSON ``true`` used to pass as process 1 (the delta
    suspected process 1 and printed ``suspect(True)``; ``[0, true, 2]`` printed
    process 0 as ``False``)."""
    import json

    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    argv = ["quorums", "discover", "--spec", str(path)]
    fragments = [complaint]
    if stream is not None:
        deltas = tmp_path / "deltas.jsonl"
        deltas.write_text(stream + "\n")
        argv = ["quorums", "watch", "--spec", str(path), str(deltas)]
        fragments.append("error: {}:1: ".format(deltas))
    _assert_one_error_line(main(argv), capsys.readouterr(), *fragments)


def test_a_delta_that_cannot_apply_names_its_line_and_itself(capsys, tmp_path):
    """Only the pattern and the channel used to be named, not the file, line or delta."""
    import json

    spec = tmp_path / "system.json"
    spec.write_text(json.dumps({
        "processes": ["a", "b", "c"],
        "channels": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]],
    }))
    argv, where = _deltas(tmp_path, '{"op": "suspect-channel", "src": "a", "dst": "c"}')
    status = main(["quorums", "watch", "--spec", str(spec), argv[-1]])
    _assert_one_error_line(
        status,
        capsys.readouterr(),
        "error: {}: delta suspect-channel(a->c): ".format(where),
        "channel ('a', 'c') that does not exist in the network graph",
    )


@pytest.mark.parametrize(
    "edits, field",
    [
        (
            {"delay": {"min_delay": float("nan")}},
            "min_delay must be a finite non-negative number, got nan",
        ),
        ({"delay": {"min_delay": -1}}, "min_delay must be a finite non-negative number, got -1"),
        ({"stretches": [["p0", "p1", float("nan")]]}, "stretches: factor for channel ('p0', 'p1')"),
    ],
    ids=["nan-min-delay", "negative-min-delay", "nan-stretch"],
)
def test_invalid_delay_in_a_schedule_is_one_error_line(capsys, tmp_path, edits, field):
    """A NaN ``min_delay`` used to replay as a stall (``score`` 1000001, exit
    0), a NaN stretch as zero latency, and ``min_delay: -1`` ended in a bare
    ``ValueError`` traceback."""
    argv, where = _schedule(tmp_path, **edits)
    status = main(argv)
    _assert_one_error_line(status, capsys.readouterr(), "error: " + where + ": ", field)


# ---------------------------------------------------------------------- #
# Repair budgets: an empty search must not read as "no channel repair exists"
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["quorums", "repair", "--builtin", "figure1-modified", "--max-channels", "0"], "--max-channels"),
        (["quorums", "repair", "--builtin", "figure1-modified", "--max-channels", "-1"], "--max-channels"),
        (["quorums", "repair", "--builtin", "figure1-modified", "--max-suggestions", "0"], "--max-suggestions"),
        (["quorums", "repair", "--builtin", "figure1-modified", "--max-suggestions", "-2"], "--max-suggestions"),
        (
            ["check", "--builtin", "figure1-modified", "--suggest-repairs", "--max-repair-channels", "-3"],
            "--max-repair-channels",
        ),
        (
            ["check", "--builtin", "figure1-modified", "--suggest-repairs", "--max-repair-channels", "0"],
            "--max-repair-channels",
        ),
    ],
    ids=[
        "max-channels-0", "max-channels-neg", "max-suggestions-0", "max-suggestions-neg",
        "max-repair-channels-neg", "max-repair-channels-0",
    ],
)
def test_repair_rejects_meaningless_budgets_as_usage_errors(capsys, argv, flag):
    """``--max-channels 0|-1`` tried nothing and blamed the process failures;
    ``--max-suggestions 0|-2`` printed one suggestion."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "argument {}: {} must be at least 1".format(flag, flag[2:]) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------- #
# ``repro check`` has two modes: an option the chosen one does not read is refused
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "options, flag",
    [
        (["--format", "json"], "--format json"),
        (["--checker", "wing-gong", "--jobs", "2"], "--checker"),
        (["--jobs", "0"], "--jobs"),
        (["--progress"], "--progress"),
        (["--builtin", "ring-5", "--jobs", "1"], "--jobs"),
    ],
    ids=["format-json", "checker", "jobs-0", "progress", "jobs-with-builtin"],
)
def test_check_without_a_directory_refuses_trace_options(capsys, options, flag):
    """They used to be dropped: ``check --format json`` printed the text report."""
    with pytest.raises(SystemExit) as excinfo:
        main(["check"] + options)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""
    (complaint,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert complaint == (
        "repro check: error: {} applies only to 'repro check DIR' "
        "(re-verifying a trace directory)".format(flag)
    )


@pytest.mark.parametrize(
    "options, flag",
    [
        (["--builtin", "ring-5", "--suggest-repairs"], "--builtin"),
        (["--spec", "system.json"], "--spec"),
        (["--suggest-repairs"], "--suggest-repairs"),
        (["--max-repair-channels", "1", "--jobs", "2"], "--max-repair-channels"),
    ],
    ids=["builtin", "spec", "suggest-repairs", "max-repair-channels"],
)
def test_check_with_a_directory_refuses_decision_options(capsys, tmp_path, options, flag):
    """They used to be dropped: the traces were re-checked and the exit status was 0."""
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(tmp_path)] + options)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""
    (complaint,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert complaint == (
        "repro check: error: {} does not apply to 'repro check DIR': "
        "it belongs to the GQS decision (no DIR)".format(flag)
    )


# ---------------------------------------------------------------------- #
# Evidence directories are created (or refused) before any run starts
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--record-traces"],
        ["simulate", "--runs", "2", "--jobs", "2", "--record-traces"],
        ["scenario", "run", "unidirectional-ring", "--runs", "1", "--record-traces"],
        ["scenario", "sweep", "paxos-baseline", "--runs", "1", "--record-traces"],
        ["nemesis", "hunt", "unidirectional-ring", "--budget", "2", "--corpus"],
    ],
    ids=["simulate", "simulate-jobs2", "scenario-run", "scenario-sweep", "nemesis-hunt"],
)
@pytest.mark.parametrize("kind", ["a-file", "under-a-file"])
def test_unwritable_evidence_directory_is_one_error_line(
    capsys, tmp_path, monkeypatch, argv, kind
):
    """It was a worker's ``FileExistsError`` / ``NotADirectoryError`` — for the
    hunt, after the whole budget was spent."""
    from repro.engine import ParallelRunner

    def no_run_may_start(*args, **kwargs):
        raise AssertionError("a run started")

    for entry in ("map", "run_sharded"):
        monkeypatch.setattr(ParallelRunner, entry, no_run_may_start)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    target = str(blocker if kind == "a-file" else blocker / "traces")
    reason = "File exists" if kind == "a-file" else "Not a directory"
    assert main(argv + [target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write traces to {!r}: {}\n".format(target, reason)


def test_closed_stdout_pipe_ends_quietly():
    """``repro scenario list | head -1``: the reader leaving is not a traceback."""
    import os
    import subprocess
    import sys

    import repro

    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=source + os.pathsep + os.environ.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "scenario", "list", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, universal_newlines=True,
    )
    process.stdout.close()  # gone before the first byte is written
    stderr = process.stderr.read()
    assert process.wait(timeout=60) == 141
    assert stderr == ""
