"""Every file the CLI loads ends in data or in one attributed ``ReproError``.

The ingress battery.  Each kind of input file — fail-prone specs, membership
delta streams, nemesis schedules, trace files and corpus incidents — starts
from a valid document; hypothesis then replaces or deletes one node anywhere
in it (``derandomize=True``, a fixed example count) and the file's reader must
either return or raise a :class:`ReproError` whose text starts with the path
(``PATH:LINE`` for a JSONL line).  Any other exception fails the test.  Then
the byte-level cases every reader shares, the number rule, and the inputs
that used to end in a traceback, driven through ``repro.cli.main``.
"""

from __future__ import annotations

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.cli import main
from repro.errors import ReproError
from repro.nemesis import Schedule, corpus_rows, load_schedule
from repro.quorums import load_deltas
from repro.scenarios import get_scenario
from repro.serialization import load_fail_prone_system
from repro.traces import build_incident, load_incident, load_trace
from test_cli_errors import DEEP_JSON, _assert_one_error_line

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# ---------------------------------------------------------------------- #
# Valid documents, one per kind of file
# ---------------------------------------------------------------------- #
SPEC = {
    "name": "sparse",
    "processes": ["a", "b", "c"],
    "channels": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"], ["a", "c"]],
    "patterns": [
        {"name": "f1", "crash": ["c"], "disconnect": []},
        {"name": "f2", "crash": [], "disconnect": [["a", "c"]]},
    ],
}

DELTAS = [
    {"op": "join", "process": "d"},
    {"op": "suspect", "process": 2},
    {"op": "suspect-channel", "src": "a", "dst": "b"},
    {"op": "leave", "process": "d"},
]

FITNESS = {"score": 7, "explored_states": 7, "stalled": False, "violation": False}


def _schedule():
    """A mutated schedule whose base delay is itself a ``schedule-override``."""
    base = get_scenario("unidirectional-ring")
    data = Schedule(
        base=base, seed=7, pattern="f1", inject_at=2.0, stretches=(("p0", "p1", 2.0),),
        nudges=(("p1", "p2", 1, 0.5),), lineage=("stretch p0->p1 x2",),
    ).to_dict()
    data["base"]["delay"] = {
        "kind": "schedule-override",
        "params": {
            "base": data["base"]["delay"],
            "stretches": [["p1", "p0", 1.5]],
            "nudges": [["p0", "p1", 0, 0.25]],
        },
    }
    return data


def _incident():
    return build_incident(
        scenario="unidirectional-ring", candidate=3, seed=7, declared=(), fitness=FITNESS,
        lineage=["stretch p0->p1 x2"], verdict={"completed": True, "safe": True},
        strategy="hill-climb", stretches=[["p0", "p1", 2.0]],
    )


@pytest.fixture(scope="module")
def register_records(tmp_path_factory):
    """The records of one recorded register run."""
    directory = tmp_path_factory.mktemp("recorded")
    api.run_scenario("unidirectional-ring", runs=1, record_traces=str(directory))
    (path,) = directory.iterdir()
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def trace_records(register_records):
    """``register_records`` plus an op whose values need the tagged codec."""
    records = copy.deepcopy(register_records)
    records.insert(-1, {
        "type": "op", "process": "p1", "kind": "propose",
        "argument": {"$frozenset": ["a"]}, "result": {"$dict": [[1, {"$set": [2]}]]},
        "invoked_at": 1.5, "completed_at": None, "op_id": 9,
    })
    assert {record["type"] for record in records} == {
        "meta", "system", "failure", "delay", "op", "verdict"
    }
    return records


# ---------------------------------------------------------------------- #
# The mutation: one node replaced by any JSON value, or deleted
# ---------------------------------------------------------------------- #
DELETE = object()

_KEYS = st.sampled_from(["$tuple", "$set", "$dict", "type", "kind", "op", "params", "base"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=2), children, max_size=2),
    max_leaves=6,
)
REPLACEMENTS = st.just(DELETE) | JSON_VALUES


def _paths(value, prefix=()):
    """The path of every node of ``value``, the root included, in document order."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, prefix + (key,))


def _edited(document, path, replacement):
    """A copy of ``document`` with the node at ``path`` replaced (or deleted)."""
    if not path:
        return "" if replacement is DELETE else replacement
    edited = copy.deepcopy(document)
    parent = edited
    for step in path[:-1]:
        parent = parent[step]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return edited


def _write(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document if isinstance(document, str) else json.dumps(document))


@pytest.fixture(scope="module")
def consensus_records(tmp_path_factory):
    """The records of one recorded consensus run."""
    directory = tmp_path_factory.mktemp("consensus")
    api.run_scenario("churn-at-gst", runs=1, record_traces=str(directory))
    (path,) = directory.iterdir()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["protocol"] == "consensus"
    return records


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(json.dumps(record) for record in records) + "\n")


def _data_or_attributed_error(read, path, line=False):
    """``read(path)`` returns, or fails with a ``ReproError`` naming ``PATH[:LINE]``."""
    try:
        read(path)
    except ReproError as error:
        pattern = re.escape(path) + (r"(:\d+)?: " if line else ": ")
        assert re.match(pattern, str(error)), str(error)


# ---------------------------------------------------------------------- #
# The fuzz battery
# ---------------------------------------------------------------------- #
@FUZZ
@given(data=st.data())
def test_fuzzed_spec_files(tmp_path, data):
    path = data.draw(st.sampled_from(list(_paths(SPEC))))
    target = str(tmp_path / "system.json")
    _write(target, _edited(SPEC, path, data.draw(REPLACEMENTS)))
    _data_or_attributed_error(load_fail_prone_system, target)


@FUZZ
@given(data=st.data())
def test_fuzzed_delta_streams(tmp_path, data):
    path = data.draw(st.sampled_from(list(_paths(DELTAS))[1:]))
    target = str(tmp_path / "deltas.jsonl")
    _write_lines(target, _edited(DELTAS, path, data.draw(REPLACEMENTS)))
    _data_or_attributed_error(load_deltas, target, line=True)


@FUZZ
@given(data=st.data())
def test_fuzzed_schedules(tmp_path, data):
    schedule = _schedule()
    path = data.draw(st.sampled_from(list(_paths(schedule))))
    target = str(tmp_path / "x.schedule.json")
    _write(target, _edited(schedule, path, data.draw(REPLACEMENTS)))
    _data_or_attributed_error(load_schedule, target)


@FUZZ
@given(data=st.data())
def test_fuzzed_traces(tmp_path, trace_records, data):
    # Every record type is as likely as any other, however many ops the run had.
    kind = data.draw(st.sampled_from(sorted({record["type"] for record in trace_records})))
    lines = [i for i, record in enumerate(trace_records) if record["type"] == kind]
    line = data.draw(st.sampled_from(lines))
    path = data.draw(st.sampled_from(list(_paths(trace_records[line], (line,)))[1:]))
    target = str(tmp_path / "x.trace.jsonl")
    _write_lines(target, _edited(trace_records, path, data.draw(REPLACEMENTS)))
    _data_or_attributed_error(load_trace, target, line=True)


@FUZZ
@given(data=st.data())
def test_fuzzed_corpus_incidents(tmp_path, data):
    incident = _incident()
    path = data.draw(st.sampled_from(list(_paths(incident))))
    target = str(tmp_path / "x.incident.json")
    _write(target, _edited(incident, path, data.draw(REPLACEMENTS)))
    _data_or_attributed_error(lambda _: corpus_rows(str(tmp_path)), target)


def test_the_unmutated_documents_load(tmp_path, trace_records):
    _write(tmp_path / "system.json", SPEC)
    assert load_fail_prone_system(str(tmp_path / "system.json")).name == "sparse"
    _write_lines(tmp_path / "deltas.jsonl", DELTAS)
    assert len(load_deltas(str(tmp_path / "deltas.jsonl"))) == 4
    _write(tmp_path / "x.schedule.json", _schedule())
    assert load_schedule(str(tmp_path / "x.schedule.json")).seed == 7
    _write_lines(tmp_path / "x.trace.jsonl", trace_records)
    trace = load_trace(str(tmp_path / "x.trace.jsonl"))
    assert trace.history.records[-1].argument == frozenset({"a"})
    _write(tmp_path / "x.incident.json", _incident())
    assert corpus_rows(str(tmp_path))[0]["score"] == 7


# ---------------------------------------------------------------------- #
# Byte-level cases every reader shares
# ---------------------------------------------------------------------- #
READERS = {
    "spec": load_fail_prone_system,
    "deltas": load_deltas,
    "schedule": load_schedule,
    "trace": load_trace,
    "incident": load_incident,
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(
    "case, complaint",
    [
        ("non-utf8", "invalid JSON: 'utf-8' codec can't decode"),
        ("directory", "Is a directory"),
        ("missing", "No such file or directory"),
        ("deep", "invalid JSON: maximum recursion depth"),
    ],
)
def test_byte_level_cases_are_attributed_errors(tmp_path, reader, case, complaint):
    path = tmp_path / "input.json"
    if case == "non-utf8":
        path.write_bytes(b'{"name": "\xff"}\n')
    elif case == "directory":
        path.mkdir()
    elif case == "deep":
        path.write_text(DEEP_JSON + "\n")
    with pytest.raises(ReproError) as caught:
        READERS[reader](str(path))
    # A JSON-lines reader names the bad line; a file it cannot open has none.
    line = ":1" if reader in ("deltas", "trace") and case in ("non-utf8", "deep") else ""
    assert str(caught.value).startswith("{}{}: ".format(path, line))
    assert complaint in str(caught.value)


# ---------------------------------------------------------------------- #
# One number rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "field, value, complaint",
    [
        ("seed", True, "field 'seed' must be an integer, got True"),
        ("seed", 2.7, "field 'seed' must be an integer, got 2.7"),
        ("seed", "7", "field 'seed' must be an integer, got '7'"),
        ("inject_at", "nan", "field 'inject_at' must be a finite number, got 'nan'"),
        ("inject_at", float("nan"), "field 'inject_at' must be a finite number, got nan"),
        ("inject_at", float("inf"), "field 'inject_at' must be a finite number, got inf"),
    ],
)
def test_number_fields_take_json_numbers_only(tmp_path, field, value, complaint):
    """``true`` read as 1, ``"nan"`` as NaN and 2.7 as 2; a NaN ``inject_at``
    loaded and its replay died naming no file."""
    path = tmp_path / "x.schedule.json"
    _write(path, dict(_schedule(), **{field: value}))
    with pytest.raises(ReproError, match="^" + re.escape(str(path) + ": " + complaint) + "$"):
        load_schedule(str(path))


def test_an_integral_float_is_an_integer(tmp_path):
    path = tmp_path / "x.schedule.json"
    _write(path, dict(_schedule(), seed=7.0))
    seed = load_schedule(str(path)).seed
    assert seed == 7 and isinstance(seed, int)


# ---------------------------------------------------------------------- #
# Inputs that ended in a traceback, through the CLI
# ---------------------------------------------------------------------- #
def _one_error_line(argv, capsys, *fragments):
    _assert_one_error_line(main(argv), capsys.readouterr(), *fragments)


def _trace(tmp_path, records, kind, edit):
    """``records`` written as ``x.trace.jsonl`` with ``edit`` applied to the first ``kind`` line."""
    records = copy.deepcopy(records)
    line = next(i for i, record in enumerate(records) if record["type"] == kind)
    edit(records[line])
    path = tmp_path / "x.trace.jsonl"
    _write_lines(path, records)
    return ["check", str(tmp_path)], "{}:{}: ".format(path, line + 1)


def test_non_utf8_trace_is_one_error_line(tmp_path, capsys):
    (tmp_path / "x.trace.jsonl").write_bytes(b"\xff\xfe\n")
    _one_error_line(["check", str(tmp_path)], capsys, "x.trace.jsonl:1: invalid JSON: 'utf-8'")


def test_non_utf8_delta_stream_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deltas.jsonl"
    path.write_bytes(b'{"op": "join", "process": "\xe9"}\n')
    argv = ["quorums", "watch", "--builtin", "figure1", str(path)]
    _one_error_line(argv, capsys, str(path) + ":1: invalid JSON: 'utf-8'")


@pytest.mark.parametrize("command, name", [
    (["check"], "x.trace.jsonl"), (["nemesis", "corpus"], "x.incident.json"),
])
def test_a_directory_named_like_evidence_is_one_error_line(tmp_path, capsys, command, name):
    (tmp_path / name).mkdir()
    _one_error_line(command + [str(tmp_path)], capsys, name + ": Is a directory")


@pytest.mark.parametrize(
    "kind, edit, complaint",
    [
        ("system", lambda r: r.pop("quorum_system"),
         "a 'system' record is missing 'quorum_system'"),
        ("failure", lambda r: r.pop("pattern"), "a 'failure' record is missing 'pattern'"),
        ("system", lambda r: r["quorum_system"].update(read_quorums=[2]),
         "a quorum in 'read_quorums' must be a list of process ids"),
        ("op", lambda r: r.update(invoked_at="soon"), "field 'invoked_at' must be a finite number"),
        ("op", lambda r: r.update(completed_at=[]), "field 'completed_at' must be a finite number"),
        ("op", lambda r: r.update(op_id="x"), "field 'op_id' must be an integer"),
        ("op", lambda r: r.update(result={"$set": None}), "value tag '$set' needs a list"),
        ("failure", lambda r: r.update(pattern=5), "failure pattern must be a JSON object, got 5"),
    ],
    ids=["no-quorum-system", "no-pattern", "bad-family", "invoked-at", "completed-at", "op-id",
         "set-of-null", "pattern-5"],
)
def test_a_bad_trace_record_is_one_error_line_naming_its_line(
    tmp_path, capsys, trace_records, kind, edit, complaint
):
    argv, where = _trace(tmp_path, trace_records, kind, edit)
    _one_error_line(argv, capsys, "error: " + where + complaint)


@pytest.mark.parametrize("checker", ["auto", "wing-gong"])
@pytest.mark.parametrize("value", [{"$set": [1]}, {"$list": [1]}, {"$dict": [[1, 2]]}],
                         ids=["set", "list", "dict"])
def test_an_unhashable_register_value_is_one_error_line_naming_its_line(
    tmp_path, capsys, trace_records, checker, value
):
    """A ``TypeError: unhashable type`` inside the checkers before."""
    records = copy.deepcopy(trace_records)
    line = next(i for i, record in enumerate(records) if record.get("kind") == "write")
    records[line]["argument"] = value
    path = tmp_path / "x.trace.jsonl"
    _write_lines(path, records)
    complaint = "a 'write' operation's argument and result must be scalars, tuples or frozensets"
    _one_error_line(["check", str(tmp_path), "--checker", checker], capsys,
                    "error: {}:{}: {}".format(path, line + 1, complaint))


@pytest.mark.parametrize("value", [{"$set": [1]}, {"$list": [1]}, {"$dict": [[1, 2]]}],
                         ids=["set", "list", "dict"])
@pytest.mark.parametrize("field", ["argument", "result"])
def test_an_unhashable_consensus_value_is_one_error_line_naming_its_line(
    tmp_path, capsys, consensus_records, field, value
):
    """``error: PATH: checker 'auto': unhashable type: 'list'`` before, with no line:
    lattice agreement writes ``propose`` too, so only the meta record tells."""
    records = copy.deepcopy(consensus_records)
    line = next(i for i, record in enumerate(records) if record.get("kind") == "propose")
    records[line][field] = value
    path = tmp_path / "x.trace.jsonl"
    _write_lines(path, records)
    complaint = "a 'propose' operation's argument and result must be scalars, tuples or frozensets"
    _one_error_line(["check", str(tmp_path)], capsys,
                    "error: {}:{}: {}".format(path, line + 1, complaint))


@pytest.mark.parametrize("protocol", ["register", "consensus"])
def test_an_op_naming_no_process_is_one_error_line_naming_its_line(
    tmp_path, capsys, register_records, consensus_records, protocol
):
    """A consensus trace ended in ``error: PATH: checker 'auto': unhashable type:
    'list'`` before, with no line; a register trace re-checked as safe."""
    records = consensus_records if protocol == "consensus" else register_records
    argv, where = _trace(tmp_path, records, "op", lambda r: r.update(process={"$list": [1]}))
    _one_error_line(argv, capsys, "error: " + where + "field 'process' must name a process")


def test_a_trace_missing_the_system_its_checker_needs_is_one_error_line(
    tmp_path, capsys, trace_records
):
    records = [record for record in copy.deepcopy(trace_records) if record["type"] != "system"]
    records[0]["protocol"] = "snapshot"
    path = tmp_path / "x.trace.jsonl"
    _write_lines(path, records)
    _one_error_line(["check", str(tmp_path)], capsys,
                    "error: {}: snapshot trace carries no quorum system".format(path))


def test_a_hunt_seed_trace_with_a_bad_scenario_is_one_error_line_naming_it(
    tmp_path, capsys, trace_records
):
    """The error named no file before."""
    _trace(tmp_path, trace_records, "meta", lambda record: record["scenario"].update(workload=5))
    argv = ["nemesis", "hunt", "unidirectional-ring", "--from-traces", str(tmp_path),
            "--budget", "1"]
    _one_error_line(argv, capsys, "error: {}: workload spec must be a JSON object, got 5".format(
        tmp_path / "x.trace.jsonl"))


@pytest.mark.parametrize(
    "part, edit, complaint",
    [
        ("topology", {"params": [1]}, "topology spec 'params' must be a JSON object"),
        ("delay", {"params": [1]}, "delay spec 'params' must be a JSON object"),
        ("protocol", {"params": [1]}, "protocol spec 'params' must be a JSON object"),
        ("delay", {"kind": "schedule-override", "params": {"stretches": [5]}},
         "stretches must be a list of [sender, receiver, number] rows, got [5]"),
        # A bare ``ValueError`` from the topology builder before.
        ("topology", {"kind": "adversarial-partition", "params": {"n": -1}},
         "topology 'adversarial-partition': need at least 2 processes"),
    ],
    ids=["topology-params", "delay-params", "protocol-params", "override-stretches",
         "topology-n-negative"],
)
def test_a_bad_schedule_base_is_one_error_line(tmp_path, capsys, part, edit, complaint):
    schedule = _schedule()
    schedule["base"][part] = dict(schedule["base"][part], **edit)
    path = tmp_path / "x.schedule.json"
    _write(path, schedule)
    argv = ["nemesis", "replay", str(path)]
    _one_error_line(argv, capsys, "error: {}: {}".format(path, complaint))


@pytest.mark.parametrize(
    "incident, complaint",
    [
        (dict(_incident(), verdict=5), "field 'verdict' must be a JSON object, got 5"),
        ({"schema": 1}, "an incident report is missing 'candidate'"),
        (dict(_incident(), fitness={}), "field 'fitness' is missing 'score'"),
    ],
    ids=["verdict-5", "schema-only", "no-score"],
)
def test_a_corpus_incident_missing_a_read_field_is_one_error_line(
    tmp_path, capsys, incident, complaint
):
    """``"verdict": 5`` was an ``AttributeError``; ``{"schema": 1}`` printed a
    row of ``None`` and exit 0."""
    path = tmp_path / "x.incident.json"
    _write(path, incident)
    argv = ["nemesis", "corpus", str(tmp_path)]
    _one_error_line(argv, capsys, "error: {}: {}".format(path, complaint))


def test_a_nan_injection_time_is_refused_where_the_file_is_named(tmp_path, capsys):
    path = tmp_path / "x.schedule.json"
    path.write_text(json.dumps(_schedule()).replace('"inject_at": 2.0', '"inject_at": NaN'))
    _one_error_line(
        ["nemesis", "replay", str(path)], capsys,
        "error: {}: field 'inject_at' must be a finite number, got nan".format(path),
    )
