"""Tests for the JSON (de)serialization helpers."""

import json

import pytest

from repro.errors import ReproError
from repro.serialization import (
    fail_prone_system_from_dict,
    fail_prone_system_to_dict,
    failure_pattern_from_dict,
    failure_pattern_to_dict,
    load_fail_prone_system,
    quorum_system_from_dict,
    quorum_system_to_dict,
)
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import discover_gqs, gqs_exists


def test_failure_pattern_round_trip():
    pattern = FailurePattern(["d"], [("a", "c"), ("b", "c")], name="f1")
    data = failure_pattern_to_dict(pattern)
    assert data["crash"] == ["d"]
    assert ["a", "c"] in data["disconnect"]
    restored = failure_pattern_from_dict(data)
    assert restored == pattern
    assert restored.name == "f1"


def test_failure_pattern_from_bad_payload():
    with pytest.raises(ReproError):
        failure_pattern_from_dict(["not", "a", "dict"])


def test_fail_prone_system_round_trip(figure1_system):
    data = fail_prone_system_to_dict(figure1_system)
    restored = fail_prone_system_from_dict(data)
    assert restored.processes == figure1_system.processes
    assert restored.patterns == figure1_system.patterns
    assert gqs_exists(restored)


def test_fail_prone_system_requires_processes():
    with pytest.raises(ReproError):
        fail_prone_system_from_dict({"patterns": []})
    with pytest.raises(ReproError):
        fail_prone_system_from_dict("not a dict")


def test_fail_prone_system_defaults_to_failure_free_pattern():
    system = fail_prone_system_from_dict({"processes": ["a", "b"]})
    assert len(system) == 1
    assert not system.patterns[0].crash_prone


def test_quorum_system_round_trip(figure1_gqs):
    data = quorum_system_to_dict(figure1_gqs)
    restored = quorum_system_from_dict(data)
    assert restored.is_valid()
    assert set(restored.read_quorums) == set(figure1_gqs.read_quorums)
    assert set(restored.write_quorums) == set(figure1_gqs.write_quorums)


def test_quorum_system_from_dict_missing_keys():
    with pytest.raises(ReproError):
        quorum_system_from_dict({"read_quorums": []})
    with pytest.raises(ReproError):
        quorum_system_from_dict([1, 2, 3])


def test_json_file_round_trip(tmp_path, figure1_system, figure1_gqs):
    system_path = str(tmp_path / "system.json")
    quorums_path = str(tmp_path / "quorums.json")
    with open(system_path, "w") as handle:
        json.dump(fail_prone_system_to_dict(figure1_system), handle)
    with open(quorums_path, "w") as handle:
        json.dump(quorum_system_to_dict(figure1_gqs), handle)

    restored_system = load_fail_prone_system(system_path)
    with open(quorums_path) as handle:
        restored_quorums = quorum_system_from_dict(json.load(handle))
    assert restored_system.patterns == figure1_system.patterns
    assert restored_quorums.is_valid()


@pytest.mark.parametrize(
    "data",
    [
        {"processes": 5},
        {"processes": "abc"},
        {"processes": [["a"], "b"]},
        {"processes": ["a", "b"], "patterns": 3},
        {"processes": ["a", "b"], "patterns": [{"crash": 7}]},
        {"processes": ["a", "b"], "patterns": [{"crash": [["a"]]}]},
        {"processes": ["a", "b"], "patterns": [{"disconnect": "ab"}]},
        {"processes": ["a", "b"], "patterns": [{"disconnect": [["a"]]}]},
        {"processes": ["a", "b"], "patterns": [{"disconnect": [["a", "b", "a"]]}]},
        {"processes": ["a", "b"], "patterns": [{"disconnect": [[["a"], "b"]]}]},
        {"processes": ["a", "b"], "channels": "ab"},
        {"processes": ["a", "b"], "channels": [["a"]]},
        {"processes": ["a", "b"], "channels": [[["a"], "b"]]},
    ],
)
def test_wrong_shaped_descriptions_raise_repro_error(data):
    """They used to leak TypeError (not iterable, unhashable) or ValueError (unpack)."""
    with pytest.raises(ReproError, match="must be a"):
        fail_prone_system_from_dict(data)


def test_unreadable_or_malformed_files_raise_repro_error_naming_the_path(tmp_path):
    missing = str(tmp_path / "missing.json")
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ReproError, match="missing.json: No such file"):
        load_fail_prone_system(missing)
    with pytest.raises(ReproError, match="Is a directory"):
        load_fail_prone_system(str(tmp_path))
    with pytest.raises(ReproError, match="garbage.json: invalid JSON"):
        load_fail_prone_system(str(garbage))
    with pytest.raises(ReproError, match="binary.json: invalid JSON"):
        load_fail_prone_system(str(binary))


def _crash_one_system(edges):
    """``p0..p2``, one crash-only pattern per process, on the network ``edges``."""
    processes = ["p0", "p1", "p2"]
    patterns = [FailurePattern.crash_only([p], name="crash-" + p) for p in ("p2", "p1", "p0")]
    return FailProneSystem(processes, patterns, channels=edges)


def _through_json(data):
    return json.loads(json.dumps(data))


def test_sparse_network_graph_survives_the_round_trip():
    """Three processes without a channel between them admit no GQS; loaded back
    on the complete graph (the channels unwritten) they would admit one."""
    system = _crash_one_system([])
    data = _through_json(fail_prone_system_to_dict(system))
    assert data["channels"] == []
    restored = fail_prone_system_from_dict(data)
    assert restored.bitset_graph == system.bitset_graph
    assert not discover_gqs(system).exists
    assert not discover_gqs(restored).exists


def test_quorum_system_on_a_sparse_network_round_trips():
    """A recorded trace stores its quorum system, and with it the network graph."""
    processes = ["p0", "p1", "p2"]
    ring = [("p0", "p1"), ("p1", "p2"), ("p2", "p0")]
    gqs = discover_gqs(FailProneSystem(processes, [FailurePattern()], channels=ring)).quorum_system
    data = _through_json(quorum_system_to_dict(gqs))
    assert data["fail_prone"]["channels"] == [["p0", "p1"], ["p1", "p2"], ["p2", "p0"]]
    restored = quorum_system_from_dict(data)
    assert restored.fail_prone.bitset_graph == gqs.fail_prone.bitset_graph
    complete = [(p, q) for p in processes for q in processes if p != q]
    assert "channels" not in fail_prone_system_to_dict(_crash_one_system(complete))
