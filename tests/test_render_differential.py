"""Byte differential: reports rendered in bit order against the sort-based renderers.

The library prints a quorum, a crash set or a channel list by reading it off
the process index in bit order; :mod:`oracles.render` decodes the same objects
into sets and sorts them by ``repr``, the way every report used to.  One
instance of every built-in topology form (the zoned islands of
``large-threshold-60x3x4`` and ``multiregion-10x5`` included) and one spec
file mixing integer and string ids, over a sparse network, must come out
byte-identical both ways.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import api
from repro.serialization import (
    fail_prone_system_to_dict,
    load_fail_prone_system,
    quorum_system_to_dict,
)

from oracles import render

BUILTINS = (
    "figure1",
    "figure1-modified",
    "ring-5",
    "geo-3x3",
    "minority-5",
    "adversarial-6",
    "large-threshold-24x2",
    "large-threshold-168x8",
    "large-threshold-60x3x4",
    "multiregion-10x5",
)

#: Integers sort before strings (``'int' < 'str'``) and among themselves by
#: ``repr`` (``1, 10, 2``); ``c`` sends but hears from nobody, so it reads
#: without being in a write quorum; the third pattern is unnamed.
MIXED_SPEC = {
    "name": "mixed-ids",
    "processes": [10, 2, 1, "b", "a", "c"],
    "channels": [
        [10, 2], [2, 10], [10, 1], [1, 10], [2, 1], [1, 2], [10, "a"], ["a", 10],
        [10, "b"], ["b", 10], [2, "a"], ["a", 2], [2, "b"], ["b", 2], [1, "b"], ["b", 1],
        ["a", "b"], ["b", "a"], ["c", "a"], ["c", "b"], ["c", 2], [1, "a"],
    ],
    "patterns": [
        {"name": "f1", "crash": [10], "disconnect": [["a", 2], [2, "a"]]},
        {"name": "f2", "crash": ["c"], "disconnect": [[1, 2]]},
        {"crash": [], "disconnect": [["b", 1], [1, "b"]]},
    ],
}

CHURN_DELTAS = os.path.join(os.path.dirname(__file__), "golden", "cli", "churn-deltas.jsonl")


@pytest.fixture(params=BUILTINS + ("mixed-spec",))
def system(request, tmp_path):
    if request.param != "mixed-spec":
        return api.resolve_system(builtin=request.param)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_SPEC), encoding="utf-8")
    return load_fail_prone_system(str(path))


def test_discovery_and_serialization_bytes_match_the_sorted_reference(system):
    report = api.discovery_report(system)
    assert report.to_json() == render.discovery_json(report)
    assert report.to_text() == render.discovery_text(report)
    assert json.dumps(fail_prone_system_to_dict(system)) == json.dumps(
        render.fail_prone_system_to_dict(system)
    )
    gqs = report.result.quorum_system
    if gqs is not None:
        assert gqs.describe() == render.quorum_system_describe(gqs)
        assert json.dumps(quorum_system_to_dict(gqs)) == json.dumps(
            render.quorum_system_to_dict(gqs)
        )


def test_mixed_spec_orders_integers_by_repr_before_strings(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_SPEC), encoding="utf-8")
    report = api.discovery_report(load_fail_prone_system(str(path)))
    assert report.to_dict()["system"]["processes"] == [1, 10, 2, "a", "b", "c"]
    assert report.rows[0]["read_quorum"] == [1, 2, "a", "b", "c"]
    assert report.rows[0]["write_quorum"] == [1, 2, "a", "b"]


@pytest.mark.parametrize(
    "builtin, deltas",
    [
        ("large-threshold-24x2", CHURN_DELTAS),
        ("multiregion-4x3", [{"op": "join", "process": "a0"}, {"op": "leave", "process": "g3m2"}]),
    ],
)
def test_watch_text_matches_the_sorted_reference(builtin, deltas, tmp_path):
    if not isinstance(deltas, str):
        path = tmp_path / "deltas.jsonl"
        path.write_text("".join(json.dumps(delta) + "\n" for delta in deltas), encoding="utf-8")
        deltas = str(path)
    report = api.watch_quorums(api.resolve_system(builtin=builtin), deltas)
    assert report.to_text() == render.watch_text(report)
