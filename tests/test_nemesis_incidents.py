"""Incident accountability: budget cross-checks and the pinned report schema.

The paper's bounds are only falsified by a schedule that stayed *within* the
declared fail-prone budget; an adversary that crashed undeclared processes or
cut undeclared channels proves nothing, however unsafe its history.  These
tests pin that accounting — out-of-budget schedules are flagged
``outside-budget`` and never ``paper_bound_violation`` — plus the exact
schema-1 incident layout (key set and golden JSON bytes), so any layout
change must consciously bump :data:`INCIDENT_SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import egress
from repro.errors import ReproError
from repro.failures import FailurePattern
from repro.traces import (
    INCIDENT_KEYS,
    budget_check,
    build_incident,
    incident_file_name,
    list_incident_files,
    load_incident,
)

#: A declared fail-prone budget: one crash pattern, one disconnect pattern.
DECLARED = (
    FailurePattern(crash_prone=("p0",), name="crash-p0"),
    FailurePattern(disconnect_prone=((("p1"), ("p2")),), name="cut-p1p2"),
)


# ---------------------------------------------------------------------- #
# budget_check: the subsumption cross-check
# ---------------------------------------------------------------------- #
def test_failure_free_schedule_is_trivially_within_budget():
    assert budget_check(DECLARED, None) == (True, None)


def test_declared_pattern_vouches_for_itself():
    assert budget_check(DECLARED, DECLARED[0]) == (True, "crash-p0")
    assert budget_check(DECLARED, DECLARED[1]) == (True, "cut-p1p2")


def test_subsumed_pattern_names_its_first_witness():
    weaker = FailurePattern(name="nothing")  # subsumed by every declared pattern
    assert budget_check(DECLARED, weaker) == (True, "crash-p0")


def test_out_of_budget_pattern_has_no_witness():
    rogue = FailurePattern(crash_prone=("p3",), name="crash-p3")
    assert budget_check(DECLARED, rogue) == (False, None)
    overreach = FailurePattern(
        crash_prone=("p0",), disconnect_prone=((("p1"), ("p2")),), name="both"
    )
    # Crashing p0 AND cutting p1-p2 exceeds each declared pattern individually.
    assert budget_check(DECLARED, overreach) == (False, None)


def test_unnamed_witness_gets_a_positional_label():
    anonymous = (FailurePattern(crash_prone=("p0",)),)
    within, witness = budget_check(anonymous, FailurePattern(crash_prone=("p0",)))
    assert within and witness == "pattern-0"


# ---------------------------------------------------------------------- #
# Flags: the accountability verdicts
# ---------------------------------------------------------------------- #
#: The score a hunt would give the incidents below (the flags do not read it).
FITNESS = {"score": 3, "explored_states": 3, "stalled": False, "violation": False}


def _incident(pattern, verdict, **kwargs):
    return build_incident(
        scenario="s",
        candidate=1,
        seed=0,
        declared=DECLARED,
        pattern=pattern,
        verdict=verdict,
        fitness=FITNESS,
        **kwargs,
    )


def test_out_of_budget_unsafe_run_is_never_a_paper_bound_violation():
    rogue = FailurePattern(crash_prone=("p3",), name="crash-p3")
    incident = _incident(rogue, {"completed": True, "safe": False})
    assert incident["flags"] == ["outside-budget"]
    assert incident["paper_bound_violation"] is False
    assert incident["within_budget"] == {"ok": False, "witness": None}


def test_within_budget_unsafe_run_is_flagged_violation():
    incident = _incident(DECLARED[0], {"completed": True, "safe": False})
    assert incident["flags"] == ["violation"]
    assert incident["paper_bound_violation"] is True
    assert incident["within_budget"] == {"ok": True, "witness": "crash-p0"}


def test_stalled_run_is_flagged_stall():
    incident = _incident(DECLARED[1], {"completed": False, "safe": True})
    assert incident["flags"] == ["stall"]
    assert incident["paper_bound_violation"] is False


def test_out_of_budget_stalled_unsafe_run_collects_both_non_violation_flags():
    rogue = FailurePattern(crash_prone=("p3",), name="crash-p3")
    incident = _incident(rogue, {"completed": False, "safe": False})
    assert incident["flags"] == ["outside-budget", "stall"]
    assert incident["paper_bound_violation"] is False


def test_clean_within_budget_run_has_no_flags():
    incident = _incident(DECLARED[0], {"completed": True, "safe": True})
    assert incident["flags"] == []


# ---------------------------------------------------------------------- #
# Schema: the pinned layout
# ---------------------------------------------------------------------- #
def test_incident_key_set_is_pinned():
    incident = _incident(DECLARED[0], {"completed": True, "safe": True})
    assert sorted(incident.keys()) == sorted(INCIDENT_KEYS)
    bare = build_incident(scenario="s", candidate=0, seed=0, declared=(), fitness=FITNESS)
    assert sorted(bare.keys()) == sorted(INCIDENT_KEYS)


def test_golden_incident_json_bytes():
    """The canonical serialization of one fully-populated incident, verbatim.

    This is the regression pin for schema 1: any change to these bytes is a
    layout change and must bump ``INCIDENT_SCHEMA_VERSION``.
    """
    incident = build_incident(
        scenario="unidirectional-ring",
        candidate=7,
        seed=3,
        declared=DECLARED,
        pattern=DECLARED[0],
        inject_at=4.0,
        stretches=[["p1", "p2", 2.0]],
        nudges=[["p2", "p1", 3, 1.5]],
        lineage=["stretch p1->p2 x2", "nudge p2->p1#3 +1.5"],
        verdict={"completed": True, "safe": False, "explored_states": 12},
        strategy="hill-climb",
        fitness={"score": 1000000012, "explored_states": 12, "stalled": False, "violation": True},
    )
    golden = {
        "schema": 1,
        "scenario": "unidirectional-ring",
        "strategy": "hill-climb",
        "candidate": 7,
        "seed": 3,
        "lineage": ["stretch p1->p2 x2", "nudge p2->p1#3 +1.5"],
        "pattern": "crash-p0",
        "inject_at": 4.0,
        "crashed_processes": ["p0"],
        "disconnected_channels": [],
        "stretched_channels": [["p1", "p2", 2.0]],
        "nudged_deliveries": [["p2", "p1", 3, 1.5]],
        "within_budget": {"ok": True, "witness": "crash-p0"},
        "flags": ["violation"],
        "paper_bound_violation": True,
        "verdict": {"completed": True, "safe": False, "explored_states": 12},
        "fitness": {
            "score": 1000000012,
            "explored_states": 12,
            "stalled": False,
            "violation": True,
        },
    }
    assert incident == golden
    assert json.dumps(incident, sort_keys=True, indent=2) == json.dumps(
        golden, sort_keys=True, indent=2
    )


# ---------------------------------------------------------------------- #
# Persistence
# ---------------------------------------------------------------------- #
def test_write_load_round_trip_and_sorted_listing(tmp_path):
    directory = str(tmp_path)
    written = []
    for run in (2, 0, 1):  # write out of order; listing must sort
        incident = _incident(DECLARED[0], {"completed": True, "safe": True})
        incident["candidate"] = run
        name = incident_file_name("ring", 3, run)
        egress.write_json(os.path.join(directory, name), incident)
        written.append(name)
    paths = list_incident_files(directory)
    assert [p.rsplit("/", 1)[-1] for p in paths] == sorted(written)
    for path, run in zip(paths, (0, 1, 2)):
        assert load_incident(path)["candidate"] == run


def test_incident_file_name_mirrors_trace_stems():
    assert incident_file_name("ring", 3, 7) == "ring-seed3-run0007.incident.json"


def test_loader_rejects_foreign_schema_and_garbage(tmp_path):
    newer = tmp_path / "future.incident.json"
    newer.write_text('{"schema": 999}')
    with pytest.raises(ReproError, match="unsupported incident schema"):
        load_incident(str(newer))
    garbage = tmp_path / "garbage.incident.json"
    garbage.write_text("not json at all")
    with pytest.raises(ReproError, match="garbage.incident.json: invalid JSON"):
        load_incident(str(garbage))
    array = tmp_path / "array.incident.json"
    array.write_text("[1, 2]")
    with pytest.raises(ReproError, match="must be a JSON object"):
        load_incident(str(array))


def test_listing_a_missing_directory_is_an_error(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        list_incident_files(str(tmp_path / "nope"))
