"""Tests for the SWMR atomic snapshot object."""

import functools

import pytest

from repro.checkers import check_snapshot_linearizability
from repro.experiments import run_workload
from repro.protocols.snapshot import Segment, SnapshotProcess, initial_vector, merge_vectors
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes

from oracles.linearizability import scans_totally_ordered


def make_cluster(quorum_system, seed=0):
    return Cluster(
        sorted_processes(quorum_system.processes),
        functools.partial(SnapshotProcess, quorum_system=quorum_system),
        UniformDelay(seed=seed),
    )


# --------------------------------------------------------------------------- #
# Pure helpers
# --------------------------------------------------------------------------- #
def test_initial_vector_shape():
    vector = initial_vector(["a", "b"])
    assert set(vector) == {"a", "b"}
    assert all(segment.seq == 0 and segment.value is None for segment in vector.values())


def test_merge_vectors_keeps_highest_seq():
    first = {"a": Segment("old", 1), "b": Segment("x", 2)}
    second = {"a": Segment("new", 2), "b": Segment("y", 1)}
    merged = merge_vectors(first, second)
    assert merged["a"].value == "new"
    assert merged["b"].value == "x"


def test_merge_vectors_handles_missing_segments():
    first = {"a": Segment("va", 1)}
    second = {"b": Segment("vb", 1)}
    merged = merge_vectors(first, second)
    assert set(merged) == {"a", "b"}


def test_segment_view_dict():
    segment = Segment("v", 1, (("a", "x"), ("b", "y")))
    assert segment.view_dict() == {"a": "x", "b": "y"}


# --------------------------------------------------------------------------- #
# Protocol behaviour
# --------------------------------------------------------------------------- #
def test_scan_before_writes_returns_initial_values(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    scan = cluster.invoke("a", "scan")
    cluster.run_until_done([scan], max_time=400.0, require_completion=True)
    assert set(scan.result) == set(figure1_gqs.processes)
    assert all(value is None for value in scan.result.values())


def test_write_then_scan_sees_own_segment(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    write = cluster.invoke("a", "write", "va")
    cluster.run_until_done([write], max_time=400.0, require_completion=True)
    scan = cluster.invoke("b", "scan")
    cluster.run_until_done([scan], max_time=400.0, require_completion=True)
    assert scan.result["a"] == "va"
    assert scan.result["b"] is None


def test_each_writer_owns_its_segment(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    handles = [
        cluster.invoke("a", "write", "from-a"),
        cluster.invoke("b", "write", "from-b"),
    ]
    cluster.run_until_done(handles, max_time=500.0, require_completion=True)
    scan = cluster.invoke("c", "scan")
    cluster.run_until_done([scan], max_time=500.0, require_completion=True)
    assert scan.result["a"] == "from-a"
    assert scan.result["b"] == "from-b"


def test_sequential_writes_overwrite_own_segment(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    for value in ("first", "second"):
        handle = cluster.invoke("a", "write", value)
        cluster.run_until_done([handle], max_time=400.0, require_completion=True)
    scan = cluster.invoke("a", "scan")
    cluster.run_until_done([scan], max_time=400.0, require_completion=True)
    assert scan.result["a"] == "second"


def test_snapshot_workload_failure_free_linearizable(figure1_gqs):
    result = run_workload("snapshot", figure1_gqs, pattern=None, ops_per_process=1, seed=2)
    assert result.completed
    outcome = check_snapshot_linearizability(
        result.history,
        segment_ids=sorted_processes(figure1_gqs.processes),
        initial_value=None,
    )
    assert bool(outcome)
    assert scans_totally_ordered(result.history)


def test_snapshot_workload_under_f1(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    result = run_workload("snapshot", figure1_gqs, pattern=f1, ops_per_process=1, seed=3)
    assert result.completed
    outcome = check_snapshot_linearizability(
        result.history,
        segment_ids=sorted_processes(figure1_gqs.processes),
        initial_value=None,
    )
    assert bool(outcome)


def test_snapshot_workload_under_remaining_patterns(figure1_gqs):
    for index, pattern in enumerate(figure1_gqs.fail_prone.patterns[1:], start=1):
        result = run_workload(
            "snapshot", figure1_gqs, pattern=pattern, ops_per_process=1, seed=10 + index
        )
        assert result.completed, pattern.name
