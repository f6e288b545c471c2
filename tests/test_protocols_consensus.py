"""Tests for the partially synchronous consensus protocol (Figure 6)."""

import functools

import pytest

from repro.checkers import check_consensus
from repro.experiments import run_workload
from repro.protocols import ConsensusProcess
from repro.quorums import GeneralizedQuorumSystem
from repro.sim import Cluster, PartialSynchronyDelay
from repro.types import sorted_processes


def make_cluster(quorum_system, gst=20.0, delta=1.0, view_duration=5.0, seed=0):
    return Cluster(
        sorted_processes(quorum_system.processes),
        functools.partial(ConsensusProcess, quorum_system=quorum_system, view_duration=view_duration),
        PartialSynchronyDelay(gst=gst, delta=delta, seed=seed),
    )


def test_leader_rotates_round_robin(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    process: ConsensusProcess = cluster.processes["a"]
    ordered = sorted_processes(figure1_gqs.processes)
    n = len(ordered)
    leaders = [process.leader(view) for view in range(1, n + 1)]
    assert leaders == ordered
    assert process.leader(n + 1) == ordered[0]


def test_single_proposer_decides_failure_free(figure1_gqs):
    cluster = make_cluster(figure1_gqs, seed=1)
    handle = cluster.invoke("a", "propose", "v-a")
    assert cluster.run_until_done([handle], max_time=2_000.0)
    assert handle.result == "v-a"


def test_all_proposers_agree_failure_free(figure1_gqs):
    result = run_workload(
        "consensus",
        figure1_gqs,
        pattern=None,
        delay_model=PartialSynchronyDelay(gst=10.0, delta=1.0, seed=2),
        seed=2,
    )
    assert result.completed
    check = check_consensus(result.history, required_to_terminate=figure1_gqs.processes)
    assert check.ok, check.violations
    assert len(set(result.extra["decided_values"])) == 1


def test_consensus_under_every_figure1_pattern(figure1_gqs):
    for index, pattern in enumerate(figure1_gqs.fail_prone.patterns):
        result = run_workload(
            "consensus",
            figure1_gqs,
            pattern=pattern,
            delay_model=PartialSynchronyDelay(gst=20.0, delta=1.0, seed=10 + index),
            seed=10 + index,
            max_time=4_000.0,
        )
        component = figure1_gqs.termination_component(pattern)
        check = check_consensus(result.history, required_to_terminate=component)
        assert result.completed, "propose at {} must decide under {}".format(
            sorted(component, key=str), pattern.name
        )
        assert check.ok, check.violations


def test_decision_is_a_proposed_value(figure1_gqs):
    f2 = figure1_gqs.fail_prone.patterns[1]
    result = run_workload(
        "consensus",
        figure1_gqs,
        pattern=f2,
        delay_model=PartialSynchronyDelay(gst=15.0, delta=1.0, seed=3),
        seed=3,
    )
    proposals = {record.argument for record in result.history}
    for record in result.history.complete_records():
        assert record.result in proposals


def test_late_gst_delays_but_does_not_prevent_decision(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    early = run_workload(
        "consensus",
        figure1_gqs,
        pattern=f1,
        delay_model=PartialSynchronyDelay(gst=10.0, delta=1.0, seed=4),
        seed=4,
        max_time=5_000.0,
    )
    late = run_workload(
        "consensus",
        figure1_gqs,
        pattern=f1,
        delay_model=PartialSynchronyDelay(gst=150.0, delta=1.0, seed=4),
        seed=4,
        max_time=5_000.0,
    )
    assert early.completed and late.completed
    assert late.metrics.max_latency >= early.metrics.max_latency


def test_view_duration_grows_linearly(figure1_gqs):
    cluster = make_cluster(figure1_gqs, view_duration=3.0)
    cluster.run(max_time=3.0 + 0.5)
    process: ConsensusProcess = cluster.processes["a"]
    # After the first timer (1 * C) expired the process is in view 2.
    assert process.view == 2


def test_decided_flag_and_view_recorded(figure1_gqs):
    cluster = make_cluster(figure1_gqs, gst=5.0, seed=6)
    handle = cluster.invoke("b", "propose", "from-b")
    cluster.run_until_done([handle], max_time=2_000.0, require_completion=True)
    process: ConsensusProcess = cluster.processes["b"]
    assert process.has_decided
    assert process.decided_view >= 1
    assert process.decided_value == handle.result


def test_proposal_preserved_across_views(figure1_gqs):
    """A value accepted in an earlier view is the only one that can be decided later."""
    cluster = make_cluster(figure1_gqs, gst=40.0, seed=7, view_duration=4.0)
    first = cluster.invoke("a", "propose", "first-value")
    cluster.run(max_time=60.0)
    second = cluster.invoke("b", "propose", "second-value")
    cluster.run_until_done([first, second], max_time=4_000.0)
    decided = {h.result for h in (first, second) if h.done}
    assert len(decided) == 1
