"""Tests for the classical Paxos baseline and its comparison with the GQS consensus."""

import functools

import pytest

from repro.experiments import run_workload
from repro.protocols import PaxosBaselineProcess, majority_quorums
from repro.sim import Cluster, PartialSynchronyDelay, UniformDelay


def test_majority_quorums_shape():
    quorums = majority_quorums(["a", "b", "c", "d"])
    assert all(len(q) == 3 for q in quorums)
    assert len(quorums) == 4
    for first in quorums:
        for second in quorums:
            assert first & second


def make_cluster(pids, seed=0, retry_timeout=10.0):
    return Cluster(
        list(pids),
        functools.partial(PaxosBaselineProcess, process_ids=list(pids), retry_timeout=retry_timeout),
        PartialSynchronyDelay(gst=5.0, delta=1.0, seed=seed),
    )


def test_paxos_decides_failure_free():
    cluster = make_cluster(["a", "b", "c"])
    handle = cluster.invoke("a", "propose", "v1")
    assert cluster.run_until_done([handle], max_time=500.0)
    assert handle.result == "v1"


def test_paxos_agreement_with_two_proposers():
    cluster = make_cluster(["a", "b", "c"], seed=3)
    first = cluster.invoke("a", "propose", "from-a")
    second = cluster.invoke("b", "propose", "from-b")
    assert cluster.run_until_done([first, second], max_time=2_000.0)
    assert first.result == second.result


def test_paxos_survives_one_crash():
    from repro.failures import FailurePattern

    cluster = make_cluster(["a", "b", "c"], seed=4)
    cluster.network.apply_failure_pattern(FailurePattern.crash_only(["c"]))
    handle = cluster.invoke("a", "propose", "v")
    assert cluster.run_until_done([handle], max_time=1_000.0)


def test_paxos_fails_under_figure1_pattern_but_gqs_consensus_decides(figure1_gqs):
    """The headline comparison of E5: who wins under the paper's failure pattern."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    paxos = run_workload("paxos", figure1_gqs, pattern=f1, max_time=800.0, seed=5)
    gqs = run_workload(
        "consensus",
        figure1_gqs,
        pattern=f1,
        delay_model=PartialSynchronyDelay(gst=20.0, delta=1.0, seed=5),
        max_time=4_000.0,
        seed=5,
    )
    assert not paxos.completed
    assert gqs.completed


def test_paxos_learns_decision_from_decided_message():
    cluster = make_cluster(["a", "b", "c"], seed=6)
    handle = cluster.invoke("a", "propose", "val")
    cluster.run_until_done([handle], max_time=1_000.0, require_completion=True)
    cluster.run(max_time=cluster.network.now + 50.0)
    # All correct acceptors eventually learn the decision.
    learned = [p.has_decided for p in cluster.processes.values()]
    assert all(learned)


def test_paxos_retries_are_counted_when_quorum_unreachable(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    result = run_workload(
        "paxos",
        figure1_gqs,
        pattern=f1,
        protocol_params={"retry_timeout": 10.0},
        max_time=400.0,
        seed=7,
    )
    proposers = result.extra["invokers"]
    cluster = result.cluster
    assert any(cluster.processes[p].retries > 0 for p in proposers)
