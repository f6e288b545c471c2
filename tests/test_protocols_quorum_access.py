"""Tests for the quorum access functions (Figures 2 and 3)."""

import pytest

from repro.protocols import (
    ClassicalQuorumAccessProcess,
    GeneralizedQuorumAccessProcess,
)
from repro.quorums import GeneralizedQuorumSystem, threshold_quorum_system
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes


def classical_factory(quorum_system, initial=0):
    def factory(pid, network):
        return ClassicalQuorumAccessProcess(pid, network, quorum_system, initial)

    return factory


def gqs_factory(quorum_system, initial=0, push_interval=1.0):
    def factory(pid, network):
        return GeneralizedQuorumAccessProcess(
            pid, network, quorum_system, initial, push_interval=push_interval
        )

    return factory


def add(amount):
    return lambda state: state + amount


# --------------------------------------------------------------------------- #
# Classical access functions (Figure 2)
# --------------------------------------------------------------------------- #
def test_classical_get_returns_read_quorum_states(threshold_3_1):
    cluster = Cluster(["a", "b", "c"], classical_factory(threshold_3_1), UniformDelay(seed=1))
    handle = cluster.invoke("a", "quorum_get")
    cluster.run_until_done([handle], max_time=100.0, require_completion=True)
    states = handle.result
    assert set(states.values()) == {0}
    # Read quorums have size n - k = 2.
    assert len(states) == 2


def test_classical_set_then_get_sees_update(threshold_3_1):
    cluster = Cluster(["a", "b", "c"], classical_factory(threshold_3_1), UniformDelay(seed=2))
    set_handle = cluster.invoke("a", "quorum_set", add(5))
    cluster.run_until_done([set_handle], max_time=100.0, require_completion=True)
    get_handle = cluster.invoke("b", "quorum_get")
    cluster.run_until_done([get_handle], max_time=100.0, require_completion=True)
    # Real-time ordering: at least one returned state incorporates the update.
    assert any(value == 5 for value in get_handle.result.values())


def test_classical_liveness_under_crash(threshold_3_1):
    from repro.failures import FailurePattern

    cluster = Cluster(["a", "b", "c"], classical_factory(threshold_3_1), UniformDelay(seed=3))
    cluster.network.apply_failure_pattern(FailurePattern.crash_only(["c"]))
    handle = cluster.invoke("a", "quorum_get")
    assert cluster.run_until_done([handle], max_time=200.0)


# --------------------------------------------------------------------------- #
# Generalized access functions (Figure 3)
# --------------------------------------------------------------------------- #
def test_gqs_get_and_set_failure_free(figure1_gqs):
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes), gqs_factory(figure1_gqs), UniformDelay(seed=4)
    )
    set_handle = cluster.invoke("a", "quorum_set", add(3))
    cluster.run_until_done([set_handle], max_time=300.0, require_completion=True)
    get_handle = cluster.invoke("b", "quorum_get")
    cluster.run_until_done([get_handle], max_time=300.0, require_completion=True)
    assert any(value == 3 for value in get_handle.result.values())


def test_gqs_liveness_inside_termination_component(figure1_gqs):
    """Under f1 the operations invoked at a and b (= U_f1) terminate."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes), gqs_factory(figure1_gqs), UniformDelay(seed=5)
    )
    cluster.network.apply_failure_pattern(f1)
    handles = [
        cluster.invoke("a", "quorum_set", add(1)),
        cluster.invoke("b", "quorum_get"),
    ]
    assert cluster.run_until_done(handles, max_time=500.0)


def test_gqs_real_time_ordering_under_failures(figure1_gqs):
    """A completed quorum_set is visible to a later quorum_get, even under f1."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes), gqs_factory(figure1_gqs), UniformDelay(seed=6)
    )
    cluster.network.apply_failure_pattern(f1)
    set_handle = cluster.invoke("a", "quorum_set", add(7))
    cluster.run_until_done([set_handle], max_time=500.0, require_completion=True)
    get_handle = cluster.invoke("b", "quorum_get")
    cluster.run_until_done([get_handle], max_time=500.0, require_completion=True)
    assert any(value == 7 for value in get_handle.result.values())


def test_gqs_validity_states_are_results_of_updates(figure1_gqs):
    """Returned states are obtained by applying a subset of submitted updates."""
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes), gqs_factory(figure1_gqs), UniformDelay(seed=7)
    )
    updates = [cluster.invoke("a", "quorum_set", add(1)) for _ in range(3)]
    cluster.run_until_done(updates, max_time=600.0, require_completion=True)
    get_handle = cluster.invoke("b", "quorum_get")
    cluster.run_until_done([get_handle], max_time=600.0, require_completion=True)
    assert all(value in (0, 1, 2, 3) for value in get_handle.result.values())
    assert any(value == 3 for value in get_handle.result.values())


def test_gqs_clock_advances_with_periodic_push(figure1_gqs):
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes),
        gqs_factory(figure1_gqs, push_interval=0.5),
        UniformDelay(seed=8),
    )
    cluster.run(max_time=5.0)
    clocks = [process.clock for process in cluster.processes.values()]
    assert all(clock >= 5 for clock in clocks)


def test_gqs_quorum_get_completes_with_one_read_quorum(figure1_gqs):
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes), gqs_factory(figure1_gqs), UniformDelay(seed=9)
    )
    handle = cluster.invoke("a", "quorum_get")
    cluster.run_until_done([handle], max_time=300.0, require_completion=True)
    assert handle.done
    assert frozenset(handle.result) in set(figure1_gqs.read_quorums)
    assert set(handle.result.values()) == {0}


# --------------------------------------------------------------------------- #
# Response tables stay bounded (regression: one dict per seq was kept forever,
# and a late reply re-created the dict of a finished request)
# --------------------------------------------------------------------------- #
def _open_response_dicts(process):
    tables = ("_get_responses", "_clock_responses", "_set_responses")
    return sum(len(getattr(process, table, ())) for table in tables)


def test_register_run_leaves_no_response_dicts_behind(figure1_gqs):
    from repro.experiments import run_workload

    result = run_workload("register", figure1_gqs, ops_per_process=50, seed=4)
    assert result.completed and len(result.history.records) == 200
    # Let the replies still in flight when the last operation returned arrive.
    result.cluster.run(max_time=result.cluster.network.now + 50.0)
    for process in result.cluster.processes.values():
        assert process.seq >= 50
        assert _open_response_dicts(process) <= len(process._waits) == 0


def test_classical_late_replies_do_not_reopen_finished_requests(threshold_3_1):
    cluster = Cluster(["a", "b", "c"], classical_factory(threshold_3_1), UniformDelay(seed=6))
    handles = [cluster.invoke("a", "quorum_set", add(1)), cluster.invoke("a", "quorum_get")]
    # Quorums have two members: each wait completes with the third reply still
    # in flight; running on delivers it after the request was closed.
    cluster.run_until_done(handles, max_time=100.0, require_completion=True)
    cluster.run(max_time=cluster.network.now + 50.0)
    assert cluster.network.stats.messages_delivered == cluster.network.stats.messages_sent
    assert _open_response_dicts(cluster.processes["a"]) == 0
    # A request still waiting keeps exactly its own table entry.
    from repro.failures import FailurePattern

    cluster.network.apply_failure_pattern(FailurePattern.crash_only(["b", "c"]))
    stuck = cluster.invoke("a", "quorum_get")
    cluster.run(max_time=cluster.network.now + 50.0)
    assert not stuck.done
    assert _open_response_dicts(cluster.processes["a"]) == 1
