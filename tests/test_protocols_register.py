"""Tests for the MWMR atomic register (Figure 4) and the classical ABD baseline."""

import functools

import pytest

from repro.checkers import check_register_linearizability
from repro.experiments import run_workload
from repro.history import History
from repro.protocols import ClassicalABDRegister, GQSRegister
from repro.protocols.register import RegisterState, initial_register_state
from repro.quorums import GeneralizedQuorumSystem
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes


def make_cluster(quorum_system, classical=False, seed=0):
    factory = functools.partial(
        ClassicalABDRegister if classical else GQSRegister, quorum_system=quorum_system
    )
    return Cluster(
        sorted_processes(quorum_system.processes), factory, UniformDelay(seed=seed)
    )


def test_initial_register_state():
    state = initial_register_state()
    assert state.value == 0
    assert state.version == (0, 0)
    assert "RegisterState" in repr(state)


def test_read_before_any_write_returns_initial_value(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    handle = cluster.invoke("a", "read")
    cluster.run_until_done([handle], max_time=300.0, require_completion=True)
    assert handle.result == 0


def test_write_then_read_same_process(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    write = cluster.invoke("a", "write", "hello")
    cluster.run_until_done([write], max_time=300.0, require_completion=True)
    assert write.result == "ack"
    read = cluster.invoke("a", "read")
    cluster.run_until_done([read], max_time=300.0, require_completion=True)
    assert read.result == "hello"


def test_write_then_read_across_processes(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    write = cluster.invoke("a", "write", "x")
    cluster.run_until_done([write], max_time=300.0, require_completion=True)
    read = cluster.invoke("c", "read")
    cluster.run_until_done([read], max_time=300.0, require_completion=True)
    assert read.result == "x"


def test_later_write_wins(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    first = cluster.invoke("a", "write", "first")
    cluster.run_until_done([first], max_time=300.0, require_completion=True)
    second = cluster.invoke("b", "write", "second")
    cluster.run_until_done([second], max_time=300.0, require_completion=True)
    read = cluster.invoke("d", "read")
    cluster.run_until_done([read], max_time=300.0, require_completion=True)
    assert read.result == "second"


def test_register_versions_grow_monotonically(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    writes = []
    for value in ("v1", "v2", "v3"):
        handle = cluster.invoke("a", "write", value)
        cluster.run_until_done([handle], max_time=300.0, require_completion=True)
        writes.append(cluster.processes["a"].state.version)
    assert writes == sorted(writes)
    assert len(set(writes)) == 3


def test_concurrent_writes_and_reads_linearizable(figure1_gqs):
    result = run_workload("register", figure1_gqs, pattern=None, ops_per_process=2, seed=11)
    assert result.completed
    outcome = check_register_linearizability(result.history, initial_value=0)
    assert bool(outcome)


def test_register_liveness_and_safety_under_every_figure1_pattern(figure1_gqs):
    for index, pattern in enumerate(figure1_gqs.fail_prone.patterns):
        result = run_workload(
            "register", figure1_gqs, pattern=pattern, ops_per_process=2, seed=20 + index
        )
        assert result.completed, "operations inside U_f must terminate under {}".format(
            pattern.name
        )
        assert bool(check_register_linearizability(result.history, initial_value=0))


def test_register_write_read_inside_component_under_f1(figure1_gqs):
    """Concrete Example 10 scenario: operations at a and b terminate under f1."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    cluster = make_cluster(figure1_gqs, seed=3)
    cluster.network.apply_failure_pattern(f1)
    write = cluster.invoke("a", "write", "from-a")
    cluster.run_until_done([write], max_time=600.0, require_completion=True)
    read = cluster.invoke("b", "read")
    cluster.run_until_done([read], max_time=600.0, require_completion=True)
    assert read.result == "from-a"


def test_classical_abd_register_basic(threshold_3_1):
    gqs = GeneralizedQuorumSystem.from_classical(threshold_3_1)
    cluster = make_cluster(gqs, classical=True)
    write = cluster.invoke("a", "write", 42)
    cluster.run_until_done([write], max_time=200.0, require_completion=True)
    read = cluster.invoke("b", "read")
    cluster.run_until_done([read], max_time=200.0, require_completion=True)
    assert read.result == 42


def test_classical_abd_workload_linearizable(threshold_3_1):
    gqs = GeneralizedQuorumSystem.from_classical(threshold_3_1)
    result = run_workload(
        "register",
        gqs,
        pattern=None,
        protocol_params={"classical": True},
        ops_per_process=2,
        seed=5,
    )
    assert result.completed
    assert bool(check_register_linearizability(result.history, initial_value=0))


def test_writer_ranks_are_unique(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    ranks = [process.writer_rank for process in cluster.processes.values()]
    assert len(set(ranks)) == len(ranks)


def test_register_history_records_invocations(figure1_gqs):
    result = run_workload("register", figure1_gqs, pattern=None, ops_per_process=2, seed=13)
    history: History = result.history
    kinds = {record.kind for record in history}
    assert kinds == {"read", "write"}
    assert result.metrics.operations == len(history)
    assert result.metrics.completed == len(history.complete_records())
    assert result.metrics.messages_sent > 0
