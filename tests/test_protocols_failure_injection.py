"""Failure injection *during* execution: crashes and disconnections mid-run.

The paper's failure patterns allow processes and channels to fail at any time
during an execution, not just at the start.  These tests inject the Figure 1
failures (and extra crashes) midway through register and consensus workloads
and check that safety is never violated and that liveness inside ``U_f`` is
preserved.
"""

import functools

import pytest

from repro.checkers import check_consensus, check_register_linearizability
from repro.protocols import ConsensusProcess, GQSRegister
from repro.sim import Cluster, PartialSynchronyDelay, UniformDelay
from repro.types import sorted_processes


def register_cluster(gqs, seed=0):
    return Cluster(
        sorted_processes(gqs.processes),
        functools.partial(GQSRegister, quorum_system=gqs),
        UniformDelay(0.4, 1.6, seed=seed),
    )


def test_register_safe_when_pattern_strikes_mid_run(figure1_gqs):
    """Inject f1 after a write completed failure-free; later reads must still see it."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    cluster = register_cluster(figure1_gqs, seed=1)

    write = cluster.invoke("c", "write", "pre-failure")
    cluster.run_until_done([write], max_time=400.0, require_completion=True)

    cluster.network.apply_failure_pattern(f1, at_time=cluster.network.now + 1.0)
    cluster.run(max_time=cluster.network.now + 5.0)

    read_a = cluster.invoke("a", "read")
    read_b = cluster.invoke("b", "read")
    cluster.run_until_done(
        [read_a, read_b], max_time=cluster.network.now + 600.0, require_completion=True
    )
    assert read_a.result == "pre-failure"
    assert read_b.result == "pre-failure"

    history = cluster.history()
    assert bool(check_register_linearizability(history, initial_value=0))


def test_register_crash_of_writer_mid_operation_is_safe(figure1_gqs):
    """Crash a writer while its operation is in flight: the write may or may not
    take effect, but the history must stay linearizable and other processes live."""
    cluster = register_cluster(figure1_gqs, seed=2)

    pending_write = cluster.invoke("d", "write", "maybe")
    # Crash the writer almost immediately, before the operation can finish.
    cluster.network.scheduler.schedule(0.5, lambda: cluster.network.crash_process("d"))
    cluster.run(max_time=30.0)
    assert not pending_write.done

    read = cluster.invoke("a", "read")
    write = cluster.invoke("b", "write", "definite")
    cluster.run_until_done([read, write], max_time=400.0, require_completion=True)
    read2 = cluster.invoke("c", "read")
    cluster.run_until_done([read2], max_time=400.0, require_completion=True)
    assert read2.result == "definite"

    history = cluster.history()
    assert bool(check_register_linearizability(history, initial_value=0))


def test_register_survives_extra_channel_disconnections_inside_pattern(figure1_gqs):
    """Disconnect a channel that f2 already allows to fail, mid-run."""
    f2 = figure1_gqs.fail_prone.patterns[1]
    cluster = register_cluster(figure1_gqs, seed=3)
    cluster.network.apply_failure_pattern(f2)
    first = cluster.invoke("b", "write", "w1")
    cluster.run_until_done([first], max_time=500.0, require_completion=True)
    # (d, c) is f2-faulty; disconnecting it later is a legal f2-compliant behaviour.
    cluster.network.disconnect_channel(("d", "c"))
    second = cluster.invoke("c", "read")
    cluster.run_until_done([second], max_time=500.0, require_completion=True)
    assert second.result == "w1"


def test_consensus_decides_despite_mid_run_pattern_injection(figure1_gqs):
    """Consensus proposed before the failures hit still decides inside U_f."""
    f3 = figure1_gqs.fail_prone.patterns[2]
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes),
        functools.partial(ConsensusProcess, quorum_system=figure1_gqs, view_duration=5.0),
        PartialSynchronyDelay(gst=40.0, delta=1.0, seed=4),
    )
    cluster.network.apply_failure_pattern(f3, at_time=15.0)
    handles = [
        cluster.invoke("c", "propose", "from-c"),
        cluster.invoke("d", "propose", "from-d"),
    ]
    assert cluster.run_until_done(handles, max_time=5_000.0)
    history = cluster.history()
    verdict = check_consensus(
        history, required_to_terminate=figure1_gqs.termination_component(f3)
    )
    assert verdict.ok, verdict.violations


def test_consensus_crash_of_leader_rotates_past_it(figure1_gqs):
    """Crashing the first leader ('a') mid-run only delays the decision."""
    cluster = Cluster(
        sorted_processes(figure1_gqs.processes),
        functools.partial(ConsensusProcess, quorum_system=figure1_gqs, view_duration=4.0),
        PartialSynchronyDelay(gst=10.0, delta=1.0, seed=5),
    )
    cluster.network.scheduler.schedule(2.0, lambda: cluster.network.crash_process("a"))
    handle = cluster.invoke("b", "propose", "survivor-value")
    assert cluster.run_until_done([handle], max_time=5_000.0)
    assert handle.result == "survivor-value"
