"""Tests for the cluster orchestration layer (:mod:`repro.sim.runtime`)."""

import pytest

from repro.errors import OperationTimeoutError, SimulationError
from repro.sim import Cluster, FixedDelay, Process


class Counter(Process):
    """Counts "inc" messages; supports a blocking wait for a target count."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.count = 0

    def on_message(self, sender, message):
        if message == "inc":
            self.count += 1

    def bump_all(self):
        def gen():
            self.broadcast("inc")
            yield self.wait_until(lambda: self.count >= 1, "self inc")
            return self.count

        return self.start_operation("bump_all", None, gen())

    def wait_for_count(self, target):
        def gen():
            yield self.wait_until(lambda: self.count >= target, "count target")
            return self.count

        return self.start_operation("wait_for_count", target, gen())


def counter_factory(pid, network):
    return Counter(pid, network)


def test_cluster_requires_processes():
    with pytest.raises(SimulationError):
        Cluster([], counter_factory)


def test_invoke_and_run_until_done():
    cluster = Cluster(["a", "b", "c"], counter_factory, delay_model=FixedDelay(1.0))
    handle = cluster.invoke("a", "bump_all")
    assert cluster.run_until_done([handle], max_time=100.0)
    assert handle.done
    assert handle.result >= 1


def test_invoke_requires_operation_handle():
    class Bad(Process):
        def not_an_operation(self):
            return 42

    cluster = Cluster(["a"], lambda pid, net: Bad(pid, net))
    with pytest.raises(SimulationError):
        cluster.invoke("a", "not_an_operation")


def test_run_until_done_timeout_reports_false():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    handle = cluster.invoke("a", "wait_for_count", 100)
    assert not cluster.run_until_done([handle], max_time=10.0)
    assert not handle.done


def test_run_until_done_can_raise_on_timeout():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    handle = cluster.invoke("a", "wait_for_count", 100)
    with pytest.raises(OperationTimeoutError):
        cluster.run_until_done([handle], max_time=10.0, require_completion=True)


def test_invoke_at_defers_invocation():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    assert cluster.invoke_at(5.0, "a", "bump_all") is None
    cluster.run(max_time=2.0)
    assert cluster.handles == []
    assert cluster.completed == 0
    cluster.run(max_time=20.0)
    [handle] = cluster.handles
    assert handle.done and handle.invoked_at == 5.0
    assert handle.result >= 1
    assert cluster.completed == 1


def test_history_collects_tracked_handles():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    cluster.invoke("a", "bump_all")
    cluster.invoke("b", "bump_all")
    cluster.run_until_done(max_time=50.0)
    history = cluster.history()
    assert len(history) == 2
    assert all(record.is_complete for record in history)


def test_message_counters_exposed():
    cluster = Cluster(["a", "b", "c"], counter_factory, delay_model=FixedDelay(1.0))
    cluster.invoke("a", "bump_all")
    cluster.run_until_done(max_time=50.0)
    # Drain the remaining in-flight deliveries before counting.
    cluster.run(max_time=50.0)
    assert cluster.network.stats.messages_sent >= 3
    assert cluster.network.stats.messages_delivered >= 3
    assert cluster.network.now > 0.0


def test_failure_pattern_injected_through_the_network():
    from repro.failures import FailurePattern

    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    cluster.network.apply_failure_pattern(FailurePattern(["b"]))
    assert cluster.network.is_crashed("b")
    handle = cluster.invoke("a", "bump_all")
    cluster.run_until_done([handle], max_time=20.0)
    assert handle.done


# --------------------------------------------------------------------------- #
# invoke_at on a process that crashed first (regression: aborted the run)
# --------------------------------------------------------------------------- #
def test_invoke_at_on_a_crashed_process_never_fires_instead_of_aborting():
    from repro.failures import FailurePattern

    cluster = Cluster(["a", "b", "c"], counter_factory, delay_model=FixedDelay(1.0))
    cluster.network.apply_failure_pattern(FailurePattern(["b"]), at_time=2.0)
    cluster.invoke_at(1.0, "b", "bump_all")  # fires before the crash
    cluster.invoke_at(5.0, "b", "bump_all")  # scheduled after the crash
    cluster.invoke_at(6.0, "a", "bump_all")
    # This used to raise ProcessCrashedError out of the scheduler callback,
    # killing the whole simulation mid-run().
    cluster.run(max_time=50.0)
    # The survivor started; the victim never did; the bystander finished.
    survivor, bystander = cluster.handles
    assert (survivor.process_id, survivor.invoked_at) == ("b", 1.0)
    assert (bystander.process_id, bystander.invoked_at) == ("a", 6.0)
    assert bystander.done
    assert cluster.completed == sum(handle.done for handle in cluster.handles)


def test_completed_counts_operations_as_they_finish_and_late_invocations_too():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    cluster.invoke_at(2.0, "a", "bump_all")
    cluster.run(max_time=20.0)
    [first] = cluster.handles
    assert first.kind == "bump_all" and first.done
    assert cluster.completed == 1
    # b has seen one "inc"; its wait for a second one stays open until a bumps.
    late = cluster.invoke("b", "wait_for_count", 2)
    assert cluster.completed == 1
    cluster.invoke("a", "bump_all")
    assert cluster.run_until_done([late], max_time=40.0)
    assert cluster.completed == 3


@pytest.mark.parametrize("scheduled", [False, True], ids=["invoke", "invoke_at"])
@pytest.mark.parametrize(
    "pid, method, message",
    [("zz", "bump_all", "no process 'zz'"), ("a", "bump", "has no operation 'bump'")],
)
def test_an_unknown_process_or_method_is_refused_at_the_call(scheduled, pid, method, message):
    """A scheduled call used to end the later run() in a bare KeyError or AttributeError."""
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    with pytest.raises(SimulationError, match=message):
        if scheduled:
            cluster.invoke_at(1.0, pid, method)
        else:
            cluster.invoke(pid, method)
    # Nothing was invoked or scheduled: the run that follows is quiet.
    cluster.run(max_time=10.0)
    assert cluster.handles == []
    assert cluster.network.scheduler.events_processed == 0


def test_run_until_done_counts_completions_of_already_done_handles():
    cluster = Cluster(["a", "b"], counter_factory, delay_model=FixedDelay(1.0))
    first = cluster.invoke("a", "bump_all")
    assert cluster.run_until_done([first], max_time=50.0)
    # A second call watching the already-done handle returns immediately.
    assert cluster.run_until_done([first], max_time=50.0)
    assert cluster.run_until_done([], max_time=50.0)
