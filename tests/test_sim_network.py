"""Tests for the simulated network (:mod:`repro.sim.network`)."""

import pytest

from repro.errors import SimulationError
from repro.failures import FailurePattern
from repro.sim import EventScheduler, FixedDelay, Network, NetworkStats, Process


class Recorder(Process):
    """A process that records every message it receives."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def make_network(pids=("a", "b", "c")):
    network = Network(delay_model=FixedDelay(1.0))
    processes = {pid: Recorder(pid, network) for pid in pids}
    return network, processes


def test_send_delivers_after_delay():
    network, procs = make_network()
    network.send("a", "b", "hello")
    assert procs["b"].received == []
    network.run()
    assert procs["b"].received == [("a", "hello")]
    assert network.now == pytest.approx(1.0)


def test_send_to_self_is_immediate():
    network, procs = make_network()
    network.send("a", "a", "note")
    assert procs["a"].received == [("a", "note")]


def test_broadcast_reaches_everyone():
    network, procs = make_network()
    network.broadcast("a", "ping")
    network.run()
    assert ("a", "ping") in procs["a"].received
    assert ("a", "ping") in procs["b"].received
    assert ("a", "ping") in procs["c"].received


def test_broadcast_exclude_self():
    network, procs = make_network()
    network.broadcast("a", "ping", include_self=False)
    network.run()
    assert procs["a"].received == []
    assert procs["b"].received


def test_disconnected_channel_drops_messages():
    network, procs = make_network()
    network.disconnect_channel(("a", "b"))
    network.send("a", "b", "lost")
    network.send("b", "a", "kept")
    network.run()
    assert procs["b"].received == []
    assert procs["a"].received == [("b", "kept")]
    assert network.stats.messages_dropped_channel == 1


def test_crashed_process_neither_sends_nor_receives():
    network, procs = make_network()
    network.crash_process("b")
    network.send("a", "b", "to-crashed")
    network.send("b", "a", "from-crashed")
    network.run()
    assert procs["b"].received == []
    assert procs["a"].received == []
    assert procs["b"].crashed
    assert network.is_crashed("b")
    assert [pid for pid in network.processes if not network.is_crashed(pid)] == ["a", "c"]


def test_crash_unknown_process_rejected():
    network, _ = make_network()
    with pytest.raises(SimulationError):
        network.crash_process("zz")


def test_send_between_unknown_processes_rejected():
    network, _ = make_network()
    with pytest.raises(SimulationError):
        network.send("a", "zz", "x")


def test_duplicate_registration_rejected():
    network, _ = make_network()
    with pytest.raises(SimulationError):
        Recorder("a", network)


def test_apply_failure_pattern_disconnects_and_crashes():
    network, procs = make_network(pids=("a", "b", "c", "d"))
    pattern = FailurePattern(["d"], [("a", "c")], name="f")
    network.apply_failure_pattern(pattern)
    assert network.is_crashed("d")
    assert {("a", "c"), ("a", "d"), ("d", "a")} <= network._disconnected
    assert ("c", "a") not in network._disconnected


def test_apply_failure_pattern_at_time():
    network, procs = make_network(pids=("a", "b"))
    pattern = FailurePattern([], [("a", "b")])
    network.apply_failure_pattern(pattern, at_time=5.0)
    network.send("a", "b", "early")
    network.run(max_time=3.0)
    assert procs["b"].received == [("a", "early")]
    network.run(max_time=6.0)
    network.send("a", "b", "late")
    network.run()
    assert procs["b"].received == [("a", "early")]


def test_stats_counters():
    network, _ = make_network()
    network.broadcast("a", "x")
    network.run()
    assert network.stats.messages_sent == 3
    assert network.stats.messages_delivered == 3
    network.send("b", "c", "y")
    network.run()
    # Run-wide totals only: another sender's copy adds to the same counters.
    assert vars(network.stats) == vars(NetworkStats(messages_sent=4, messages_delivered=4))
    assert set(vars(network.stats)) == {
        "messages_sent", "messages_delivered", "messages_dropped_channel",
        "messages_dropped_crashed", "relay_duplicates_elided",
    }


def test_delay_model_and_scheduler_are_fixed_at_construction():
    """``send`` and ``relay`` draw from the model and queue on the scheduler
    bound at construction, so neither attribute can be replaced afterwards."""
    network, procs = make_network()
    model, scheduler = network.delay_model, network.scheduler
    with pytest.raises(AttributeError):
        network.delay_model = FixedDelay(5.0)
    with pytest.raises(AttributeError):
        network.scheduler = EventScheduler()
    assert network.delay_model is model and network.scheduler is scheduler
    network.send("a", "b", "m")
    network.run()
    assert procs["b"].received == [("a", "m")] and network.now == 1.0
