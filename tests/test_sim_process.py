"""Tests for process machinery: waits, timers, operations, relaying."""

import pytest

from oracles.sim import reference_simulator, traffic, traffic_tap
from repro.errors import ProcessCrashedError, SimulationError
from repro.sim import (
    NOT_READY,
    FixedDelay,
    Network,
    Process,
    RelayEnvelope,
    ScheduleOverride,
    UniformDelay,
)


class Echo(Process):
    """Replies to every "ping" with a "pong"; collects pongs."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.pongs = []

    def on_message(self, sender, message):
        if message == "ping":
            self.send(sender, "pong")
        elif message == "pong":
            self.pongs.append(sender)

    def await_pongs(self, count):
        def gen():
            yield self.wait_until(lambda: len(self.pongs) >= count, "pongs")
            return list(self.pongs)

        return self.start_operation("await_pongs", count, gen())


def make_cluster(cls=Echo, pids=("a", "b", "c")):
    network = Network(delay_model=FixedDelay(1.0))
    procs = {pid: cls(pid, network) for pid in pids}
    return network, procs


def test_operation_blocks_until_condition_met():
    network, procs = make_cluster()
    handle = procs["a"].await_pongs(2)
    procs["a"].broadcast("ping", include_self=False)
    assert not handle.done
    network.run()
    assert handle.done
    assert sorted(handle.result) == ["b", "c"]
    assert handle.latency == pytest.approx(2.0)


def test_operation_completes_immediately_when_condition_holds():
    network, procs = make_cluster()
    handle = procs["a"].await_pongs(0)
    assert handle.done
    assert handle.result == []


def test_operation_on_crashed_process_raises():
    network, procs = make_cluster()
    network.crash_process("a")
    with pytest.raises(ProcessCrashedError):
        procs["a"].await_pongs(1)


def test_crash_clears_pending_waits():
    network, procs = make_cluster()
    handle = procs["a"].await_pongs(2)
    procs["a"].broadcast("ping", include_self=False)
    network.crash_process("a")
    network.run()
    assert not handle.done
    assert procs["a"]._waits == []


def test_timer_fires_and_crash_cancels_timers():
    network, procs = make_cluster()
    fired = []
    procs["a"].set_timer(2.0, lambda: fired.append("a"))
    procs["b"].set_timer(2.0, lambda: fired.append("b"))
    network.crash_process("b")
    network.run()
    assert fired == ["a"]


def test_periodic_timer_repeats():
    network, procs = make_cluster()
    ticks = []
    procs["a"].set_periodic(1.0, lambda: ticks.append(network.now))
    network.run(max_time=5.5)
    assert len(ticks) == 5


def test_periodic_rejects_nonpositive_interval():
    network, procs = make_cluster()
    with pytest.raises(Exception):
        procs["a"].set_periodic(0.0, lambda: None)


def test_on_complete_callback():
    network, procs = make_cluster()
    seen = []
    handle = procs["a"].await_pongs(1)
    handle.on_complete(lambda h: seen.append(h.result))
    procs["a"].send("b", "ping")
    network.run()
    assert seen == [["b"]]
    # Callback registered after completion fires immediately.
    late = []
    handle.on_complete(lambda h: late.append(True))
    assert late == [True]


def test_wait_for_returns_probe_value():
    network, procs = make_cluster()
    box = {"value": NOT_READY}

    class Prober(Process):
        def probe_op(self):
            def gen():
                value = yield self.wait_for(lambda: box["value"], "box")
                return value

            return self.start_operation("probe", None, gen())

    prober = Prober("p", network)
    handle = prober.probe_op()
    assert not handle.done
    box["value"] = 42
    # Trigger a re-check by delivering any message.
    network.send("a", "p", "noop")
    network.run()
    assert handle.done
    assert handle.result == 42


def test_operation_generator_must_yield_wait_conditions():
    network, procs = make_cluster()

    class Bad(Process):
        def bad_op(self):
            def gen():
                yield "not-a-wait-condition"

            return self.start_operation("bad", None, gen())

    bad = Bad("x", network)
    with pytest.raises(Exception):
        bad.bad_op()


# --------------------------------------------------------------------------- #
# Relaying
# --------------------------------------------------------------------------- #
class RelayEcho(Echo):
    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.enable_relay()


def test_relay_delivers_over_multi_hop_paths():
    """a -> b and b -> c are the only channels; a relay-broadcast still reaches c."""
    network = Network(delay_model=FixedDelay(1.0))
    procs = {pid: RelayEcho(pid, network) for pid in ("a", "b", "c")}
    # Cut all channels except a->b and b->c.
    for src in "abc":
        for dst in "abc":
            if src != dst and (src, dst) not in (("a", "b"), ("b", "c")):
                network.disconnect_channel((src, dst))
    handle = procs["a"].await_pongs(1)  # nobody can answer a, just exercise waits
    procs["a"].broadcast("ping", include_self=False)
    network.run(max_time=20.0)
    # c received the ping via b even though (a, c) is disconnected.
    assert not handle.done  # pongs cannot flow back to a (one-way connectivity)
    del handle


def test_relay_point_to_point_reaches_destination_only():
    network = Network(delay_model=FixedDelay(1.0))
    procs = {pid: RelayEcho(pid, network) for pid in ("a", "b", "c")}
    for src in "abc":
        for dst in "abc":
            if src != dst and (src, dst) not in (("a", "b"), ("b", "c")):
                network.disconnect_channel((src, dst))
    received = []
    procs["c"].on_message = lambda sender, message: received.append((sender, message))
    procs["a"].send("c", "direct")
    network.run(max_time=20.0)
    assert ("a", "direct") in received
    # b forwarded the envelope but did not treat the payload as addressed to it.
    assert procs["b"].pongs == []


def test_relay_deduplicates_forwards():
    network = Network(delay_model=FixedDelay(1.0))
    procs = {pid: RelayEcho(pid, network) for pid in ("a", "b", "c")}
    procs["a"].broadcast("ping", include_self=False)
    network.run(max_time=50.0)
    # With dedup the number of physical messages is bounded by n^2 per logical
    # message (every process forwards each envelope at most once), here the
    # ping plus two pongs = 3 envelopes -> at most 3 * 9 sends.
    assert network.stats.messages_sent <= 27


def test_non_relaying_process_unwraps_envelopes():
    network = Network(delay_model=FixedDelay(1.0))
    sender = RelayEcho("a", network)
    receiver = Echo("b", network)  # relay disabled
    sender.send("b", "ping")
    network.run(max_time=10.0)
    assert sender.pongs == ["b"]


@pytest.mark.parametrize("relay", [False, True])
def test_send_to_an_unknown_process_is_rejected_with_or_without_relaying(relay):
    """Regression: a relaying sender used to wrap the message in an envelope
    nobody is the destination of and flood it, raising nothing."""
    network, procs = make_cluster()
    if relay:
        procs["a"].enable_relay()
    with pytest.raises(SimulationError, match="send between unknown processes 'a' -> 'zzz'"):
        procs["a"].send("zzz", "lost")
    network.run()
    assert network.stats.messages_sent == 0
    assert network.scheduler.events_processed == 0
    assert procs["a"]._relay_seq == 0 and procs["a"]._relay_due == {}


# --------------------------------------------------------------------------- #
# Wait probes are polled only after a protocol step
# --------------------------------------------------------------------------- #
class Waiter(Process):
    """One suspended operation whose (never satisfied) probe counts its calls."""

    def __init__(self, pid, network, relay):
        super().__init__(pid, network)
        if relay:
            self.enable_relay()
        self.polls = 0
        self.handled = []

    def on_message(self, sender, message):
        self.handled.append((sender, message))

    def suspend(self):
        def probe():
            self.polls += 1
            return NOT_READY

        def gen():
            yield self.wait_for(probe, "never")

        handle = self.start_operation("suspend", None, gen())
        self.polls = 0  # start_operation polled once; count deliveries only
        return handle


PROBE_DELAY_MODELS = {
    "fifo-lane": lambda: FixedDelay(1.0),
    "heap-lane": lambda: UniformDelay(0.5, 2.0, seed=4),
    "schedule-override": lambda: ScheduleOverride(
        UniformDelay(0.5, 2.0, seed=4),
        stretches={("y", "x"): 3.0},
        nudges={(("y", "x"), 1): 2.5, (("y", "x"), 4): 0.75},
    ),
}


def _flood_waiter(delay_model, relay, duplicates):
    """``x`` (suspended) receives, from the plain sink ``y``: one envelope for
    itself, ``duplicates`` more copies of it, and ``duplicates`` envelopes
    addressed to ``z``.  Returns ``(x, network)`` after the run, made with
    the traffic tap on."""
    with traffic_tap():
        network = Network(delay_model=delay_model)
        x = Waiter("x", network, relay=relay)
        Process("y", network)
        Process("z", network)
        x.suspend()
        for _ in range(1 + duplicates):
            network.send("y", "x", RelayEnvelope("y", 1, "x", "for-x"))
        for index in range(duplicates):
            network.send("y", "x", RelayEnvelope("y", 2 + index, "z", "for-z"))
        network.run()
    assert traffic(network).delivered["x"] == 2 * duplicates + 1
    return x, network


@pytest.mark.parametrize("lane", sorted(PROBE_DELAY_MODELS))
def test_relay_duplicates_and_pass_through_envelopes_poll_no_probe(lane):
    duplicates = 7
    x, network = _flood_waiter(PROBE_DELAY_MODELS[lane](), relay=True, duplicates=duplicates)
    # Only the first copy of the envelope addressed to x ran protocol code.
    assert x.handled == [("y", "for-x")]
    assert x.polls == 1
    # The pass-through envelopes were still forwarded, once each, to y and z.
    assert traffic(network).sent["x"] == 2 * (1 + duplicates)
    with reference_simulator():
        old, old_network = _flood_waiter(
            PROBE_DELAY_MODELS[lane](), relay=True, duplicates=duplicates
        )
    assert old.polls == 2 * duplicates + 1
    assert old.handled == x.handled
    assert vars(old_network.stats) == vars(network.stats)
    assert old_network.scheduler.events_processed == network.scheduler.events_processed


def test_non_relaying_process_ignores_foreign_envelopes_without_polling():
    duplicates = 3
    x, network = _flood_waiter(FixedDelay(1.0), relay=False, duplicates=duplicates)
    # No dedup without relaying: every copy addressed to x is handled (and
    # polled); the envelopes for z are dropped on the floor, probe untouched.
    assert x.handled == [("y", "for-x")] * (1 + duplicates)
    assert x.polls == 1 + duplicates
    assert "x" not in traffic(network).sent
    with reference_simulator():
        old, _ = _flood_waiter(FixedDelay(1.0), relay=False, duplicates=duplicates)
    assert old.polls == 2 * duplicates + 1 and old.handled == x.handled


def test_timers_and_plain_messages_still_poll_the_probe():
    network = Network(delay_model=FixedDelay(1.0))
    x = Waiter("x", network, relay=True)
    Process("y", network)
    x.suspend()
    x.set_timer(1.0, lambda: None)
    network.send("y", "x", "plain")
    network.run()
    assert x.polls == 2


# --------------------------------------------------------------------------- #
# Timer bookkeeping stays bounded (regression: fired timers used to accumulate)
# --------------------------------------------------------------------------- #
def test_timers_stay_bounded_under_a_long_periodic_run():
    network, procs = make_cluster()
    ticks = []
    procs["a"].set_periodic(1.0, lambda: ticks.append(network.now))
    network.run(max_time=500.5)
    assert len(ticks) == 500
    # One armed timer (the next tick), not one entry per past tick.
    assert len(procs["a"]._timers) <= 2


def test_fired_one_shot_timers_drop_out_of_the_timer_list():
    network, procs = make_cluster()
    fired = []
    for i in range(20):
        procs["a"].set_timer(float(i + 1), lambda i=i: fired.append(i))
    network.run()
    assert fired == list(range(20))
    assert len(procs["a"]._timers) == 0


def test_cancelled_timers_stay_bounded_under_repeated_arm_and_cancel():
    network, procs = make_cluster()
    # 100 rounds of arm-10-cancel-10 used to accumulate 1000 dead entries;
    # the amortized prune keeps the structure bounded by a small constant.
    for _ in range(100):
        events = [procs["a"].set_timer(1_000.0, lambda: None) for _ in range(10)]
        for event in events:
            event.cancel()
    assert len(procs["a"]._timers) <= 40
    network.run(max_time=10.0)


def test_crash_still_cancels_pending_timers_after_periodic_run():
    network, procs = make_cluster()
    ticks = []
    procs["a"].set_periodic(1.0, lambda: ticks.append(network.now))
    network.run(max_time=10.5)
    network.crash_process("a")
    network.run(max_time=50.0)
    assert len(ticks) == 10
    assert len(procs["a"]._timers) == 0
