"""Differential battery: the simulator hot path vs the reference simulator.

The production per-message path (:mod:`repro.sim.events`: tuple-keyed queue
whose delivery entries carry their arguments, the FIFO short-circuit lane for
:attr:`~repro.sim.DelayModel.preserves_fifo` models, lazy-deletion heap
compaction; :meth:`repro.sim.Network.broadcast` over a cached fan-out that
queues no relay copy that can only arrive second at its receiver; the one
delivery callback ``Network._deliver`` recognising a duplicate envelope first
and polling wait probes only after a protocol step) is a faster implementation of the same
simulator, never a different simulator.  The reference — one heap of ``Event``
objects, every copy queued, probes polled after every delivery — lives in
:mod:`oracles.sim`.  These tests pin the strongest form of the claim: every
catalogue scenario is recorded on both and the trace directories are compared
**byte for byte** (jobs 1 and 2 included); per workload, histories, the
send-side ``NetworkStats`` and the tapped copies sent per sender are asserted
equal as they stand, and the delivery-side counters, the tapped copies
delivered per receiver, ``events_processed``, ``pending()`` and ``now`` as
exact identities of the reference run minus the copies production never
queues (:func:`oracles.sim.production_view`, :func:`oracles.sim.traffic_view`);
property tests cover the tuple
queue (no callback fires twice, nothing stale survives a round) and the FIFO
lane's ``(time, seq)`` tie-break equivalence against the reference scheduler
fed the same schedule.  The last section pins what the fan-out could break: a
relaying cluster on a graph-restricted network, failures injected on a push
tick and between two hops of a flood, a sender whose own handler sends (and
crashes itself or cuts a channel) from inside its broadcast, and a broadcast
from a crashed sender; the final one pins which relay copies may go unqueued,
case by case.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import nullcontext

import pytest

from oracles.sim import EventScheduler as ReferenceScheduler
from oracles.sim import production_view, reference_simulator, traffic_tap, traffic_view
from repro.errors import SimulationError
from repro.experiments import build_protocol_factory, run_workload
from repro.history import History
from repro.scenarios.registry import all_scenarios
from repro.scenarios.runner import run_scenario, sweep_scenarios
from repro.sim import (
    Cluster,
    EventScheduler,
    FixedDelay,
    Network,
    Process,
    RelayEnvelope,
    ScheduleOverride,
    UniformDelay,
)
from repro.traces import write_run_trace


def _counters(network):
    """``NetworkStats``, the tapped copies sent per sender and delivered per
    receiver (with the key order of both tables), ``events_processed``,
    ``pending()`` and ``now`` as production reports them.

    A reference run goes through :func:`oracles.sim.production_view` and
    :func:`oracles.sim.traffic_view`: the relay copies it queued that could
    not arrive first at their receiver — copies production counts in
    ``relay_duplicates_elided`` and never queues — are subtracted from what
    they delivered, dropped, popped or still hold.  Everything else must be
    equal as it stands.  The run must have been made inside
    :func:`oracles.sim.traffic_tap`.
    """
    counters = dict(production_view(network), **traffic_view(network))
    counters["sent_order"] = list(counters["sent"])
    counters["delivered_order"] = list(counters["delivered"])
    return counters


def _workload_fingerprint(kind, quorum_system, seed, delay_model=None):
    with traffic_tap():
        result = run_workload(kind, quorum_system, seed=seed, delay_model=delay_model)
    return dict(
        _counters(result.cluster.network),
        records=result.history.records,
        completed=result.completed,
    )


# --------------------------------------------------------------------- #
# Per-workload equality: histories, NetworkStats, events_processed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["register", "snapshot", "lattice", "consensus", "paxos"])
def test_workload_histories_stats_and_event_counts_equal(kind, figure1_gqs):
    for seed in (0, 3):
        with reference_simulator():
            reference = _workload_fingerprint(kind, figure1_gqs, seed)
        fast = _workload_fingerprint(kind, figure1_gqs, seed)
        assert fast == reference, (kind, seed)
        # Every kind relays on figure 1, so the identities are exercised.
        assert fast["stats"]["relay_duplicates_elided"] > 0, (kind, seed)


def test_fixed_delay_workload_exercises_the_fifo_lane_and_stays_equal(figure1_gqs):
    """FixedDelay is the model that actually routes through the FIFO lane."""
    with reference_simulator():
        reference = _workload_fingerprint(
            "register", figure1_gqs, seed=1, delay_model=FixedDelay(1.0)
        )
    fast = _workload_fingerprint(
        "register", figure1_gqs, seed=1, delay_model=FixedDelay(1.0)
    )
    assert fast == reference


def test_schedule_override_workload_stays_equal(figure1_gqs):
    """The nemesis path: a stretched channel and nudged deliveries reorder
    arrivals (and keep the run on the heap lane) identically on both sides."""

    def mutated():
        return ScheduleOverride(
            UniformDelay(0.5, 2.0, seed=5),
            stretches={("a", "b"): 4.0, ("c", "a"): 0.25},
            nudges={(("b", "c"), 0): 3.0, (("a", "c"), 2): 1.5},
        )

    for kind in ("register", "snapshot"):
        with reference_simulator():
            reference = _workload_fingerprint(kind, figure1_gqs, seed=2, delay_model=mutated())
        fast = _workload_fingerprint(kind, figure1_gqs, seed=2, delay_model=mutated())
        assert fast == reference, kind


# --------------------------------------------------------------------- #
# Scenario catalogue: recorded trace directories byte-identical
# --------------------------------------------------------------------- #
def _read_directory(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def test_catalogue_traces_byte_identical_across_paths_and_jobs(tmp_path):
    """Every catalogue scenario, fast vs reference, jobs 1 and 2."""
    recordings = {}
    for label, simulator, jobs in (
        ("ref-jobs1", reference_simulator, 1),
        ("fast-jobs1", nullcontext, 1),
        ("fast-jobs2", nullcontext, 2),
    ):
        directory = str(tmp_path / label)
        with simulator():
            results = sweep_scenarios(runs=2, seed=7, jobs=jobs, record_traces=directory)
        recordings[label] = (
            _read_directory(directory),
            [result.to_json() for result in results],
        )
    names = {scenario.name for scenario in all_scenarios()}
    reference_files, reference_tables = recordings["ref-jobs1"]
    # One trace per (scenario, run) — the whole catalogue is really covered.
    assert len(reference_files) == 2 * len(names)
    for label in ("fast-jobs1", "fast-jobs2"):
        files, tables = recordings[label]
        assert files == reference_files, label
        assert tables == reference_tables, label


def test_single_scenario_rows_equal_with_reference_jobs2(tmp_path):
    """The reference path is itself jobs-independent; pin one scenario at jobs 2."""
    with reference_simulator():
        serial = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=1)
        parallel = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=2)
    fast = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=2)
    assert serial.rows == parallel.rows == fast.rows


# --------------------------------------------------------------------- #
# Property: the tuple queue leaks no stale state from one event to the next
# --------------------------------------------------------------------- #
def test_pool_recycling_is_invisible_under_random_schedules():
    """Random mixes of heap-lane / FIFO-lane deliveries and plain (cancellable)
    events: the production scheduler fires exactly what the reference
    scheduler fires, in the same order, and no spent entry ever resurrects an
    old callback."""
    for case in range(25):
        rng = random.Random(case)
        plan = []
        for step in range(rng.randint(5, 40)):
            lane = rng.choice(["plain", "pooled", "fifo"])
            delay = rng.choice([0.0, 0.5, 1.0, 1.0, 2.5])
            cancel = lane == "plain" and rng.random() < 0.3
            plan.append((lane, delay, cancel))

        def execute(scheduler):
            fired = []
            cancellable = []

            def deliver(sender, tag, depth):
                assert sender == "s"
                fired.append(tag)
                # A third of the events schedule follow-up deliveries, so
                # the lanes are refilled while the run is hot.
                if depth < 2 and tag % 3 == 0:
                    scheduler.schedule_delivery(1.0, True, deliver, "s", tag + 1000, depth + 1)

            for index, (lane, delay, cancel) in enumerate(plan):
                if lane == "plain":
                    event = scheduler.schedule(delay, lambda index=index: deliver("s", index, 0))
                    if cancel:
                        cancellable.append(event)
                else:
                    scheduler.schedule_delivery(delay, lane == "fifo", deliver, "s", index, 0)
            for event in cancellable:
                event.cancel()
            scheduler.run()
            return fired, scheduler.events_processed, scheduler.now, scheduler.pending()

        assert execute(EventScheduler()) == execute(ReferenceScheduler()), case


def test_pool_never_fires_a_callback_twice():
    scheduler = EventScheduler()
    counts = {}

    def count(sender, wave, i):
        counts[(wave, i)] = counts.get((wave, i), 0) + 1

    for wave in range(30):
        for i in range(8):
            scheduler.schedule_delivery(float(i % 3), True, count, "s", wave, i)
        scheduler.run()
        assert not scheduler._fifo and not scheduler._queue
    assert all(count == 1 for count in counts.values())
    assert len(counts) == 30 * 8


# --------------------------------------------------------------------- #
# Property: FIFO-lane tie-break equivalence
# --------------------------------------------------------------------- #
def test_fifo_lane_tie_breaks_match_the_reference_heap():
    """Monotone (FIFO-preserving) schedules full of exact time ties: the lane
    must reproduce the reference heap's (time, seq) order event for event."""
    for case in range(25):
        rng = random.Random(1000 + case)
        # Non-decreasing target times with heavy tie density, interleaved
        # across the heap lane (timers) and the FIFO lane (deliveries).
        entries = []
        time_now = 0.0
        for index in range(rng.randint(10, 60)):
            if rng.random() < 0.6:
                time_now += rng.choice([0.0, 0.0, 1.0])
            entries.append((time_now, rng.random() < 0.5))

        def execute(scheduler):
            fired = []
            for index, (at, use_fifo) in enumerate(entries):
                if use_fifo:
                    scheduler.schedule_delivery(
                        at, True, lambda sender, target, message: fired.append(message),
                        "s", "t", index,
                    )
                else:
                    scheduler.schedule(at, lambda index=index: fired.append(index))
            scheduler.run()
            return fired

        assert execute(EventScheduler()) == execute(ReferenceScheduler()), case


# --------------------------------------------------------------------- #
# What hoisting the fan-out could break
# --------------------------------------------------------------------- #
def _fingerprint(network, history, directory, extra=None):
    """Everything a run exposes: history, every counter, the tapped
    per-process tables *and their key order*, the scheduler's counts and the
    trace bytes."""
    os.makedirs(directory, exist_ok=True)
    path = write_run_trace(
        directory, name="case", protocol="register", root_seed=0, run_index=0, seed=0,
        history=history, verdict={},
    )
    with open(path, "rb") as handle:
        trace = handle.read()
    return dict(_counters(network), records=history.records, trace=trace, extra=extra)


def _both_sides(run, tmp_path):
    """``run(directory)`` on the reference simulator and on production, each
    with the traffic tap on."""
    with reference_simulator(), traffic_tap():
        reference = run(str(tmp_path / "reference"))
    with traffic_tap():
        production = run(str(tmp_path / "production"))
    assert production == reference
    return production


@pytest.mark.parametrize("delay", ["fixed", "uniform"])
def test_relaying_cluster_on_a_graph_restricted_network_stays_equal(delay, figure1_gqs, tmp_path):
    """A one-way ring plus one chord: most copies of every flood are dropped
    at a channel the network lacks (disconnected before the run, as
    ``execute_workload`` does), none of them may draw a delay."""
    channels = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")}

    def run(directory):
        model = FixedDelay(1.0) if delay == "fixed" else UniformDelay(0.5, 2.0, seed=6)
        cluster = Cluster(
            ["a", "b", "c", "d"],
            build_protocol_factory("register", figure1_gqs),
            delay_model=model,
        )
        for channel in itertools.permutations("abcd", 2):
            if channel not in channels:
                cluster.network.disconnect_channel(channel)
        cluster.invoke_at(0.5, "a", "write", 1)
        cluster.invoke_at(0.5, "c", "write", 2)
        cluster.invoke_at(4.0, "b", "read")
        cluster.invoke_at(4.0, "d", "read")
        cluster.run(max_time=40.0)
        return _fingerprint(cluster.network, cluster.history(), directory)

    outcome = _both_sides(run, tmp_path)
    assert outcome["stats"]["messages_dropped_channel"] > 0
    assert outcome["stats"]["messages_delivered"] > 0
    assert len(outcome["records"]) == 4


@pytest.mark.parametrize(
    "inject_at",
    [2.0, 2.5],
    ids=["on-a-push-tick", "between-two-hops"],
)
@pytest.mark.parametrize("delay", ["fixed", "uniform"])
def test_failures_injected_mid_flood_stay_equal(inject_at, delay, figure1_gqs, tmp_path):
    """With unit delays every hop of every flood lands on an integer instant,
    as does every periodic push: an injection at 2.0 ties with both, one at
    2.5 falls between two hops of the floods in flight."""
    pattern = figure1_gqs.fail_prone.patterns[0]

    def run(directory):
        model = FixedDelay(1.0) if delay == "fixed" else UniformDelay(0.5, 2.0, seed=8)
        result = run_workload(
            "register", figure1_gqs, pattern=pattern, inject_at=inject_at,
            delay_model=model, seed=8,
        )
        return _fingerprint(
            result.cluster.network, result.history, directory, extra=result.completed
        )

    outcome = _both_sides(run, tmp_path)
    assert outcome["stats"]["messages_dropped_channel"] > 0
    assert outcome["stats"]["messages_dropped_crashed"] > 0


class _Chatty(Process):
    """Logs every message; on its own copy of ``"go"`` it sends from inside the
    broadcast, then crashes itself or cuts its channel to ``d`` there."""

    def __init__(self, pid, network, log, relay, after_go):
        super().__init__(pid, network)
        if relay:
            self.enable_relay()
        self.log = log
        self.after_go = after_go

    def on_message(self, sender, message):
        self.log.append((self.now, self.pid, sender, message))
        if message == "go" and sender == self.pid:
            self.broadcast("echo", include_self=False)
            self.send("a", "direct")
            if self.after_go == "crash":
                self.network.crash_process(self.pid)
            elif self.after_go == "cut":
                self.network.disconnect_channel((self.pid, "d"))


@pytest.mark.parametrize(
    "after_go", [None, "crash", "cut"], ids=["sends", "sends-then-crashes", "sends-then-cuts"]
)
@pytest.mark.parametrize("relay", [False, True], ids=["plain", "relay"])
def test_sender_whose_own_handler_sends_keeps_the_draw_order(relay, after_go, tmp_path):
    """``c`` sits in the middle of the registration order: the delay of its copy
    to ``a``/``b`` is drawn before its handler's sends, those to ``d``/``e``
    after — and a handler that crashes its own process stops the fan-out
    there, one that cuts ``c -> d`` drops the copy to ``d``."""

    def run(directory):
        network = Network(delay_model=UniformDelay(0.5, 2.0, seed=12))
        log = []
        procs = {
            pid: _Chatty(pid, network, log, relay, after_go) for pid in "abcde"
        }
        network.disconnect_channel(("c", "b"))
        procs["c"].broadcast("go")
        network.run()
        return _fingerprint(network, History([]), directory, extra=log)

    outcome = _both_sides(run, tmp_path)
    heard_go = sorted(pid for _time, pid, _sender, message in outcome["extra"] if message == "go")
    if after_go == "crash" and not relay:
        # a and b were sent their copy before c's handler crashed c; b's was
        # dropped by the channel; d's and e's count as dropped by the crash.
        assert heard_go == ["a", "c"]
        assert outcome["stats"]["messages_dropped_crashed"] >= 2
    elif after_go == "cut" and not relay:
        assert heard_go == ["a", "c", "e"]
        assert outcome["stats"]["messages_dropped_channel"] == 3  # c->b twice, c->d once
    elif not relay:
        assert heard_go == ["a", "c", "d", "e"]
    else:
        assert "c" in heard_go and "a" in heard_go


@pytest.mark.parametrize("include_self", [True, False])
def test_broadcast_from_a_crashed_sender_counts_every_copy_as_dropped(include_self, tmp_path):
    def run(directory):
        network = Network(delay_model=UniformDelay(0.5, 2.0, seed=1))
        for pid in "abc":
            Process(pid, network)
        network.crash_process("b")
        network.broadcast("b", "late", include_self=include_self)
        network.run()
        return _fingerprint(network, History([]), directory)

    outcome = _both_sides(run, tmp_path)
    assert outcome["stats"]["messages_dropped_crashed"] == (3 if include_self else 2)
    assert outcome["stats"]["messages_sent"] == 0
    assert outcome["events_processed"] == 0 and outcome["sent_order"] == []


def test_broadcast_from_an_unknown_sender_is_rejected_like_a_send():
    for simulator in (reference_simulator, nullcontext):
        with simulator():
            network = Network()
            network.broadcast("ghost", "m")  # nobody to send to: nothing to reject
            for pid in "ab":
                Process(pid, network)
            with pytest.raises(
                SimulationError, match="send between unknown processes 'ghost' -> 'a'"
            ):
                network.broadcast("ghost", "m")
            assert network.stats.messages_sent == 0


# --------------------------------------------------------------------- #
# Which relay copies may go unqueued, case by case
# --------------------------------------------------------------------- #
class _Flooder(Process):
    """Logs every message it handles; relays unless told not to."""

    def __init__(self, pid, network, log, relay=True):
        super().__init__(pid, network)
        if relay:
            self.enable_relay()
        self.log = log

    def on_message(self, sender, message):
        self.log.append((self.now, self.pid, sender, message))


def _flood(nudges, crash=None, plain=(), pids="abcd"):
    """``a`` relay-broadcasts one envelope over unit delays with ``nudges``
    added; ``crash=(pid, time)`` crashes a process mid-flood and ``plain``
    processes do not relay.  Returns ``run(directory)`` for :func:`_both_sides`."""

    def run(directory):
        network = Network(delay_model=ScheduleOverride(FixedDelay(1.0), nudges=nudges))
        log = []
        procs = {pid: _Flooder(pid, network, log, relay=pid not in plain) for pid in pids}
        if crash is not None:
            pid, at = crash
            network.scheduler.schedule_at(at, lambda: network.crash_process(pid))
        procs["a"].broadcast("E", include_self=False)
        network.run()
        return _fingerprint(network, History([]), directory, extra=log)

    return run


def _handled(outcome, pid):
    return [time for time, receiver, _sender, _message in outcome["extra"] if receiver == pid]


def test_a_later_copy_that_arrives_first_is_queued_before_a_crash(tmp_path):
    """``a -> c`` is nudged to arrive at 6; ``b -> c`` is sent later and lands at
    2, so it is queued and ``c`` handles the envelope before it crashes at 2.5.
    ``d -> c`` (sent at 2, landing at 3) can only arrive after ``b -> c``: it is
    elided, where the reference drops it on the crash.  ``a -> c`` is still
    queued and is dropped on the crash on both sides."""
    outcome = _both_sides(
        _flood({(("a", "c"), 0): 5.0, (("a", "d"), 0): 1.0}, crash=("c", 2.5)), tmp_path
    )
    assert _handled(outcome, "c") == [2.0]
    assert outcome["stats"]["messages_dropped_crashed"] == 1
    assert outcome["now"] == 6.0


def test_a_non_relaying_receiver_gets_every_copy(tmp_path):
    """``c`` does not relay, so it does not de-duplicate either: each of the
    three relaying processes' copies reaches it and is handled."""
    outcome = _both_sides(_flood({}, plain="c"), tmp_path)
    assert _handled(outcome, "c") == [1.0, 2.0, 2.0]
    assert outcome["delivered"]["c"] == 3


def test_an_equal_arrival_time_goes_to_the_copy_queued_first(tmp_path):
    """``b -> c`` and ``d -> c`` both land at 2, ahead of ``a -> c`` at 3: the
    first is queued (it arrives first), the tie is elided (the copy queued
    earlier fires first), and ``a -> c`` arrives second and is discarded."""
    outcome = _both_sides(_flood({(("a", "c"), 0): 2.0}), tmp_path)
    assert _handled(outcome, "c") == [2.0]
    # b, c and d forward three copies each; all but b -> c are elided, the
    # tie d -> c included.  b -> c and a -> c are the two copies c gets.
    assert outcome["stats"]["relay_duplicates_elided"] == 8
    assert outcome["delivered"]["c"] == 2


def test_a_copy_overtaken_by_a_later_send_is_delivered_and_discarded(tmp_path):
    """The override makes ``a -> c``, sent first, arrive at 8, after ``b -> c``
    (sent at 1, landing at 2): both are queued, ``c`` handles the envelope
    once, at 2, and the overtaken copy still costs its event at 8."""
    outcome = _both_sides(_flood({(("a", "c"), 0): 7.0}, pids="abc"), tmp_path)
    assert _handled(outcome, "c") == [2.0]
    assert outcome["delivered"]["c"] == 2
    assert outcome["now"] == 8.0


def test_an_envelope_handed_to_a_plain_send_is_never_elided(tmp_path):
    """Only the relay forwarder elides.  The non-relaying ``y`` hands the same
    envelope for the relaying ``x`` to three plain sends: production queues
    and delivers all three, ``x`` handles the first and forwards it once, and
    the reference's ledger counts none of them."""

    def run(directory):
        network = Network(delay_model=FixedDelay(1.0))
        log = []
        _Flooder("x", network, log)
        for pid in "yz":
            _Flooder(pid, network, log, relay=False)
        for _ in range(3):
            network.send("y", "x", RelayEnvelope("y", 1, "x", "for-x"))
        network.run()
        return _fingerprint(network, History([]), directory, extra=log)

    outcome = _both_sides(run, tmp_path)
    assert _handled(outcome, "x") == [1.0]
    assert outcome["stats"]["relay_duplicates_elided"] == 0
    assert outcome["delivered"] == {"x": 3, "y": 1, "z": 1}
    assert outcome["sent"] == {"y": 3, "x": 2}
