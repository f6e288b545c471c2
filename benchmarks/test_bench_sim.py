"""Simulator throughput: the production hot path vs the reference simulator.

Message-heavy discrete-event workloads execute one scheduler event per
delivered message, so events/sec is the simulator's samples/sec analogue.
The reference is ``tests/oracles/sim.py`` (one heap of ``Event`` objects, wait
probes polled after every delivery), swapped in with ``reference_simulator()``.
Three workloads are measured:

* **fixed delay token ring** — the delay model preserves FIFO order, so
  deliveries route through the FIFO short-circuit deque instead of the heap;
  this is the headline ≥1.5x claim;
* **uniform delay token ring** — randomized delays stay on the heap, where
  the win is the tuple-keyed queue (ordering in C, no per-message object);
* **relay flood** — eight relay-enabled register processes: most copies are
  duplicate or pass-through envelopes.  Production queues no copy that can
  only arrive second at its receiver, so the two sides process different
  numbers of events for the same run; this one compares seconds per run,
  records production's own seconds per run as ``relay_wall_s`` (guarded on
  its own, so a slowdown that the oracle shares cannot hide in the ratio;
  seconds rather than events per second, because a run that queues fewer
  events would read as a slower one),
  ``relay_duplicates_elided`` and the exact ``probe_polls_per_delivery`` of
  both sides.

The two sides run interleaved with the best of three rounds per side, at
*equal output*: every round asserts the run's fingerprint identical before
any time is compared — for the token rings the processed event count, for
the relay flood the history and every counter as production reports it
(``oracles.sim.production_view``).  The recorded ``events_per_sec`` and
``speedup`` metrics (``reference_*`` names the oracle's side, the bare key is
production's) feed the conftest regression guard against ``BENCH_seed.json``.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

from oracles.sim import production_view, reference_simulator
from repro.experiments import run_workload
from repro.quorums import GeneralizedQuorumSystem, threshold_quorum_system
from repro.sim import FixedDelay, Network, Process, UniformDelay

from conftest import bench_once

RING_SIZE = 8
TOKENS_PER_PROCESS = 500
HOPS_PER_TOKEN = 30
ROUNDS = 3


class TokenRing(Process):
    """Forwards every received token to the next ring member until its TTL ends.

    The handler does near-zero protocol work on purpose: the benchmark should
    time the scheduler and network transport, not application logic.
    """

    def __init__(self, pid, network, ring):
        super().__init__(pid, network)
        self.ring = ring
        self.successor = ring[(ring.index(pid) + 1) % len(ring)]

    def on_message(self, sender, message):
        ttl = message
        if ttl > 0:
            self.send(self.successor, ttl - 1)


def _run_token_ring(delay_model):
    network = Network(delay_model=delay_model)
    ring = ["p{}".format(i) for i in range(RING_SIZE)]
    processes = {pid: TokenRing(pid, network, ring) for pid in ring}
    for pid in ring:
        for _ in range(TOKENS_PER_PROCESS):
            processes[pid].send(processes[pid].successor, HOPS_PER_TOKEN)
    start = time.perf_counter()
    network.run()
    seconds = time.perf_counter() - start
    return network.scheduler.events_processed, network.stats.messages_delivered, seconds


def _interleaved_events_per_sec(run):
    """Best-of-ROUNDS events/sec per side, asserting equal event counts."""
    numbers = _interleaved_seconds(run)
    assert numbers["production"]["events"] == numbers["reference"]["events"]
    for entry in numbers.values():
        entry["events_per_sec"] = round(entry["events"] / entry.pop("seconds"), 1)
    return numbers


def _interleaved_seconds(run):
    """Best-of-ROUNDS seconds per side.

    ``run()`` returns ``(events, fingerprint, seconds)``; the fingerprint must
    be equal across every round of both sides, the events across the rounds
    of one side.
    """
    numbers = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for label, simulator in (
                ("reference", reference_simulator),
                ("production", nullcontext),
            ):
                with simulator():
                    events, fingerprint, seconds = run()
                entry = numbers.setdefault(
                    label, {"events": events, "fingerprint": fingerprint, "seconds": seconds}
                )
                assert entry["events"] == events and entry["fingerprint"] == fingerprint
                entry["seconds"] = min(entry["seconds"], seconds)
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert numbers["production"].pop("fingerprint") == numbers["reference"].pop("fingerprint")
    return numbers


def test_sim_fixed_delay_message_heavy_speedup(benchmark, bench_numbers):
    """FIFO lane + tuple queue vs the reference scheduler: equal event counts
    and fingerprints asserted, the events/sec ratio recorded for the guard."""
    numbers = bench_once(
        benchmark, _interleaved_events_per_sec, lambda: _run_token_ring(FixedDelay(1.0))
    )
    speedup = numbers["production"]["events_per_sec"] / numbers["reference"]["events_per_sec"]
    bench_numbers(
        reference_events_per_sec=numbers["reference"]["events_per_sec"],
        events_per_sec=numbers["production"]["events_per_sec"],
        events=numbers["reference"]["events"],
        speedup=round(speedup, 2),
    )
    print()
    print(
        "sim fixed-delay token ring ({} events): reference {:.0f} -> production {:.0f} "
        "events/sec ({:.2f}x)".format(
            numbers["reference"]["events"],
            numbers["reference"]["events_per_sec"],
            numbers["production"]["events_per_sec"],
            speedup,
        )
    )


def test_sim_uniform_delay_message_heavy_throughput(benchmark, bench_numbers):
    """The heap lane on tuple entries: equal event counts, throughput recorded."""
    numbers = bench_once(
        benchmark,
        _interleaved_events_per_sec,
        lambda: _run_token_ring(UniformDelay(0.5, 2.0, seed=3)),
    )
    bench_numbers(
        reference_events_per_sec=numbers["reference"]["events_per_sec"],
        events_per_sec=numbers["production"]["events_per_sec"],
        events=numbers["reference"]["events"],
    )
    print()
    print(
        "sim uniform-delay token ring ({} events): reference {:.0f} -> production {:.0f} "
        "events/sec".format(
            numbers["reference"]["events"],
            numbers["reference"]["events_per_sec"],
            numbers["production"]["events_per_sec"],
        )
    )
    # The heap lane must never be slower than the reference path by more than
    # measurement noise; the hard ratio claim lives on the FIFO lane.
    assert (
        numbers["production"]["events_per_sec"]
        >= 0.8 * numbers["reference"]["events_per_sec"]
    ), numbers


# --------------------------------------------------------------------- #
# Relay flood: elided duplicates and step-driven wait polling
# --------------------------------------------------------------------- #
FLOOD_PROCESSES = 8
FLOOD_OPS_PER_PROCESS = 6


def _relay_flood():
    """Eight relay-enabled register processes, every one of them a client:
    ``(network, fingerprint, seconds)``."""
    quorum_system = GeneralizedQuorumSystem.from_classical(
        threshold_quorum_system(["p{}".format(i) for i in range(FLOOD_PROCESSES)], 2)
    )
    delay_model = UniformDelay(0.5, 2.0, seed=3)
    start = time.perf_counter()
    result = run_workload(
        "register",
        quorum_system,
        delay_model=delay_model,
        ops_per_process=FLOOD_OPS_PER_PROCESS,
        seed=3,
    )
    seconds = time.perf_counter() - start
    network = result.cluster.network
    assert result.completed
    return network, (result.history.records, production_view(network)), seconds


def _run_relay_flood():
    network, fingerprint, seconds = _relay_flood()
    return network.scheduler.events_processed, fingerprint, seconds


def _probe_polls():
    """Exact counts of one untimed run: ``(wait-probe evaluations, messages
    delivered, fingerprint)``; every probe handed to ``Process.wait_for``
    (``wait_until`` hands its own there too) is wrapped to count its
    evaluations."""
    polls = [0]
    original = Process.wait_for

    def counting_wait_for(self, probe, description=""):
        def counted():
            polls[0] += 1
            return probe()

        return original(self, counted, description)

    Process.wait_for = counting_wait_for
    try:
        network, fingerprint, _seconds = _relay_flood()
    finally:
        Process.wait_for = original
    return polls[0], network.stats.messages_delivered, fingerprint


def test_sim_relay_flood_throughput(benchmark, bench_numbers):
    """Relay traffic at equal histories: seconds per run, elided duplicates,
    and probes polled ≥3x less often than on the reference."""
    numbers = bench_once(benchmark, _interleaved_seconds, _run_relay_flood)
    with reference_simulator():
        reference_polls, reference_delivered, reference = _probe_polls()
    polls, delivered, production = _probe_polls()
    # Deliveries included: the reference's minus those of the copies
    # production elides (see oracles.sim.production_view).
    assert production == reference
    stats = production[1]["stats"]
    assert stats["messages_delivered"] == delivered < reference_delivered
    speedup = numbers["reference"]["seconds"] / numbers["production"]["seconds"]
    bench_numbers(
        reference_relay_run_s=round(numbers["reference"]["seconds"], 6),
        relay_wall_s=round(numbers["production"]["seconds"], 6),
        relay_speedup=round(speedup, 2),
        reference_events=numbers["reference"]["events"],
        events=numbers["production"]["events"],
        deliveries=delivered,
        relay_duplicates_elided=stats["relay_duplicates_elided"],
        reference_probe_polls_per_delivery=round(reference_polls / reference_delivered, 4),
        probe_polls_per_delivery=round(polls / delivered, 4),
    )
    print()
    print(
        "sim relay flood ({} -> {} events, {} deliveries, {} duplicates elided): "
        "reference {:.3f} s -> production {:.3f} s per run ({:.2f}x); "
        "probe polls {} -> {}".format(
            numbers["reference"]["events"],
            numbers["production"]["events"],
            delivered,
            stats["relay_duplicates_elided"],
            numbers["reference"]["seconds"],
            numbers["production"]["seconds"],
            speedup,
            reference_polls,
            polls,
        )
    )
    assert 3 * polls <= reference_polls, (polls, reference_polls)
    assert numbers["production"]["seconds"] <= numbers["reference"]["seconds"], numbers
