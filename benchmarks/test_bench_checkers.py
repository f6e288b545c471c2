"""Checker benchmarks: witness-first vs complete search, streaming reuse.

The trace subsystem makes the checkers a hot path of their own (``repro check``
re-judges whole directories of recorded histories), so this harness measures
them directly on the histories the register scenarios actually produce:

* the complete Wing–Gong search (the trusted slow path);
* the witness-first dependency-graph path
  (:func:`repro.checkers.check_register_witness_first`), which must deliver
  the same verdict while exploring a polynomial-size graph instead of a
  memoized exponential search — the harness asserts it explores fewer states
  and records both wall clocks (``bench_numbers``; judged by the conftest
  guard against ``BENCH_seed.json``, never by an in-test stopwatch);
* the streaming checker replaying a growing prefix, whose incremental closure
  re-uses all prior work instead of restarting the search per extension.
"""

from __future__ import annotations

import time

from repro.checkers import (
    StreamingRegisterChecker,
    check_register_linearizability,
    check_register_witness_first,
)
from repro.experiments import run_workload
from repro.scenarios import build_quorum_system, get_scenario

from conftest import bench_once


def _scenario_register_history(name, ops_per_process, seed=7):
    """A register history produced by a registry scenario's workload shape."""
    scenario = get_scenario(name)
    quorum_system = build_quorum_system(scenario)
    result = run_workload(
        "register",
        quorum_system,
        protocol_params=scenario.protocol.params,
        ops_per_process=ops_per_process,
        op_spacing=scenario.workload.op_spacing,
        max_time=scenario.workload.max_time,
        seed=seed,
    )
    assert result.completed
    return result.history


def _best_of(runs, func, *args, **kwargs):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        func(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best


def test_witness_first_beats_complete_search_on_scenario_history(benchmark, bench_numbers):
    """The acceptance gate of the trace PR: on a heavy-contention registry
    history the dependency-graph witness path must (a) agree with the complete
    search and (b) explore fewer states; both wall clocks are recorded."""
    history = _scenario_register_history("heavy-contention-register", ops_per_process=6)

    complete = check_register_linearizability(history, initial_value=0)
    witness = bench_once(benchmark, check_register_witness_first, history, initial_value=0)
    assert witness.is_linearizable == complete.is_linearizable
    assert witness.reason == "dependency-graph witness accepted"
    # The witness graph touches one node per operation; the complete search
    # memoizes far more states on a contended history.
    assert witness.explored_states < complete.explored_states

    witness_time = _best_of(3, check_register_witness_first, history, initial_value=0)
    complete_time = _best_of(3, check_register_linearizability, history, initial_value=0)
    print(
        "\nwitness-first: {:.6f}s ({} states)  complete search: {:.6f}s ({} states)".format(
            witness_time, witness.explored_states, complete_time, complete.explored_states
        )
    )
    bench_numbers(
        witness_first_wall_s=round(witness_time, 6),
        complete_search_wall_s=round(complete_time, 6),
    )


def test_complete_search_baseline(benchmark):
    """The complete search on the same history, for the comparison table."""
    history = _scenario_register_history("heavy-contention-register", ops_per_process=6)
    outcome = bench_once(benchmark, check_register_linearizability, history, initial_value=0)
    assert outcome.is_linearizable


def test_streaming_prefix_extension_reuses_closure(benchmark):
    """Replaying a growing history incrementally: one streaming checker fed
    record-by-record does the closure work once, while restarting the batch
    checker per prefix re-pays the whole search each time."""
    history = _scenario_register_history("unidirectional-ring", ops_per_process=4)
    records = sorted(history.records, key=lambda r: r.invoked_at)

    def incremental():
        checker = StreamingRegisterChecker(initial_value=0)
        for record in records:
            checker.append(record)
        return checker.check()

    outcome = bench_once(benchmark, incremental)
    assert outcome.is_linearizable == check_register_linearizability(
        history, initial_value=0
    ).is_linearizable
