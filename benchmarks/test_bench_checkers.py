"""Checker benchmarks: witness-first vs complete search, registers and snapshots.

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
* the same search on its second client, a snapshot scenario's
  ``write_then_scan`` history (``snapshot_search_wall_s``, recorded only).
"""

from __future__ import annotations

import time

from repro.checkers import (
    check_register_linearizability,
    check_register_witness_first,
    check_snapshot_linearizability,
)
from repro.experiments import run_workload
from repro.scenarios import build_quorum_system, get_scenario
from repro.types import sorted_processes

from conftest import bench_once


def _scenario_history(name, ops_per_process, seed=7):
    """The history (and quorum system) of a registry scenario's workload shape."""
    scenario = get_scenario(name)
    quorum_system = build_quorum_system(scenario)
    result = run_workload(
        scenario.protocol.kind,
        quorum_system,
        protocol_params=scenario.protocol.params,
        ops_per_process=ops_per_process,
        op_spacing=scenario.workload.op_spacing,
        max_time=scenario.workload.max_time,
        seed=seed,
    )
    assert result.completed
    return result.history, quorum_system


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
    history, _ = _scenario_history("heavy-contention-register", ops_per_process=6)

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
    history, _ = _scenario_history("heavy-contention-register", ops_per_process=6)
    outcome = bench_once(benchmark, check_register_linearizability, history, initial_value=0)
    assert outcome.is_linearizable


def test_snapshot_search_on_scenario_history(benchmark, bench_numbers):
    """The search's second client on the history a snapshot scenario produces
    (``write_then_scan``, four operations per process): wall clock recorded,
    never asserted.

    At four writes per process and the scenario's own ``op_spacing`` every
    process invokes its next write before the previous one returned, so the
    history is not well-formed and the verdict is negative — which makes the
    search exhaustive (tens of thousands of states instead of tens), the case
    worth timing.  The verdict is therefore not asserted either.
    """
    history, quorum_system = _scenario_history("adversarial-partition", ops_per_process=4)
    segments = sorted_processes(quorum_system.processes)

    outcome = bench_once(benchmark, check_snapshot_linearizability, history, segment_ids=segments)
    bench_numbers(
        snapshot_search_wall_s=round(
            _best_of(3, check_snapshot_linearizability, history, segment_ids=segments), 6
        ),
        snapshot_explored_states=outcome.explored_states,
    )
