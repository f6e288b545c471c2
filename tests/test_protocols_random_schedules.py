"""Randomized-schedule safety tests for the protocols.

Every seed produces a different interleaving of message deliveries and
operation invocations; across many seeds the protocols must always produce
linearizable register histories, comparable lattice outputs and agreeing
consensus decisions.  This is the simulation analogue of the paper's safety
theorems and complements the hand-crafted scenarios in the other test modules.
"""

import pytest

from repro.checkers import (
    check_consensus,
    check_lattice_agreement,
    check_register_linearizability,
)
from repro.experiments import run_workload
from repro.sim import PartialSynchronyDelay

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_register_linearizable_across_random_schedules(figure1_gqs, seed):
    pattern = figure1_gqs.fail_prone.patterns[seed % 4]
    result = run_workload(
        "register",
        figure1_gqs,
        pattern=pattern,
        ops_per_process=2,
        seed=1_000 + seed,
        op_spacing=5.0,
    )
    assert result.completed
    assert bool(check_register_linearizability(result.history, initial_value=0))


@pytest.mark.parametrize("seed", SEEDS)
def test_register_linearizable_with_heavy_concurrency(figure1_gqs, seed):
    """All invokers issue operations nearly simultaneously (op_spacing ~ one delay)."""
    result = run_workload(
        "register", figure1_gqs, pattern=None, ops_per_process=2, seed=2_000 + seed, op_spacing=1.5
    )
    assert result.completed
    assert bool(check_register_linearizability(result.history, initial_value=0))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_agreement_across_random_schedules(figure1_gqs, seed):
    pattern = figure1_gqs.fail_prone.patterns[seed % 4]
    result = run_workload("lattice", figure1_gqs, pattern=pattern, seed=3_000 + seed)
    assert result.completed
    verdict = check_lattice_agreement(result.history)
    assert verdict.ok, verdict.violations


@pytest.mark.parametrize("seed", range(4))
def test_consensus_agreement_across_random_schedules(figure1_gqs, seed):
    pattern = figure1_gqs.fail_prone.patterns[(seed + 1) % 4]
    result = run_workload(
        "consensus",
        figure1_gqs,
        pattern=pattern,
        delay_model=PartialSynchronyDelay(gst=15.0 + 10.0 * seed, delta=1.0, seed=4_000 + seed),
        seed=4_000 + seed,
        max_time=5_000.0,
    )
    assert result.completed
    verdict = check_consensus(
        result.history,
        required_to_terminate=figure1_gqs.termination_component(pattern),
    )
    assert verdict.ok, verdict.violations
