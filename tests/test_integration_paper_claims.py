"""End-to-end integration tests tying the code back to the paper's claims.

Each test states which paper claim it exercises; together they form the
"does the reproduction actually reproduce the paper" gate.
"""

import pytest

from repro.analysis import (
    figure1_fail_prone_system,
    figure1_modified_fail_prone_system,
    figure1_quorum_system,
)
from repro.checkers import (
    check_consensus,
    check_lattice_agreement,
    check_register_linearizability,
)
from repro.experiments import run_workload
from repro.failures import ring_unidirectional_system
from repro.quorums import discover_gqs, gqs_exists, strong_system_exists
from repro.sim import PartialSynchronyDelay


def test_theorem1_register_wait_freedom_inside_uf_figure1():
    """Theorem 1 (registers): wait-freedom inside U_f plus linearizability, per pattern."""
    gqs = figure1_quorum_system()
    for index, pattern in enumerate(gqs.fail_prone.patterns):
        result = run_workload("register", gqs, pattern=pattern, ops_per_process=2, seed=100 + index)
        assert result.completed
        assert bool(check_register_linearizability(result.history, initial_value=0))


def test_theorem1_lattice_agreement_inside_uf():
    """Theorem 1 (lattice agreement): termination inside U_f and the three properties."""
    gqs = figure1_quorum_system()
    pattern = gqs.fail_prone.patterns[2]
    result = run_workload("lattice", gqs, pattern=pattern, seed=42)
    assert result.completed
    assert check_lattice_agreement(result.history).ok


def test_theorem2_example9_no_gqs_for_modified_system():
    """Theorem 2 via Example 9: F' admits no GQS, hence no implementation exists."""
    assert not gqs_exists(figure1_modified_fail_prone_system())


def test_theorem5_consensus_under_partial_synchrony():
    """Theorem 5: consensus decides inside U_f under partial synchrony, for each pattern."""
    gqs = figure1_quorum_system()
    for index, pattern in enumerate(gqs.fail_prone.patterns):
        result = run_workload(
            "consensus",
            gqs,
            pattern=pattern,
            delay_model=PartialSynchronyDelay(gst=25.0, delta=1.0, seed=200 + index),
            seed=200 + index,
            max_time=4_000.0,
        )
        component = gqs.termination_component(pattern)
        verdict = check_consensus(result.history, required_to_terminate=component)
        assert result.completed and verdict.ok


def test_section1_gqs_weaker_than_strongly_connected_quorums():
    """§1: the Figure 1 system admits a GQS but no strongly connected quorum system."""
    system = figure1_fail_prone_system()
    assert gqs_exists(system)
    assert not strong_system_exists(system)


def test_classical_request_response_paxos_does_not_help():
    """The motivation for the new quorum access functions: request/response Paxos
    cannot decide under f1 even though the GQS consensus can."""
    gqs = figure1_quorum_system()
    f1 = gqs.fail_prone.patterns[0]
    baseline = run_workload("paxos", gqs, pattern=f1, max_time=700.0, seed=3)
    assert not baseline.completed


def test_ring_generalisation_scales_beyond_four_processes():
    """The Figure 1 construction generalises: the n=5 ring admits a GQS whose
    register protocol is live inside U_f."""
    system = ring_unidirectional_system(5)
    result = discover_gqs(system)
    assert result.exists
    gqs = result.quorum_system
    pattern = system.patterns[0]
    run = run_workload("register", gqs, pattern=pattern, ops_per_process=1, seed=11)
    assert run.completed
    assert bool(check_register_linearizability(run.history, initial_value=0))


def test_discovered_gqs_supports_protocols_on_random_admitting_system():
    """Discovery output is directly usable by the protocols (E8 in miniature)."""
    from repro.failures import adversarial_partition_system

    system = adversarial_partition_system(4)
    gqs = discover_gqs(system).quorum_system
    pattern = system.patterns[1]
    run = run_workload("register", gqs, pattern=pattern, ops_per_process=1, seed=21)
    assert run.completed
    assert bool(check_register_linearizability(run.history, initial_value=0))
