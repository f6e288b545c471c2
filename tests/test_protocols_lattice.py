"""Tests for single-shot lattice agreement and its semi-lattice helpers."""

import functools

import pytest

from repro.checkers import check_lattice_agreement
from repro.experiments import run_workload
from repro.protocols import LatticeAgreementProcess, SetLattice
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes


# --------------------------------------------------------------------------- #
# Semi-lattices
# --------------------------------------------------------------------------- #
def test_set_lattice_operations():
    lattice = SetLattice()
    assert lattice.bottom() == frozenset()
    assert lattice.join({"a"}, {"b"}) == frozenset({"a", "b"})
    assert lattice.leq({"a"}, {"a", "b"})
    assert not lattice.leq({"a", "b"}, {"a"})
    assert lattice.comparable({"a"}, {"a", "b"})
    assert not lattice.comparable({"a"}, {"b"})
    assert lattice.join_all([{"a"}, {"b"}, {"c"}]) == frozenset("abc")
    assert lattice.join_all([]) == frozenset()


def test_max_lattice_operations(max_lattice):
    assert max_lattice.join(3, 5) == 5
    assert max_lattice.leq(3, 5)
    assert max_lattice.comparable(3, 5)
    assert max_lattice.join_all([1, 7, 4]) == 7


# --------------------------------------------------------------------------- #
# Protocol behaviour
# --------------------------------------------------------------------------- #
def make_cluster(quorum_system, seed=0):
    return Cluster(
        sorted_processes(quorum_system.processes),
        functools.partial(LatticeAgreementProcess, quorum_system=quorum_system),
        UniformDelay(seed=seed),
    )


def test_single_proposal_returns_itself(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    handle = cluster.invoke("a", "propose", frozenset({"a"}))
    cluster.run_until_done([handle], max_time=600.0, require_completion=True)
    assert handle.result == frozenset({"a"})


def test_outputs_satisfy_lattice_agreement_failure_free(figure1_gqs):
    result = run_workload("lattice", figure1_gqs, pattern=None, seed=1)
    assert result.completed
    check = check_lattice_agreement(result.history)
    assert check.ok, check.violations


def test_outputs_satisfy_lattice_agreement_under_f1(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    result = run_workload("lattice", figure1_gqs, pattern=f1, seed=2)
    assert result.completed
    check = check_lattice_agreement(result.history)
    assert check.ok, check.violations
    # Under f1 only a and b are required to terminate, and they did.
    assert set(result.extra["invokers"]) == {"a", "b"}


def test_outputs_dominate_inputs(figure1_gqs):
    result = run_workload("lattice", figure1_gqs, pattern=None, seed=3)
    for record in result.history.complete_records():
        assert frozenset(record.argument) <= frozenset(record.result)


def test_outputs_bounded_by_join_of_inputs(figure1_gqs):
    result = run_workload("lattice", figure1_gqs, pattern=None, seed=4)
    all_inputs = frozenset().union(*(frozenset(r.argument) for r in result.history))
    for record in result.history.complete_records():
        assert frozenset(record.result) <= all_inputs


def test_concurrent_proposals_are_comparable(figure1_gqs):
    cluster = make_cluster(figure1_gqs, seed=5)
    handles = [
        cluster.invoke(pid, "propose", frozenset({pid}))
        for pid in sorted_processes(figure1_gqs.processes)
    ]
    cluster.run_until_done(handles, max_time=800.0, require_completion=True)
    outputs = [frozenset(handle.result) for handle in handles]
    for first in outputs:
        for second in outputs:
            assert first <= second or second <= first
