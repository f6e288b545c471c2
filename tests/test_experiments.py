"""Tests for the experiment harnesses (workloads and tightness verification)."""

import pytest

from repro.checkers import check_register_linearizability
from repro.experiments import (
    compare_register_overhead,
    run_workload,
    verify_pattern,
    verify_tightness,
)
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import discover_gqs, threshold_quorum_system
from repro.sim import PartialSynchronyDelay


def test_register_workload_reports_metrics(figure1_gqs):
    result = run_workload("register", figure1_gqs, pattern=None, ops_per_process=1, seed=1)
    assert result.completed
    assert result.metrics.operations == len(figure1_gqs.processes)
    assert result.metrics.completed == result.metrics.operations
    assert result.metrics.mean_latency > 0
    assert result.metrics.messages_sent > 0


RING = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]


def test_workload_runs_on_the_systems_sparse_network():
    """A channel the network graph lacks carries no message, failure or not."""
    system = FailProneSystem(
        "abcd",
        [FailurePattern(name="ok"), FailurePattern([], [("c", "d")], name="cut")],
        channels=RING,
    )
    gqs = discover_gqs(system).quorum_system
    result = run_workload("register", gqs, seed=3)
    assert result.cluster.network.stats.messages_dropped_channel > 0  # every send off the ring
    assert result.completed
    assert check_register_linearizability(result.history).is_linearizable


@pytest.mark.parametrize("channels", [RING, None])
def test_workload_disconnects_exactly_the_channels_the_network_lacks(channels):
    """Before the first event; a complete network lacks none."""
    system = FailProneSystem("abcd", [FailurePattern(name="ok")], channels=channels)
    gqs = discover_gqs(system).quorum_system
    result = run_workload("register", gqs, ops_per_process=1, seed=3)
    lacking = {(p, q) for p in "abcd" for q in "abcd" if p != q} - set(channels or ())
    assert result.cluster.network._disconnected == (lacking if channels else set())


def test_register_workload_restricts_invokers_to_component(figure1_gqs):
    f2 = figure1_gqs.fail_prone.patterns[1]
    result = run_workload("register", figure1_gqs, pattern=f2, ops_per_process=1, seed=2)
    assert set(result.extra["invokers"]) == set(figure1_gqs.termination_component(f2))


def test_overhead_comparison_shows_extra_messages(threshold_3_1):
    runs = compare_register_overhead(threshold_3_1, ops_per_process=2, seed=4)
    classical = runs["classical_abd"]
    gqs = runs["gqs_register"]
    assert classical.completed and gqs.completed
    # The logical-clock machinery (CLOCK_REQ/RESP + periodic pushes) costs messages.
    assert gqs.metrics.messages_sent > classical.metrics.messages_sent
    assert bool(check_register_linearizability(classical.history, initial_value=0))
    assert bool(check_register_linearizability(gqs.history, initial_value=0))


@pytest.mark.parametrize(
    "knobs, named",
    [
        ({"push_interval": 0.25, "relay": False}, "'push_interval' or 'relay'"),
        ({"relay": True}, "'relay'"),
    ],
)
def test_classical_register_refuses_the_gqs_register_knobs(figure1_gqs, knobs, named):
    """They used to be dropped without a word: the run measured a knob that
    never reached a process."""
    from repro.errors import ReproError

    with pytest.raises(ReproError) as excinfo:
        run_workload("register", figure1_gqs, protocol_params=dict(knobs, classical=True))
    assert str(excinfo.value) == "protocol 'register': classical ABD takes no " + named


def test_snapshot_and_lattice_workloads_complete(figure1_gqs):
    snapshot = run_workload("snapshot", figure1_gqs, pattern=None, ops_per_process=1, seed=5)
    lattice = run_workload("lattice", figure1_gqs, pattern=None, seed=5)
    assert snapshot.completed and lattice.completed


def test_consensus_workload_records_decisions(figure1_gqs):
    result = run_workload(
        "consensus",
        figure1_gqs,
        pattern=None,
        delay_model=PartialSynchronyDelay(gst=10.0, delta=1.0, seed=6),
        seed=6,
    )
    assert result.completed
    assert len(result.extra["decided_values"]) == 1


def test_paxos_baseline_workload_failure_free(figure1_gqs):
    result = run_workload("paxos", figure1_gqs, pattern=None, max_time=800.0, seed=7)
    assert result.completed


def test_verify_pattern_register_only(figure1_gqs):
    f1 = figure1_gqs.fail_prone.patterns[0]
    verdict = verify_pattern(figure1_gqs, f1, ops_per_process=2, seed=8)
    assert verdict.register_live
    assert verdict.register_linearizable
    assert verdict.ok
    assert verdict.snapshot_live is None


def test_verify_tightness_for_figure1(figure1_system):
    report = verify_tightness(figure1_system, ops_per_process=2, seed=9)
    assert report.discovery.exists
    assert len(report.verdicts) == 4
    assert report.all_patterns_ok
    table = report.to_table()
    assert len(table.rows) == 4


#: E8 on Figure 1 with every object, seed 9, pinned from the commit before E8
#: ran through ``run_built_scenario`` (trailing blanks of the table stripped).
E8_FIGURE1_SEED9 = """\
E8: tightness verification for figure1
--------------------------------------
pattern  U_f  register live  register linearizable  snapshot ok  lattice ok
-------  ---  -------------  ---------------------  -----------  ----------
f1       a,b  True           True                   True         True
f2       b,c  True           True                   True         True
f3       c,d  True           True                   True         True
f4       a,d  True           True                   True         True"""


def test_verify_tightness_pins_every_object_on_figure1(figure1_system):
    report = verify_tightness(figure1_system, include_snapshot=True, include_lattice=True, seed=9)
    lines = [line.rstrip() for line in report.to_table().to_text().splitlines()]
    assert "\n".join(lines) == E8_FIGURE1_SEED9
    flags = [
        (v.register_live, v.register_linearizable, v.snapshot_live, v.snapshot_linearizable,
         v.lattice_live, v.lattice_correct)
        for v in report.verdicts
    ]
    assert flags == [(True,) * 6] * 4


def test_verify_tightness_reports_non_existence(figure1_modified_system):
    report = verify_tightness(figure1_modified_system)
    assert not report.discovery.exists
    assert report.verdicts == []


def test_verify_tightness_classical_threshold():
    system = FailProneSystem.crash_threshold(["a", "b", "c"], 1)
    report = verify_tightness(system, ops_per_process=1, seed=10)
    assert report.discovery.exists
    assert report.all_patterns_ok
