"""Tests for the Monte Carlo admissibility and reliability studies."""

import pytest

from repro.montecarlo import (
    AdmissibilityPoint,
    ReliabilityEstimate,
    admissibility_sweep,
    admissibility_table,
    asymmetric_admissibility_sweep,
    gqs_strictly_weaker_examples,
    reliability_sweep,
    reliability_table,
    sample_asymmetric_partition_system,
)
from repro.quorums import gqs_exists, strong_system_exists

from oracles.montecarlo import sample_fail_prone_system

import random


def test_sample_fail_prone_system_shape():
    rng = random.Random(0)
    system = sample_fail_prone_system(rng, n=4, num_patterns=3, crash_prob=0.2, disconnect_prob=0.3)
    assert len(system.processes) == 4
    assert len(system) == 3


def test_admissibility_sweep_hierarchy_holds():
    points = admissibility_sweep(
        disconnect_probs=(0.0, 0.3), n=4, num_patterns=2, crash_prob=0.2, samples=20, seed=1
    )
    assert len(points) == 2
    for point in points:
        assert 0.0 <= point.classical_fraction <= point.strong_fraction <= 1.0
        assert point.strong_fraction <= point.generalized_fraction <= 1.0


def test_admissibility_without_channel_failures_everything_coincides():
    points = admissibility_sweep(
        disconnect_probs=(0.0,), n=4, num_patterns=2, crash_prob=0.2, samples=20, seed=2
    )
    point = points[0]
    assert point.classical_fraction == point.strong_fraction == point.generalized_fraction


def test_admissibility_gap_appears_with_channel_failures():
    points = admissibility_sweep(
        disconnect_probs=(0.5,), n=4, num_patterns=3, crash_prob=0.1, samples=60, seed=3
    )
    point = points[0]
    # With heavy channel failures the GQS condition should admit strictly more
    # systems than the classical (channel-failure-free) condition.
    assert point.generalized_fraction > point.classical_fraction


def test_admissibility_table_rendering():
    points = admissibility_sweep(disconnect_probs=(0.2,), samples=5, n=4, num_patterns=2, seed=4)
    table = admissibility_table(points)
    assert "GQS" in table.to_text()
    assert len(table.rows) == 1


def test_gqs_strictly_weaker_witnesses_are_real():
    witnesses = gqs_strictly_weaker_examples(n=5, num_patterns=3, samples=120, seed=2)
    # The asymmetric-partition distribution regularly separates the conditions.
    assert witnesses
    for system in witnesses[:5]:
        assert gqs_exists(system)
        assert not strong_system_exists(system)


def test_sample_asymmetric_partition_system_shape():
    import random as _random

    from repro.montecarlo import sample_asymmetric_partition_system

    system = sample_asymmetric_partition_system(_random.Random(0), n=5, num_patterns=3)
    assert len(system.processes) == 5
    assert len(system) == 3
    assert all(f.disconnect_prone for f in system)


def test_sample_pattern_always_leaves_a_survivor():
    from oracles.montecarlo import sample_pattern as _sample_pattern

    processes = ["a", "b", "c", "d"]
    rng = random.Random(0)
    for _ in range(200):
        pattern = _sample_pattern(processes, rng, crash_prob=1.0, disconnect_prob=0.0)
        assert len(pattern.crash_prone) == len(processes) - 1


def test_sample_pattern_survivor_is_uniform_not_positional():
    """Regression: the all-crashed adjustment used to revive the *last* process
    in iteration order, so at crash_prob=1.0 one fixed process survived every
    single sample.  The adjustment must instead pick the survivor uniformly."""
    from oracles.montecarlo import sample_pattern as _sample_pattern

    processes = ["a", "b", "c", "d", "e"]
    rng = random.Random(123)
    samples = 1000
    survivor_counts = {p: 0 for p in processes}
    for _ in range(samples):
        pattern = _sample_pattern(processes, rng, crash_prob=1.0, disconnect_prob=0.0)
        (survivor,) = [p for p in processes if p not in pattern.crash_prone]
        survivor_counts[survivor] += 1
    expected = samples / len(processes)
    for process, count in survivor_counts.items():
        # Loose 3-sigma-ish band around the uniform expectation; the old
        # behaviour put all 1000 samples on one process.
        assert 0.6 * expected <= count <= 1.4 * expected, survivor_counts


def test_sample_pattern_non_degenerate_stream_unchanged():
    """The uniform-survivor fix draws extra randomness only in the all-crashed
    branch: with moderate crash probabilities the sampled patterns match the
    plain i.i.d. process."""
    from oracles.montecarlo import sample_pattern as _sample_pattern

    processes = ["a", "b", "c", "d"]
    # Seed 0 never draws the all-crashed branch in 50 samples, so the two
    # streams must stay in lockstep throughout.
    rng_a = random.Random(0)
    rng_b = random.Random(0)
    for _ in range(50):
        pattern = _sample_pattern(processes, rng_a, crash_prob=0.3, disconnect_prob=0.2)
        crashed = [p for p in processes if rng_b.random() < 0.3]
        survivors = [p for p in processes if p not in crashed]
        channels = frozenset(
            (src, dst)
            for src in survivors
            for dst in survivors
            if src != dst and rng_b.random() < 0.2
        )
        assert len(crashed) < len(processes)
        assert pattern.crash_prone == frozenset(crashed)
        assert pattern.disconnect_prone == channels


def test_reliability_estimates_ordering(figure1_gqs):
    (estimate,) = reliability_sweep(figure1_gqs, (0.3,), crash_prob=0.1, samples=80, seed=6)
    assert 0.0 <= estimate.gqs_availability <= estimate.classical_availability <= 1.0
    assert estimate.strong_availability <= estimate.gqs_availability


def test_reliability_sweep_and_table(figure1_gqs):
    estimates = reliability_sweep(
        figure1_gqs, disconnect_probs=(0.0, 0.4), crash_prob=0.0, samples=40, seed=7
    )
    assert len(estimates) == 2
    # With no failures at all, availability is total for every notion.
    assert estimates[0].gqs_availability == 1.0
    assert estimates[0].strong_availability == 1.0
    table = reliability_table(estimates)
    assert len(table.rows) == 2
    assert "GQS availability" in table.columns


def test_asymmetric_admissibility_sweep_table():
    from repro.montecarlo import asymmetric_admissibility_sweep

    table = asymmetric_admissibility_sweep(n_values=(4, 5), num_patterns=3, samples=20, seed=1)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row["strong (QS+)"] <= row["generalized (GQS)"] + 1e-9
        assert 0.0 <= row["generalized (GQS)"] <= 1.0


# --------------------------------------------------------------------- #
# Shard merging: counter tuples summed into the grid point (the engine
# refuses mis-routed shards before a merge sees them: see test_engine.py)
# --------------------------------------------------------------------- #
def test_study_merge_sums_counter_tuples_into_the_grid_point():
    from repro.montecarlo.comparison import ADMISSIBILITY, ASYMMETRIC_ADMISSIBILITY
    from repro.montecarlo.reliability import RELIABILITY

    (spec,) = RELIABILITY.specs((0.2,), 10, 0, 5, quorum_system=None, crash_prob=0.1)
    merged = RELIABILITY.merge(spec, [(5, 3, 2, 4), (5, 3, 1, 5)])
    assert merged == ReliabilityEstimate(0.1, 0.2, 10, 6, 3, 9)
    assert (merged.gqs_availability, merged.classical_availability) == (0.6, 0.9)
    (spec,) = ADMISSIBILITY.specs(
        (0.3,), 0, 0, None, crash_prob=0.2, n=4, num_patterns=2, max_crashes=None
    )
    assert ADMISSIBILITY.merge(spec, []) == AdmissibilityPoint(0.3, 0.2, 0)
    assert AdmissibilityPoint(0.3, 0.2, 0).strong_fraction == 0.0
    (spec,) = ASYMMETRIC_ADMISSIBILITY.specs((4,), 8, 0, 4, num_patterns=3, window_size=None)
    assert ASYMMETRIC_ADMISSIBILITY.merge(spec, [(4, 1, 3), (4, 1, 2)]) == {
        "n": 4, "samples": 8, "strong (QS+)": 0.25, "generalized (GQS)": 0.625, "gap": 0.375,
    }


@pytest.mark.parametrize("bad", [1.7, -0.5, float("nan")])
@pytest.mark.parametrize("where", ["disconnect_probs", "crash_prob"])
@pytest.mark.parametrize("study", ["admissibility", "reliability"])
def test_library_sweeps_refuse_probabilities_outside_the_unit_interval(
    monkeypatch, figure1_gqs, study, where, bad
):
    """They used to return a point labelled 1.7, report every sample available
    at -0.5, or end a nan in a false mis-routing error."""
    from repro.engine import ParallelRunner
    from repro.errors import ReproError

    def no_shard_may_run(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(ParallelRunner, "run_sharded", no_shard_may_run)
    kwargs = {"disconnect_probs": (0.1, bad)} if where == "disconnect_probs" else {
        "disconnect_probs": (0.1,), "crash_prob": bad,
    }
    with pytest.raises(ReproError, match=r"probabilities must lie in \[0, 1\]"):
        if study == "admissibility":
            admissibility_sweep(samples=4, **kwargs)
        else:
            reliability_sweep(figure1_gqs, samples=4, **kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: admissibility_sweep((0.2,), n=0, samples=4), "n >= 1"),
        (lambda: admissibility_sweep((0.2,), num_patterns=0, samples=4), "num_patterns >= 1"),
        (lambda: asymmetric_admissibility_sweep(n_values=(1,), samples=4), "got 2 with n 1"),
        (
            lambda: asymmetric_admissibility_sweep(n_values=(3,), window_size=5, samples=4),
            "got 5 with n 3",
        ),
        (lambda: gqs_strictly_weaker_examples(n=3, window_size=5, samples=4), "got 5 with n 3"),
        (
            lambda: sample_asymmetric_partition_system(random.Random(0), n=3, window_size=5),
            "got 5 with n 3",
        ),
        (
            lambda: sample_asymmetric_partition_system(random.Random(0), num_patterns=0),
            "num_patterns >= 1",
        ),
    ],
    ids=[
        "n=0", "num_patterns=0", "n=1", "window>n", "witness window>n",
        "sampled window>n", "sampled num_patterns=0",
    ],
)
def test_studies_refuse_sizes_no_sample_can_be_drawn_from(monkeypatch, call, message):
    """They used to end in a bare ``ValueError`` out of ``randrange`` or
    ``random.sample`` mid-run, or report an empty system as admitting all."""
    from repro.engine import ParallelRunner
    from repro.errors import ReproError

    def no_shard_may_run(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(ParallelRunner, "run_sharded", no_shard_may_run)
    with pytest.raises(ReproError, match=message):
        call()


# --------------------------------------------------------------------- #
# Statistical-shape regression: fixed-seed curves pinned to the values
# the set-based reference engine (now ``oracles.montecarlo``) produced when
# this suite was written.  The production shards must keep reproducing them.
# --------------------------------------------------------------------- #
def test_pinned_reliability_counters(figure1_gqs):
    (estimate,) = reliability_sweep(figure1_gqs, (0.3,), crash_prob=0.1, samples=2000, seed=5)
    assert estimate.gqs_available == 1682
    assert estimate.strong_available == 1611
    assert estimate.classical_available == 1891


def test_pinned_admissibility_curve():
    points = admissibility_sweep(
        disconnect_probs=(0.0, 0.2, 0.4),
        n=5,
        num_patterns=3,
        crash_prob=0.2,
        samples=60,
        seed=3,
    )
    assert [(p.generalized, p.strong, p.classical) for p in points] == [
        (59, 59, 59),
        (59, 59, 0),
        (57, 57, 0),
    ]


def test_pinned_asymmetric_curve():
    from repro.montecarlo import asymmetric_admissibility_sweep

    table = asymmetric_admissibility_sweep(n_values=(4, 5), num_patterns=3, samples=50, seed=2)
    assert [
        (row["n"], row["strong (QS+)"], row["generalized (GQS)"]) for row in table.rows
    ] == [(4, 1.0, 1.0), (5, 0.84, 0.86)]


def test_cli_sweep_json_is_hash_seed_independent():
    """`repro sweep --format json` twice under different hash seeds: the
    batched engine's output must be a pure function of the seed (extends the
    determinism battery to the Monte Carlo path): a row of ``tests/determinism.py``."""
    from determinism import ROWS_BY_NAME, verify

    out = verify(ROWS_BY_NAME["sweep-all-json"])
    assert b'"admissibility"' in out and b'"reliability"' in out
