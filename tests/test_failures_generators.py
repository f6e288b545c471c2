"""Tests for fail-prone-system generators (:mod:`repro.failures.generators`)."""

import random

import pytest

from repro.failures import (
    adversarial_partition_system,
    builtin_fail_prone_system,
    geo_replicated_system,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
    random_failure_pattern,
    ring_unidirectional_system,
)
from repro.quorums import discover_gqs, gqs_exists
from repro.registry import TOPOLOGIES

from oracles.graph import network


def test_random_failure_pattern_respects_max_crashes():
    rng = random.Random(0)
    pattern = random_failure_pattern(
        ["p0", "p1", "p2", "p3"], rng, crash_prob=1.0, disconnect_prob=0.0, max_crashes=2
    )
    assert len(pattern.crash_prone) <= 2


def test_random_failure_pattern_leaves_a_correct_process():
    rng = random.Random(1)
    pattern = random_failure_pattern(["p0", "p1"], rng, crash_prob=1.0, disconnect_prob=1.0)
    assert len(pattern.crash_prone) <= 1


def test_random_fail_prone_system_is_deterministic_for_seed():
    first = random_fail_prone_system(n=4, num_patterns=3, seed=7)
    second = random_fail_prone_system(n=4, num_patterns=3, seed=7)
    assert first.patterns == second.patterns


def test_random_fail_prone_system_shape():
    system = random_fail_prone_system(n=5, num_patterns=4, seed=3)
    assert len(system.processes) == 5
    assert len(system) == 4


def test_geo_replicated_system_structure():
    system = geo_replicated_system(sites=3, replicas_per_site=2)
    assert len(system.processes) == 6
    # one pattern per ordered pair of distinct sites
    assert len(system) == 6
    for pattern in system:
        assert not pattern.crash_prone
        assert pattern.disconnect_prone


def test_geo_replicated_partitions_are_one_directional():
    system = geo_replicated_system(sites=2, replicas_per_site=1)
    # With one replica per site, each pattern kills exactly the s_i -> s_j channels.
    for pattern in system:
        assert len(pattern.disconnect_prone) == 1


def test_ring_system_admits_gqs():
    system = ring_unidirectional_system(4)
    assert len(system) == 4
    assert len(system.processes) == 4
    # Every pattern allows channel failures and the system admits a GQS.
    assert all(f.disconnect_prone for f in system)
    assert gqs_exists(system)


def test_ring_system_scales_with_n():
    for n in (3, 5, 6):
        system = ring_unidirectional_system(n)
        assert len(system) == n
        assert gqs_exists(system), "ring(n={}) must admit a GQS".format(n)


def test_ring_system_rejects_tiny_rings():
    with pytest.raises(ValueError):
        ring_unidirectional_system(2)


def test_adversarial_partition_system_admits_gqs():
    system = adversarial_partition_system(4)
    assert len(system) == 3
    assert all(not f.crash_prone for f in system)
    assert gqs_exists(system)


def test_adversarial_partition_rejects_single_process():
    with pytest.raises(ValueError):
        adversarial_partition_system(1)


# ---------------------------------------------------------------------- #
# Production-size families
# ---------------------------------------------------------------------- #
def test_large_threshold_plain_windows():
    system = large_threshold_system(n=10, max_crashes=2, num_patterns=5)
    assert len(system.processes) == 10
    assert len(system) == 5
    for pattern in system:
        assert len(pattern.crash_prone) == 2
        assert not pattern.disconnect_prone
    assert gqs_exists(system)


def test_large_threshold_scales_to_hundreds():
    system = large_threshold_system(n=150, max_crashes=10, num_patterns=150)
    assert len(system.processes) == 150
    assert len(system) == 150
    assert gqs_exists(system)


def test_large_threshold_zoned_blackout_structure():
    system = large_threshold_system(
        n=18, max_crashes=2, num_patterns=6, zones=3, catastrophic=True
    )
    assert len(system) == 7  # 6 windows + the blackout
    blackout = system.patterns[-1]
    assert blackout.name == "blackout"
    # Window patterns drop the inter-zone fabric; the anchor zone never crashes.
    anchor = {p for p in system.processes if p not in blackout.crash_prone}
    assert len(anchor) >= 2
    for pattern in system.patterns[:-1]:
        assert pattern.disconnect_prone
        assert not (pattern.crash_prone & anchor)
    result = discover_gqs(system)
    assert result.exists
    # The blackout's witness lives inside the anchor zone (a chain singleton).
    assert result.choices[blackout].write_quorum <= anchor
    assert len(result.choices[blackout].write_quorum) == 1


def test_large_threshold_default_patterns_are_distinct():
    """Regression: the zoned default used to rotate n windows over the smaller
    non-anchor list, wrapping around and generating duplicate patterns."""
    for kwargs in (
        {"n": 12, "max_crashes": 2, "zones": 3},
        {"n": 30, "max_crashes": 4, "zones": 3, "catastrophic": True},
        {"n": 20, "max_crashes": 3},
    ):
        system = large_threshold_system(**kwargs)
        assert len(set(system.patterns)) == len(system.patterns), kwargs


def test_large_threshold_is_deterministic():
    a = large_threshold_system(n=24, max_crashes=3, num_patterns=8, zones=4, catastrophic=True)
    b = large_threshold_system(n=24, max_crashes=3, num_patterns=8, zones=4, catastrophic=True)
    assert a.patterns == b.patterns
    assert network(a) == network(b)


def test_large_threshold_validation():
    with pytest.raises(ValueError):
        large_threshold_system(n=10, max_crashes=10)
    with pytest.raises(ValueError):
        large_threshold_system(n=10, max_crashes=1, zones=0)
    with pytest.raises(ValueError):
        large_threshold_system(n=10, max_crashes=1, zones=1, catastrophic=True)
    with pytest.raises(ValueError):
        large_threshold_system(n=5, max_crashes=1, zones=4)


def test_multi_region_structure_and_gqs():
    system = multi_region_system(
        regions=3, replicas_per_region=3, primary_replicas=2, epochs=3
    )
    assert len(system.processes) == 2 + 2 * 3
    assert len(system) == 4  # 3 WAN epochs + the blackout
    blackout = system.patterns[-1]
    assert blackout.name == "blackout"
    primary = {p for p in system.processes if str(p).startswith("g0")}
    # WAN epochs never crash the primary; the blackout crashes everything else.
    for pattern in system.patterns[:-1]:
        assert not (pattern.crash_prone & primary)
        assert pattern.disconnect_prone
    assert blackout.crash_prone == frozenset(system.processes) - primary
    result = discover_gqs(system)
    assert result.exists
    for pattern in system.patterns:
        assert result.choices[pattern].write_quorum <= primary


def test_multi_region_without_blackout():
    system = multi_region_system(
        regions=3, replicas_per_region=2, epochs=2, catastrophic=False
    )
    assert len(system) == 2
    assert gqs_exists(system)


def test_multi_region_validation():
    with pytest.raises(ValueError):
        multi_region_system(regions=1)
    with pytest.raises(ValueError):
        multi_region_system(regions=3, replicas_per_region=1)
    with pytest.raises(ValueError):
        multi_region_system(regions=3, replicas_per_region=3, primary_replicas=1)
    with pytest.raises(ValueError):
        multi_region_system(regions=3, replicas_per_region=3, epochs=0)


def test_new_families_are_registered_everywhere():
    assert "large-threshold" in TOPOLOGIES
    assert "multi-region" in TOPOLOGIES
    assert len(builtin_fail_prone_system("large-threshold-30x4").processes) == 30
    zoned = builtin_fail_prone_system("large-threshold-30x4x3")
    assert zoned.patterns[-1].name == "blackout"
    assert len(builtin_fail_prone_system("multiregion-4x3").processes) == 2 + 3 * 3
