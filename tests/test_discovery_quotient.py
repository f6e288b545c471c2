"""Differential battery on symmetric inputs for the one discovery search.

``"pruned"``, ``"full"`` and ``"quotient"`` are three accepted names of the
same forward-checking search (the symmetry-quotiented search that used to sit
behind the third name lost every wall clock and was deleted; see
``CHANGES.md``).  What survives of its battery is the inputs: the
registered builders whose families are symmetric by construction and
randomized systems whose pattern families are closed under a randomly drawn
permutation — the only symmetric systems any battery sees.  On each of them
every name must give the same verdict, witness, candidate counts and
``nodes_explored``, and the search must agree with the independent oracles
of ``tests/oracles/discovery.py``.
"""

from __future__ import annotations

import random

import pytest

from oracles.discovery import discover_naive, gqs_exists_bruteforce
from repro.analysis import figure1_fail_prone_system, figure1_modified_fail_prone_system
from repro.failures import (
    FailProneSystem,
    FailurePattern,
    geo_replicated_system,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
    ring_unidirectional_system,
)
from repro.quorums import DISCOVERY_ALGORITHMS, candidate_pairs, discover_gqs
from repro.types import sorted_processes

#: The registered builders whose families have a non-trivial symmetry, with
#: sizes small enough for the naive cross-check yet large enough to have orbits.
SYMMETRIC_FAMILIES = [
    lambda: ring_unidirectional_system(5),
    lambda: ring_unidirectional_system(8),
    lambda: geo_replicated_system(sites=3, replicas_per_site=2),
    lambda: geo_replicated_system(sites=4, replicas_per_site=2),
    lambda: multi_region_system(regions=4, replicas_per_region=3),
    lambda: multi_region_system(regions=3, replicas_per_region=2, epochs=4),
    lambda: large_threshold_system(n=12, max_crashes=3),
    lambda: large_threshold_system(n=26, max_crashes=2, zones=3, catastrophic=True),
]


def image_of_pattern(sigma, pattern: FailurePattern) -> FailurePattern:
    """The image of a failure pattern: crash set and channels mapped pointwise."""
    channels = [(sigma[src], sigma[dst]) for src, dst in pattern.disconnect_prone]
    return FailurePattern([sigma[p] for p in pattern.crash_prone], channels, name=pattern.name)


def _symmetrized_random_system(seed: int) -> FailProneSystem:
    """A random system whose pattern family is closed under a random permutation.

    Draw a base system, draw a permutation of its processes and close the
    pattern family under the permutation's action (the network graph is
    complete, so any process bijection is a graph automorphism).  A shuffled
    identity permutation yields a trivial group — those cases stay in the
    battery on purpose, as the degenerate end of the sweep.
    """
    rng = random.Random(seed)
    base = random_fail_prone_system(
        n=rng.choice([4, 5, 6]),
        num_patterns=rng.choice([2, 3, 4]),
        crash_prob=0.25,
        disconnect_prob=0.3,
        seed=seed,
    )
    processes = sorted_processes(base.processes)
    images = list(processes)
    rng.shuffle(images)
    sigma = dict(zip(processes, images))
    closed = []
    for pattern in base.patterns:
        if pattern not in closed:
            closed.append(pattern)
    frontier = list(closed)
    while frontier:
        grown = []
        for pattern in frontier:
            image = image_of_pattern(sigma, pattern)
            if image not in closed:
                closed.append(image)
                grown.append(image)
        frontier = grown
    return FailProneSystem(base.processes, closed, name="symmetrized-{}".format(seed))


def _battery_systems():
    for build in SYMMETRIC_FAMILIES:
        yield build, build
    for seed in range(36):
        yield (lambda s=seed: _symmetrized_random_system(s),) * 2


def _assert_quotient_matches_full(build_system):
    """Fresh instance per algorithm, so neither feeds off the other's caches."""
    full = discover_gqs(build_system(), validate=False, algorithm="full")
    quotient = discover_gqs(build_system(), validate=False, algorithm="quotient")
    assert quotient.algorithm == "quotient"
    assert quotient.exists == full.exists
    assert quotient.nodes_explored <= full.nodes_explored
    if full.exists:
        assert set(quotient.choices) == set(full.choices)
        for pattern, choice in full.choices.items():
            assert quotient.choices[pattern].read_quorum == choice.read_quorum
            assert quotient.choices[pattern].write_quorum == choice.write_quorum
    return full, quotient


def _witness(result):
    return {f: (c.read_quorum, c.write_quorum) for f, c in result.choices.items()}


def test_every_algorithm_name_runs_the_one_search():
    """Verdict, witness, candidate counts AND ``nodes_explored``: a name selects nothing."""
    for build, _ in _battery_systems():
        results = [
            discover_gqs(build(), validate=False, algorithm=name)
            for name in DISCOVERY_ALGORITHMS
        ]
        assert [r.algorithm for r in results] == list(DISCOVERY_ALGORITHMS)
        for other in results[1:]:
            assert other.exists == results[0].exists
            assert _witness(other) == _witness(results[0])
            assert other.candidates_per_pattern == results[0].candidates_per_pattern
            assert other.nodes_explored == results[0].nodes_explored


@pytest.mark.parametrize("build", [build for build, _ in _battery_systems()])
def test_search_matches_the_oracles_on_symmetric_inputs(build):
    """The independent check: the prefix-only backtracker and, on small systems, the brute-forcer.

    The brute-forcer enumerates arbitrary subsets as quorums and backtracks
    without pruning; on these many-pattern families it is only affordable up
    to four processes (``ring-5`` takes 6 s, ``symmetrized-16`` — five
    processes, fifteen patterns — does not finish in minutes).
    """
    fast = discover_gqs(build())
    naive = discover_naive(build(), validate=False)
    assert fast.exists == naive.exists
    assert _witness(fast) == _witness(naive)
    assert fast.candidates_per_pattern == naive.candidates_per_pattern
    assert fast.nodes_explored <= naive.nodes_explored
    if len(fast.fail_prone.processes) <= 4:
        assert fast.exists == gqs_exists_bruteforce(build())


def test_quotient_matches_full_on_registered_symmetric_families():
    for build in SYMMETRIC_FAMILIES:
        full, _ = _assert_quotient_matches_full(build)
        assert full.exists, build().describe()


def test_quotient_matches_full_on_randomly_symmetrized_systems():
    admitted = 0
    symmetric = 0
    for build, _ in _battery_systems():
        full, _ = _assert_quotient_matches_full(build)
        admitted += int(full.exists)
        symmetric += len(set(full.fail_prone.patterns)) > 4  # closure added patterns
    # The sweep must exercise both verdicts on families that really are
    # closed under a non-trivial permutation, or it proves nothing.
    assert 0 < admitted < len(SYMMETRIC_FAMILIES) + 36
    assert symmetric > 0


def test_quotient_never_explores_more_nodes_than_full_on_plain_random_systems():
    """On plain random systems the names agree too."""
    for seed in range(20):
        system = random_fail_prone_system(
            n=5, num_patterns=4, crash_prob=0.2, disconnect_prob=0.35, seed=4000 + seed
        )
        full = discover_gqs(system, validate=False, algorithm="full")
        fresh = random_fail_prone_system(
            n=5, num_patterns=4, crash_prob=0.2, disconnect_prob=0.35, seed=4000 + seed
        )
        quotient = discover_gqs(fresh, validate=False, algorithm="quotient")
        assert quotient.exists == full.exists
        assert quotient.nodes_explored <= full.nodes_explored
        if full.exists:
            for pattern, choice in full.choices.items():
                assert quotient.choices[pattern].read_quorum == choice.read_quorum
                assert quotient.choices[pattern].write_quorum == choice.write_quorum


def test_quotient_rejects_figure1_modified_like_full():
    """Regression: unit propagation must cross-check same-wave forced patterns.

    On figure1-modified a single decision forces three other patterns to
    singleton candidates in one propagation wave; two of them (f1'->(c,c) and
    f4->(abd,ad)) are mutually incompatible, yet neither ever prunes the
    other's domain because both are assigned before either is popped as a
    source.  Without the explicit assigned-vs-assigned compatibility check
    the quotient search reported a bogus witness here while the full search
    correctly proved non-existence.
    """
    full, quotient = _assert_quotient_matches_full(figure1_modified_fail_prone_system)
    assert not full.exists
    assert not quotient.exists


def test_quotient_works_on_asymmetric_figure1():
    system = figure1_fail_prone_system()
    full = discover_gqs(figure1_fail_prone_system(), validate=False)
    quotient = discover_gqs(system, validate=False, algorithm="quotient")
    assert quotient.exists == full.exists == True  # noqa: E712
    assert quotient.nodes_explored == full.nodes_explored


def test_permuted_candidate_structures_match_direct_enumeration():
    """The cache a discovery leaves behind is byte-equal to direct enumeration.

    There is one candidate enumerator, so the warm cache of a system that was
    searched under the ``"quotient"`` name must be indistinguishable from what
    a cold system enumerates — same pairs, same order.
    """
    quotiented = multi_region_system(regions=5, replicas_per_region=3)
    discover_gqs(quotiented, validate=False, algorithm="quotient")
    direct = multi_region_system(regions=5, replicas_per_region=3)
    for pattern in dict.fromkeys(quotiented.patterns):
        fast = candidate_pairs(quotiented, pattern)  # served from the warm cache
        slow = candidate_pairs(direct, pattern)
        assert [(c.read_quorum, c.write_quorum) for c in fast] == [
            (c.read_quorum, c.write_quorum) for c in slow
        ]


def test_unknown_algorithm_is_rejected():
    with pytest.raises(Exception):
        discover_gqs(figure1_fail_prone_system(), algorithm="magic")


def test_full_alias_reports_itself():
    result = discover_gqs(figure1_fail_prone_system(), validate=False, algorithm="full")
    assert result.algorithm == "full"
    pruned = discover_gqs(figure1_fail_prone_system(), validate=False)
    assert pruned.algorithm == "pruned"
    assert result.nodes_explored == pruned.nodes_explored
    assert {f: (c.read_quorum, c.write_quorum) for f, c in result.choices.items()} == {
        f: (c.read_quorum, c.write_quorum) for f, c in pruned.choices.items()
    }
