"""Differential property battery for the GQS decision procedure.

Three independent implementations must agree on randomized small systems:

* ``discover_gqs(..., algorithm="pruned")`` — the bitmask forward-checking
  search used in production;
* ``oracles.discovery.discover_naive`` — the reference backtracker with
  set-based candidate enumeration;
* ``oracles.discovery.gqs_exists_bruteforce`` — exhaustive enumeration over
  arbitrary subsets.

The same random systems compare :func:`strong_system_exists` — the production
search over the candidates ``(S, S)`` — with the set-based QS+ reference.  The
battery also pins the candidate enumeration (bitmask vs. Tarjan-based) to
byte-equality and checks :func:`suggest_channel_repairs` minimality under the
incremental candidate cache.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import figure1_modified_fail_prone_system
from repro.failures import random_fail_prone_system
from repro.quorums import (
    candidate_pairs,
    discover_gqs,
    gqs_exists,
    harden_channels,
    strong_system_exists,
    suggest_channel_repairs,
)

from oracles.discovery import (
    candidate_pairs_reference,
    discover_naive,
    gqs_exists_bruteforce,
    strong_system_exists_reference,
)

#: (n, num_patterns, crash_prob, disconnect_prob) regimes for the random sweep.
REGIMES = [
    (3, 2, 0.2, 0.3),
    (4, 3, 0.2, 0.3),
    (4, 4, 0.3, 0.5),
    (5, 3, 0.15, 0.25),
    (5, 5, 0.25, 0.4),
]


def _random_systems():
    for regime_index, (n, num_patterns, crash_prob, disconnect_prob) in enumerate(REGIMES):
        for seed in range(8):
            yield random_fail_prone_system(
                n=n,
                num_patterns=num_patterns,
                crash_prob=crash_prob,
                disconnect_prob=disconnect_prob,
                seed=1000 * regime_index + seed,
            )


def test_pruned_naive_and_bruteforce_agree_on_random_systems():
    checked = 0
    admitted = 0
    for system in _random_systems():
        pruned = discover_gqs(system, validate=False)
        naive = discover_naive(system, validate=False)
        brute = gqs_exists_bruteforce(system)
        assert pruned.exists == naive.exists == brute, system.describe()
        assert strong_system_exists(system) == strong_system_exists_reference(system), (
            system.describe()
        )
        checked += 1
        admitted += int(pruned.exists)
    assert checked == 5 * 8
    # The regimes must exercise both verdicts, or the battery proves nothing.
    assert 0 < admitted < checked


def test_pruned_and_naive_witnesses_are_identical_and_valid():
    for system in _random_systems():
        pruned = discover_gqs(system)
        naive = discover_naive(system)
        if not pruned.exists:
            continue
        assert pruned.quorum_system is not None and pruned.quorum_system.is_valid()
        assert naive.witness is not None  # and it passed the set-based check
        for pattern in system.patterns:
            assert pruned.choices[pattern].read_quorum == naive.choices[pattern].read_quorum
            assert pruned.choices[pattern].write_quorum == naive.choices[pattern].write_quorum


def test_forward_checking_never_explores_more_nodes_than_the_reference():
    for system in _random_systems():
        pruned = discover_gqs(system, validate=False)
        naive = discover_naive(system, validate=False)
        assert pruned.nodes_explored <= naive.nodes_explored, system.describe()


def test_bitmask_candidates_match_the_reference_enumeration():
    for system in _random_systems():
        for pattern in system.patterns:
            fast = candidate_pairs(system, pattern)
            slow = candidate_pairs_reference(system, pattern)
            assert [(c.read_quorum, c.write_quorum) for c in fast] == [
                (c.read_quorum, c.write_quorum) for c in slow
            ]


def test_candidate_order_is_fully_specified():
    """Ties on (|read|, |write|) are broken by the sorted process lists."""
    for system in _random_systems():
        for pattern in system.patterns:
            candidates = candidate_pairs(system, pattern)
            keys = [
                (
                    -len(c.read_quorum),
                    -len(c.write_quorum),
                    tuple(sorted(map(repr, c.write_quorum))),
                    tuple(sorted(map(repr, c.read_quorum))),
                )
                for c in candidates
            ]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)  # the order admits no ties at all


# ---------------------------------------------------------------------- #
# Repair under the incremental candidate cache
# ---------------------------------------------------------------------- #
def _intolerable_systems():
    yield figure1_modified_fail_prone_system()
    for seed in range(30):
        system = random_fail_prone_system(
            n=4, num_patterns=3, crash_prob=0.3, disconnect_prob=0.6, seed=7000 + seed
        )
        if not gqs_exists(system):
            yield system


def test_repair_suggestions_are_minimal_and_sufficient():
    suggestions_seen = 0
    for system in itertools.islice(_intolerable_systems(), 6):
        report = suggest_channel_repairs(system, max_channels=2)
        assert not report.already_tolerable
        for suggestion in report.suggestions:
            # Sufficient: hardening the suggested channels restores a GQS.
            assert gqs_exists(harden_channels(system, list(suggestion.channels)))
            # Minimal: no proper subset of the suggestion repairs the system.
            for size in range(1, len(suggestion.channels)):
                for subset in itertools.combinations(suggestion.channels, size):
                    assert not gqs_exists(harden_channels(system, list(subset)))
            suggestions_seen += 1
    assert suggestions_seen > 0


def test_repair_reuses_cached_candidates_for_untouched_patterns():
    system = figure1_modified_fail_prone_system()
    report = suggest_channel_repairs(system, max_channels=2)
    assert report.candidates_considered > 0
    # Every hardened variant leaves at least the crash-only patterns untouched,
    # so the incremental cache must have been hit.
    assert report.candidates_reused > 0
    # The incremental cache must not change the answer: a cache-cold rerun on a
    # freshly built system yields the same suggestions.
    cold = suggest_channel_repairs(figure1_modified_fail_prone_system(), max_channels=2)
    assert [s.channels for s in cold.suggestions] == [s.channels for s in report.suggestions]


def test_harden_channels_warm_cache_does_not_leak_stale_candidates():
    """A pattern whose disconnect set changes must be recomputed, not adopted."""
    system = figure1_modified_fail_prone_system()
    # Populate the cache for every pattern.
    discover_gqs(system, validate=False)
    touched_channel = ("a", "b")
    hardened = harden_channels(system, [touched_channel])
    for pattern in hardened.patterns:
        fast = candidate_pairs(hardened, pattern)
        slow = candidate_pairs_reference(hardened, pattern)
        assert [(c.read_quorum, c.write_quorum) for c in fast] == [
            (c.read_quorum, c.write_quorum) for c in slow
        ]
