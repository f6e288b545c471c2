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
incremental candidate cache.  The search's size certificate is held to the
row-by-row reference search node for node, on random candidate lists and on
the large builder families whose sizes make it fire.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analysis import figure1_modified_fail_prone_system
from repro.failures import large_threshold_system, multi_region_system, random_fail_prone_system
from repro.quorums import (
    candidate_pairs,
    choose_candidates,
    discover_gqs,
    discovery,
    gqs_exists,
    harden_channels,
    strong_system_exists,
    suggest_channel_repairs,
)

from oracles import predicates
from oracles.discovery import (
    candidate_pairs_reference,
    choose_candidates_reference,
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
# The size certificate against the row-by-row reference search
# ---------------------------------------------------------------------- #
#: Mask sizes over 12 positions, per draw: large masks meet by size alone
#: (7 + 7 > 12), small ones rarely can, mixed draws give both kinds.
SIZE_REGIMES = (range(7, 12), range(1, 4), (2, 10))


def _random_candidate_lists(rng, sizes, patterns, empty):
    """``patterns`` lists of up to three ``(read, write)`` masks over 12 positions.

    A read mask holds its write mask, as a ``CanReach`` closure holds its
    component; with ``empty`` a list may have no candidate at all.
    """
    def mask():
        return sum(1 << p for p in rng.sample(range(12), rng.choice(sizes)))

    per_pattern = []
    for _ in range(patterns):
        candidates = []
        for _ in range(rng.randrange(0 if empty else 1, 4)):
            write = mask()
            candidates.append((write | mask(), write))
        per_pattern.append(candidates)
    return per_pattern


def _certified_share(per_pattern):
    """``"every"``, ``"none"`` or ``"some"``: how many rows the certificate spares.

    Only candidates with a later pattern count; the last pattern's rows are empty.
    """
    visited = sorted(per_pattern, key=len)
    shares = set()
    for cands, bits in zip(visited[:-1], discovery._size_certified(visited)):
        shares.update(bool(bits >> ci & 1) for ci in range(len(cands)))
    return {frozenset([True]): "every", frozenset([False]): "none"}.get(frozenset(shares), "some")


@pytest.mark.parametrize("certify_from", [0, discovery._CERTIFY_FROM_PATTERNS])
def test_size_certificate_explores_the_reference_nodes(monkeypatch, certify_from):
    """Same ``(choice, nodes_explored)`` as the search that builds every row.

    The lists cover all three shares of certified rows, lists with an empty
    pattern and both verdicts; with ``certify_from=0`` the certificate also
    runs on the short lists that the default threshold leaves to pairwise rows.
    """
    monkeypatch.setattr(discovery, "_CERTIFY_FROM_PATTERNS", certify_from)
    rng = random.Random(20261018)
    seen = {"every": 0, "none": 0, "some": 0, "empty": 0, "chosen": 0, "refused": 0}
    for trial in range(360):
        per_pattern = _random_candidate_lists(
            rng, SIZE_REGIMES[trial % 3], patterns=rng.randrange(2, 14), empty=trial % 10 == 0
        )
        choice, nodes = choose_candidates(per_pattern)
        assert (choice, nodes) == choose_candidates_reference(per_pattern), per_pattern
        if not all(per_pattern):
            seen["empty"] += 1
            assert (choice, nodes) == (None, 0)
            continue
        seen["chosen" if choice is not None else "refused"] += 1
        seen[_certified_share(per_pattern)] += 1
    assert choose_candidates([]) == choose_candidates_reference([]) == ([], 0)
    assert min(seen.values()) >= 10, seen


#: Builder families on both sides of the size certificate (crash-only windows
#: fire it, island candidates are too small), small enough for the naive search.
LARGE_FAMILIES = [
    lambda: large_threshold_system(n=16, max_crashes=3),
    lambda: large_threshold_system(n=9, max_crashes=4),  # 5 + 5 > 9: certified
    lambda: large_threshold_system(n=8, max_crashes=4),  # 4 + 4 = 8: scanned, refused
    lambda: large_threshold_system(n=18, max_crashes=2, zones=3),
    lambda: large_threshold_system(n=18, max_crashes=2, zones=3, catastrophic=True),
    lambda: large_threshold_system(n=24, max_crashes=2, num_patterns=10, zones=4, catastrophic=True),
    lambda: multi_region_system(regions=3, replicas_per_region=3),
    lambda: multi_region_system(regions=4, replicas_per_region=2, catastrophic=False),
    lambda: multi_region_system(regions=3, replicas_per_region=2, epochs=8),
]


@pytest.mark.parametrize("build", LARGE_FAMILIES)
def test_large_families_match_the_naive_search_and_the_set_validator(build):
    """Verdict and witness of the certified search and validator vs the references."""
    system = build()
    result = discover_gqs(system)
    naive = discover_naive(system, validate=False)
    assert result.exists == naive.exists, system.describe()
    assert result.candidates_per_pattern == naive.candidates_per_pattern
    assert result.nodes_explored <= naive.nodes_explored
    if not result.exists:
        return
    for pattern in system.patterns:
        assert result.choices[pattern].read_quorum == naive.choices[pattern].read_quorum
        assert result.choices[pattern].write_quorum == naive.choices[pattern].write_quorum
    gqs = result.quorum_system
    predicates.check(system, list(gqs.read_quorums), list(gqs.write_quorums))


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
