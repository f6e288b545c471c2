"""Differential battery: the mask-native Definition 2 validator vs the set-based one.

``GeneralizedQuorumSystem.check`` (and everything it is built from) runs on
:class:`~repro.graph.BitsetDiGraph` masks; ``oracles.predicates`` is the
set-based validator it replaced, written on ``oracles.graph`` reachability alone.
On the systems the discovery batteries already generate — plus a sweep of
larger random ones — both must agree on the discovered witness **and** on
mutated witnesses: accept or reject, exception class, and the offending pair
or pattern named in the message.  ``U_f`` must equal the Tarjan component.
Every witness is also built through discovery's mask hand-off
(``GeneralizedQuorumSystem._from_masks``), which must give the constructor's
families, per-pattern answers and verdicts.  Two hand-built witnesses pin the
validator's certificates to the scans they skip: quorums strictly inside
their components (the equality certificate misses, the scan decides) and
small quorums that miss each other (the size certificate cannot apply).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import InvalidQuorumSystemError, QuorumConsistencyError
from repro.failures import large_threshold_system, random_fail_prone_system
from repro.quorums import GeneralizedQuorumSystem, discover_gqs, is_f_available
from repro.types import sorted_processes

from oracles import predicates
from test_discovery_differential import _random_systems
from test_discovery_quotient import _battery_systems


def _systems():
    yield from _random_systems()
    for build, _ in _battery_systems():
        yield build()
    for seed in range(36):
        yield random_fail_prone_system(
            n=6 + seed % 3, num_patterns=3 + seed % 4, crash_prob=0.2,
            disconnect_prob=0.3, seed=9000 + seed,
        )


def _verdict(check, *args):
    """``None`` on accept, else ``(exception class, message)``."""
    try:
        check(*args)
    except InvalidQuorumSystemError as error:
        return type(error), str(error)
    return None


def _handed_off(system, reads, writes, validate=False):
    """``(R, W)`` through discovery's hand-off: encoded masks, nothing decoded."""
    mask_of = system.process_index.mask_of
    return GeneralizedQuorumSystem._from_masks(
        system, map(mask_of, reads), map(mask_of, writes), validate=validate
    )


def _assert_validators_agree(system, reads, writes):
    """Both validators on one ``(R, W)``, built by the constructor and by the
    mask hand-off; returns the shared verdict."""
    expected = _verdict(predicates.check, system, reads, writes)
    for library in (
        GeneralizedQuorumSystem(system, reads, writes, validate=False),
        _handed_off(system, reads, writes),
    ):
        assert _verdict(library.check) == expected, (system.describe(), reads, writes)
        assert library.is_valid() == (expected is None)
        # Several components may validate a pattern once Consistency is gone;
        # the library's families hold each quorum once, in first-seen order.
        unique_reads, unique_writes = list(dict.fromkeys(reads)), list(dict.fromkeys(writes))
        for pattern in system.patterns:
            assert library.available_pair(pattern) == predicates.available_pair(
                system, pattern, unique_reads, unique_writes
            )
            assert library.validating_write_quorums(pattern) == (
                predicates.validating_write_quorums(system, pattern, unique_reads, unique_writes)
            )
    assert _verdict(_handed_off, system, reads, writes, True) == expected
    return expected


def _mutants(system, reads, writes, rng):
    """Mutated witnesses: ``(label, reads, writes)`` with every quorum non-empty."""
    patterns = system.patterns
    # Drop one member of one quorum.
    for family_name in ("read", "write"):
        family = reads if family_name == "read" else writes
        position = rng.randrange(len(family))
        if len(family[position]) > 1:
            member = rng.choice(sorted_processes(family[position]))
            mutated = list(family)
            mutated[position] = family[position] - {member}
            yield (
                "drop-" + family_name,
                mutated if family_name == "read" else reads,
                mutated if family_name == "write" else writes,
            )
    # Swap a quorum across patterns: pattern i loses its own write quorum to
    # a second copy of pattern j's (and, separately, its read quorum).
    if len(patterns) > 1:
        i, j = rng.sample(range(len(patterns)), 2)
        swapped = list(writes)
        swapped[i] = writes[j]
        yield "swap-write", reads, swapped
        swapped = list(reads)
        swapped[i] = reads[j]
        yield "swap-read", swapped, writes
    # Add a process that the quorum's own pattern crashes.
    for i, pattern in enumerate(patterns):
        if pattern.crash_prone:
            crashed = rng.choice(sorted_processes(pattern.crash_prone))
            mutated = list(writes)
            mutated[i] = writes[i] | {crashed}
            yield "crashed-writer", reads, mutated
            mutated = list(reads)
            mutated[i] = reads[i] | {crashed}
            yield "crashed-reader", mutated, writes
            break


def test_validators_agree_on_discovered_and_mutated_witnesses():
    rng = random.Random(20250929)
    witnesses = 0
    rejected = {}
    for system in _systems():
        result = discover_gqs(system, validate=False)
        if not result.exists:
            continue
        witnesses += 1
        # discover_gqs hands the constructor one quorum per pattern, in order.
        reads = [result.choices[f].read_quorum for f in system.patterns]
        writes = [result.choices[f].write_quorum for f in system.patterns]
        assert _assert_validators_agree(system, reads, writes) is None
        for label, mutated_reads, mutated_writes in _mutants(system, reads, writes, rng):
            for ordered_reads, ordered_writes in (
                (mutated_reads, mutated_writes),
                # Family order decides *which* violation is reported first.
                (mutated_reads[::-1], mutated_writes[::-1]),
            ):
                verdict = _assert_validators_agree(system, ordered_reads, ordered_writes)
                if verdict is not None:
                    rejected.setdefault(verdict[0].__name__, set()).add(label)
    assert witnesses >= 100
    # The mutations must reach both rejection paths, or the battery only ever
    # compared two validators saying "fine".
    assert set(rejected) == {"QuorumConsistencyError", "QuorumAvailabilityError"}, rejected


def test_termination_components_and_validating_pairs_match_the_oracle():
    checked = 0
    for system in _systems():
        result = discover_gqs(system, validate=False)
        if not result.exists:
            continue
        gqs = result.quorum_system
        reads, writes = gqs.read_quorums, gqs.write_quorums
        for pattern in system.patterns:
            assert gqs.termination_component(pattern) == predicates.termination_component(
                system, pattern, reads, writes
            )
            assert gqs.available_pair(pattern) == predicates.available_pair(
                system, pattern, reads, writes
            )
            assert gqs.validating_write_quorums(pattern) == predicates.validating_write_quorums(
                system, pattern, reads, writes
            )
            checked += 1
    assert checked >= 300


def test_set_level_predicates_match_the_oracle_on_arbitrary_subsets():
    """The public ``is_f_available``, on quorums that are *not* whole components —
    including the empty quorum and one naming a process outside the system."""
    for system in itertools.islice(_random_systems(), 16):
        processes = sorted_processes(system.processes)
        subsets = [frozenset()] + [
            frozenset(c)
            for size in (1, 2, 3)
            for c in itertools.combinations(processes, size)
        ] + [frozenset({processes[0], "nobody"})]
        for pattern in system.patterns:
            for w in subsets:
                assert is_f_available(system, pattern, w) == predicates.is_f_available(
                    system, pattern, w
                ), (pattern, w)


def test_the_mask_hand_off_builds_the_constructor_witness():
    """``discover_gqs`` hands its chosen masks to the quorum system; the result
    must be the system the public constructor builds from the decoded quorums,
    family by family and in order, answering every per-pattern query alike."""
    witnesses = 0
    for system in _systems():
        result = discover_gqs(system)
        if not result.exists:
            continue
        witnesses += 1
        handed = result.quorum_system
        built = GeneralizedQuorumSystem(
            system,
            [result.choices[f].read_quorum for f in system.patterns],
            [result.choices[f].write_quorum for f in system.patterns],
        )
        for pattern in system.patterns:
            assert handed.available_pair(pattern) == built.available_pair(pattern)
            assert handed.validating_write_quorums(pattern) == built.validating_write_quorums(
                pattern
            )
            assert handed.termination_component(pattern) == built.termination_component(pattern)
        assert handed.read_quorums == built.read_quorums
        assert handed.write_quorums == built.write_quorums
        assert repr(handed) == repr(built)
    assert witnesses >= 100


# ---------------------------------------------------------------------- #
# Where a certificate does not apply, the scan decides
# ---------------------------------------------------------------------- #
def _count_scans(monkeypatch):
    """Count the per-pattern availability scans that the equality certificate did not spare."""
    scans = []
    scan = GeneralizedQuorumSystem._validating

    def counted(self, pattern):
        scans.append(pattern)
        return scan(self, pattern)

    monkeypatch.setattr(GeneralizedQuorumSystem, "_validating", counted)
    return scans


def test_quorums_strictly_inside_their_components_are_decided_by_the_scan(monkeypatch):
    """Crash-only ``n=7, k=1``: each residual is one component of six survivors.

    The discovered witness is those components, so the equality certificate
    decides every pattern; four-process quorums inside them leave it to the
    scan, which must still accept, and reject once every write quorum holds
    ``p0`` (pattern ``window-0`` crashes it).
    """
    system = large_threshold_system(n=7, max_crashes=1)
    scans = _count_scans(monkeypatch)
    assert discover_gqs(system).exists and not scans

    ring = sorted_processes(system.processes)
    quorums = [frozenset(ring[(i + j) % 7] for j in range(1, 5)) for i in range(7)]
    assert _assert_validators_agree(system, quorums, quorums) is None
    del scans[:]
    GeneralizedQuorumSystem(system, quorums, quorums, validate=False).check()
    assert scans == list(system.patterns)

    with_p0 = [quorum | {"p0"} for quorum in quorums]
    verdict = _assert_validators_agree(system, quorums, with_p0)
    assert verdict is not None and verdict[0].__name__ == "QuorumAvailabilityError"
    assert "window-0" in verdict[1]


def test_small_disjoint_quorums_are_named_as_before():
    """Read and write sizes summing to at most ``n`` get the scan, and the first
    non-intersecting pair in family order is named, after reads the size
    certificate passed."""
    system = large_threshold_system(n=7, max_crashes=1)
    ring = sorted_processes(system.processes)
    reads = [frozenset(ring[1:]), frozenset(ring[:2]), frozenset(ring[:3])]
    writes = [frozenset(ring[1:5]), frozenset(ring[2:4]), frozenset(ring[5:7])]
    verdict = _assert_validators_agree(system, reads, writes)
    assert verdict == (
        QuorumConsistencyError,
        "read quorum ['p0', 'p1'] does not intersect write quorum ['p2', 'p3']",
    )
    with pytest.raises(QuorumConsistencyError, match=r"^read quorum \['p0', 'p1'\] does not"):
        GeneralizedQuorumSystem(system, reads, writes)
