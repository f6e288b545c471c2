"""Set-based Definition 2 and QS+: availability predicates, validators and ``U_f``.

The pre-bitmask validator of :class:`~repro.quorums.GeneralizedQuorumSystem`,
kept word for word in what it accepts, what it raises and which offending
pair or pattern it names, so the production ``check`` can be compared against
it on accept/reject, exception class and message.  Beside it, the validator of
Section 1's QS+ (strongly connected read/write pairs), which the library only
decides (:func:`repro.quorums.strong_system_exists`) and never builds.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QuorumAvailabilityError, QuorumConsistencyError
from repro.failures import FailProneSystem, FailurePattern
from repro.types import ProcessId, ProcessSet, sorted_processes

from .graph import (
    is_strongly_connected,
    mutually_reachable,
    residual,
    set_reaches_set,
    strongly_connected_components,
)

Family = Sequence[ProcessSet]


def is_f_available(
    fail_prone: FailProneSystem, pattern: FailurePattern, quorum: Iterable[ProcessId]
) -> bool:
    """``quorum`` is all correct and mutually reachable in ``G \\ f``."""
    q = frozenset(quorum)
    if not q:
        return False
    correct = pattern.correct_processes(fail_prone.processes)
    if not q <= correct:
        return False
    return mutually_reachable(residual(fail_prone, pattern), q)


def is_f_reachable(
    fail_prone: FailProneSystem,
    pattern: FailurePattern,
    write_quorum: Iterable[ProcessId],
    read_quorum: Iterable[ProcessId],
) -> bool:
    """Both quorums are correct and every reader reaches every writer in ``G \\ f``."""
    w = frozenset(write_quorum)
    r = frozenset(read_quorum)
    if not w or not r:
        return False
    correct = pattern.correct_processes(fail_prone.processes)
    if not (w <= correct and r <= correct):
        return False
    return set_reaches_set(residual(fail_prone, pattern), r, w)


def consistency_violations(
    read_quorums: Family, write_quorums: Family
) -> List[Tuple[ProcessSet, ProcessSet]]:
    """Every ``(R, W)`` pair with an empty intersection, in family order."""
    return [(r, w) for r in read_quorums for w in write_quorums if not (r & w)]


def available_pair(
    fail_prone: FailProneSystem,
    pattern: FailurePattern,
    read_quorums: Family,
    write_quorums: Family,
) -> Optional[Tuple[ProcessSet, ProcessSet]]:
    """The first ``(read, write)`` pair validating Availability under ``pattern``."""
    for w in write_quorums:
        if not is_f_available(fail_prone, pattern, w):
            continue
        for r in read_quorums:
            if is_f_reachable(fail_prone, pattern, w, r):
                return r, w
    return None


def strong_available_pair(
    fail_prone: FailProneSystem,
    pattern: FailurePattern,
    read_quorums: Family,
    write_quorums: Family,
) -> Optional[Tuple[ProcessSet, ProcessSet]]:
    """The first ``(read, write)`` pair whose union is correct and strongly connected.

    QS+ Availability (Section 1): all of ``R ∪ W`` is mutually reachable in
    ``G \\ f``.
    """
    correct = pattern.correct_processes(fail_prone.processes)
    graph = residual(fail_prone, pattern)
    for w in write_quorums:
        for r in read_quorums:
            if r | w <= correct and is_strongly_connected(graph, r | w):
                return r, w
    return None


def _check(fail_prone, read_quorums, write_quorums, pair_under, unavailable) -> None:
    """Consistency first (the first non-intersecting pair in family order), then
    Availability (the first pattern in system order ``pair_under`` finds no pair for)."""
    bad_pairs = consistency_violations(read_quorums, write_quorums)
    if bad_pairs:
        r, w = bad_pairs[0]
        raise QuorumConsistencyError(
            "read quorum {} does not intersect write quorum {}".format(
                sorted_processes(r), sorted_processes(w)
            )
        )
    bad_patterns = [
        f for f in fail_prone if pair_under(fail_prone, f, read_quorums, write_quorums) is None
    ]
    if bad_patterns:
        raise QuorumAvailabilityError(unavailable.format(bad_patterns[0]))


def check(fail_prone: FailProneSystem, read_quorums: Family, write_quorums: Family) -> None:
    """Validate Definition 2 the set-based way, raising as the library does."""
    _check(
        fail_prone, read_quorums, write_quorums, available_pair,
        "no f-available write quorum reachable from a read quorum under pattern {!r}",
    )


def check_strong(fail_prone: FailProneSystem, read_quorums: Family, write_quorums: Family) -> None:
    """Validate QS+ (Consistency, then strongly connected Availability)."""
    _check(
        fail_prone, read_quorums, write_quorums, strong_available_pair,
        "no strongly connected read/write quorum pair under {!r}",
    )


def validating_write_quorums(
    fail_prone: FailProneSystem,
    pattern: FailurePattern,
    read_quorums: Family,
    write_quorums: Family,
) -> List[ProcessSet]:
    """Write quorums that are available and reachable from some read quorum."""
    return [
        w
        for w in write_quorums
        if is_f_available(fail_prone, pattern, w)
        and any(is_f_reachable(fail_prone, pattern, w, r) for r in read_quorums)
    ]


def termination_component(
    fail_prone: FailProneSystem,
    pattern: FailurePattern,
    read_quorums: Family,
    write_quorums: Family,
) -> ProcessSet:
    """``U_f``: the Tarjan SCC of ``G \\ f`` holding every validating write quorum.

    Empty when no write quorum validates Availability.  Proposition 1 puts the
    union inside one component for anything the validator accepts; a union
    straddling components trips the assertion.
    """
    validating = validating_write_quorums(fail_prone, pattern, read_quorums, write_quorums)
    union: FrozenSet[ProcessId] = frozenset().union(*validating)
    if not union:
        return frozenset()
    homes = [c for c in strongly_connected_components(residual(fail_prone, pattern)) if c & union]
    assert len(homes) == 1 and union <= homes[0], (pattern, union, homes)
    return homes[0]
