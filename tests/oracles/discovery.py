"""Reference GQS decision procedures: set-based candidates, two slow searches.

* :func:`candidate_pairs_reference` — one candidate per Tarjan SCC of the
  residual graph with its ``can_reach`` closure, recomputed from scratch on
  every call (the pre-bitmask pipeline);
* :func:`discover_naive` — the seed backtracker: pairwise compatibility
  against the already-chosen prefix only, counting every candidate it tries;
* :func:`choose_candidates_reference` — the forward-checking search with
  every compatibility row built pair by pair, the node-for-node reference of
  ``repro.quorums.choose_candidates`` and its size certificate;
* :func:`gqs_exists_bruteforce` — exhaustive enumeration over arbitrary
  subsets, exponential in ``n`` and guarded accordingly;
* :func:`strong_system_exists_reference` — the QS+ decision over Tarjan SCCs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import and_
from typing import Dict, List, Optional, Sequence, Tuple

from repro.failures import FailProneSystem, FailurePattern
from repro.types import ProcessSet, sort_key, sorted_processes

from . import predicates
from .graph import can_reach, residual, strongly_connected_components


@dataclass(frozen=True)
class ReferenceCandidate:
    """A whole SCC as write quorum, everything that can reach it as read quorum."""

    pattern: FailurePattern
    write_quorum: ProcessSet
    read_quorum: ProcessSet


@dataclass
class NaiveResult:
    """Outcome of :func:`discover_naive`, field for field like ``DiscoveryResult``."""

    exists: bool = False
    choices: Dict[FailurePattern, ReferenceCandidate] = field(default_factory=dict)
    candidates_per_pattern: Dict[FailurePattern, int] = field(default_factory=dict)
    nodes_explored: int = 0
    #: ``(read quorums, write quorums)`` of the witness, pattern by pattern.
    witness: Optional[Tuple[List[ProcessSet], List[ProcessSet]]] = None


def _candidate_sort_key(candidate: ReferenceCandidate):
    """The production candidate order, restated: larger read quorums first, then
    larger write quorums, then the sorted process lists of write and read."""
    return (
        -len(candidate.read_quorum),
        -len(candidate.write_quorum),
        tuple(sort_key(p) for p in sorted_processes(candidate.write_quorum)),
        tuple(sort_key(p) for p in sorted_processes(candidate.read_quorum)),
    )


def candidate_pairs_reference(
    fail_prone: FailProneSystem, pattern: FailurePattern
) -> List[ReferenceCandidate]:
    """Set-based candidate enumeration for ``pattern``: Tarjan components and
    their ``can_reach`` closures, recomputed on every call."""
    graph = residual(fail_prone, pattern)
    candidates = [
        ReferenceCandidate(
            pattern=pattern, write_quorum=component, read_quorum=can_reach(graph, component)
        )
        for component in strongly_connected_components(graph)
        if component
    ]
    candidates.sort(key=_candidate_sort_key)
    return candidates


def _compatible(a: ReferenceCandidate, b: ReferenceCandidate) -> bool:
    """Mutual Consistency between the candidates chosen for two patterns."""
    return bool(a.read_quorum & b.write_quorum) and bool(b.read_quorum & a.write_quorum)


def _naive_search(
    per_pattern: Sequence[Sequence[ReferenceCandidate]], result: NaiveResult
) -> Optional[List[ReferenceCandidate]]:
    """Backtracking over patterns (fewest candidates first), prefix checks only."""
    order = sorted(range(len(per_pattern)), key=lambda i: len(per_pattern[i]))
    chosen: List[ReferenceCandidate] = []

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        for candidate in per_pattern[order[depth]]:
            result.nodes_explored += 1
            if all(_compatible(candidate, prev) for prev in chosen):
                chosen.append(candidate)
                if backtrack(depth + 1):
                    return True
                chosen.pop()
        return False

    return chosen if backtrack(0) else None


def _set_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    return (position for position in range(mask.bit_length()) if mask >> position & 1)


def choose_candidates_reference(
    per_pattern: Sequence[Sequence[Tuple[int, int]]]
) -> Tuple[Optional[List[int]], int]:
    """``(choice, nodes_explored)`` of forward checking with no certificate.

    The production search's order and contract — patterns fewest-candidates
    first, candidates as given, domains as bitmasks, a candidate's row of
    compatible later candidates built once — with every row compared pair by
    pair, so a size certificate that skips a row must land on the same node.
    """
    m = len(per_pattern)
    if m == 0:
        return [], 0
    order = sorted(range(m), key=lambda i: len(per_pattern[i]))
    visited = [per_pattern[i] for i in order]
    rows: Dict[Tuple[int, int], List[int]] = {}
    nodes = 0

    def compatibility_row(depth: int, ci: int) -> List[int]:
        row = rows.get((depth, ci))
        if row is None:
            read, write = visited[depth][ci]
            row = rows[depth, ci] = []
            for cands in visited[depth + 1:]:
                bits = 0
                for d, (r, w) in enumerate(cands):
                    if read & w and r & write:
                        bits |= 1 << d
                row.append(bits)
        return row

    domain_stack: List[List[int]] = [[(1 << len(cands)) - 1 for cands in visited]]
    iterators = [_set_bits(domain_stack[0][0])]
    assignment: List[int] = [-1] * m
    while iterators:
        depth = len(iterators) - 1
        later = domain_stack[depth][1:]
        for ci in iterators[depth]:
            nodes += 1
            pruned = list(map(and_, later, compatibility_row(depth, ci)))
            if 0 in pruned:
                continue
            assignment[order[depth]] = ci
            if not pruned:
                return assignment, nodes
            domain_stack.append(pruned)
            iterators.append(_set_bits(pruned[0]))
            break
        else:
            iterators.pop()
            domain_stack.pop()
    return None, nodes


def discover_naive(fail_prone: FailProneSystem, validate: bool = True) -> NaiveResult:
    """The reference search; with ``validate`` the witness passes the set-based check."""
    result = NaiveResult()
    per_pattern = []
    for f in fail_prone.patterns:
        candidates = candidate_pairs_reference(fail_prone, f)
        result.candidates_per_pattern[f] = len(candidates)
        per_pattern.append(candidates)
    chosen = _naive_search(per_pattern, result) if all(per_pattern) else None
    if chosen is None:
        return result
    result.exists = True
    result.choices = {c.pattern: c for c in chosen}
    result.witness = ([c.read_quorum for c in chosen], [c.write_quorum for c in chosen])
    if validate:
        predicates.check(fail_prone, *result.witness)
    return result


def gqs_exists_bruteforce(fail_prone: FailProneSystem, max_processes: int = 5) -> bool:
    """Decide GQS existence over *arbitrary subsets* as quorums.

    For every failure pattern all availability-validating ``(R, W)`` pairs are
    enumerated; the procedure then looks for one choice per pattern such that
    every chosen read quorum intersects every chosen write quorum.
    """
    processes = sorted_processes(fail_prone.processes)
    if len(processes) > max_processes:
        raise ValueError(
            "brute-force check limited to {} processes (got {})".format(
                max_processes, len(processes)
            )
        )
    subsets: List[ProcessSet] = []
    for size in range(1, len(processes) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(processes, size))

    per_pattern: List[List[Tuple[ProcessSet, ProcessSet]]] = []
    for f in fail_prone:
        pairs = [
            (r, w)
            for w in subsets
            if predicates.is_f_available(fail_prone, f, w)
            for r in subsets
            if predicates.is_f_reachable(fail_prone, f, w, r)
        ]
        if not pairs:
            return False
        per_pattern.append(pairs)

    chosen: List[Tuple[ProcessSet, ProcessSet]] = []

    def compatible(a, b) -> bool:
        return bool(a[0] & b[1]) and bool(b[0] & a[1]) and bool(a[0] & a[1]) and bool(b[0] & b[1])

    def backtrack(i: int) -> bool:
        if i == len(per_pattern):
            return True
        for pair in per_pattern[i]:
            if all(compatible(pair, prev) for prev in chosen):
                chosen.append(pair)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)


def strong_system_exists_reference(fail_prone: FailProneSystem) -> bool:
    """Decide QS+ existence: one SCC per pattern, pairwise intersecting."""
    per_pattern: List[List[ProcessSet]] = []
    for f in fail_prone:
        correct = f.correct_processes(fail_prone.processes)
        comps = [
            c for c in strongly_connected_components(residual(fail_prone, f)) if c <= correct and c
        ]
        if not comps:
            return False
        per_pattern.append(sorted(comps, key=len, reverse=True))

    chosen: List[ProcessSet] = []

    def backtrack(i: int) -> bool:
        if i == len(per_pattern):
            return True
        for comp in per_pattern[i]:
            if all(comp & prev for prev in chosen):
                chosen.append(comp)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)
