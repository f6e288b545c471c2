"""Deciding whether a fail-prone system admits a generalized quorum system.

The decision procedure mirrors the construction used in the paper's lower-bound
proof (Theorem 2).  For a failure pattern ``f`` the only real freedom in
building a validating quorum pair is *which strongly connected component* of
the residual graph ``G \\ f`` hosts the write quorum:

* any ``f``-available write quorum lives inside a single SCC ``S`` of
  ``G \\ f`` and can be enlarged to the whole of ``S``;
* any read quorum from which that write quorum is reachable can be enlarged to
  ``CanReach_f(S)``, the set of all (correct) vertices of ``G \\ f`` that can
  reach ``S``.

Enlarging quorums only helps Consistency, so a GQS exists **iff** one SCC
``S_f`` can be chosen per pattern such that ``CanReach_f(S_f) ∩ S_g ≠ ∅`` for
every ordered pair of patterns ``(f, g)``.

That choice problem is a binary constraint-satisfaction problem over the
per-pattern candidate lists.  A pattern's candidates are ``(CanReach(S), S)``
mask pairs read off the memoized bitmask view of its residual graph
(:meth:`repro.failures.FailProneSystem.residual_bitset`), which memoizes its
components and their reader closures; that residual is the one per-pattern
memo, a derived system (channel hardening, a membership delta) adopts it with
:meth:`~repro.failures.FailProneSystem.adopt_residuals`.  Nothing is decoded
into process sets on the way: the chosen ``(readers, S)`` masks are handed
straight to the witness quorum system, which validates them as masks, and
the witness and ``choices`` decode a quorum only when a caller reads it.
Pairwise compatibility is evaluated with integer masks and memoized one
vector per candidate, and the search runs backtracking with *forward
checking* — assigning a candidate immediately prunes the viable-candidate
domains of every unassigned pattern, so a choice that dooms a later pattern
fails at the assignment instead of after an exponential subtree.  The
search itself, :func:`choose_candidates`, works on bare masks: it also
decides QS+ (:func:`~repro.quorums.strong_system_exists`, candidates
``(S, S)``) and every sampled system of the Monte Carlo shards.

That is the one strategy: :data:`DISCOVERY_ALGORITHMS` lists three accepted
*names* (``"pruned"``, ``"full"``, ``"quotient"``) that are echoed in the
result and select nothing.  There is no orbit quotient over symmetric
families: with forward checking ``nodes_explored`` stays within a few per
cent of the number of patterns, so there is no backtracking for class
representatives to prune, and a quotient search with orbit-transported
candidates lost to this one on every wall clock measured (the table is in
``docs/quorums.md``).

The candidate order is fully specified (read-quorum size descending, then
write-quorum size, then the sorted process lists), patterns are visited
fewest-candidates-first, and the search is deterministic: no output — witness
quorums, candidate order or ``nodes_explored`` — depends on
``PYTHONHASHSEED``.  The reference implementations the search is checked
against (set-based candidate enumeration, a prefix-only backtracker and a
brute-forcer over arbitrary subsets) live with the tests, in
``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import and_, or_
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..failures import FailProneSystem, FailurePattern
from ..graph import ProcessIndex, iter_bits, popcount
from ..types import ProcessId, ProcessSet
from .generalized import GeneralizedQuorumSystem

if TYPE_CHECKING:  # the decision layer runs without the engine
    from ..engine import ProgressCallback

#: The accepted ``algorithm`` names of :func:`discover_gqs`.  ``"full"`` and
#: ``"quotient"`` are aliases of ``"pruned"`` (the default): the name is
#: validated and echoed in the result, and selects nothing.
DISCOVERY_ALGORITHMS = ("pruned", "full", "quotient")


@dataclass(frozen=True)
class CandidateQuorumPair:
    """A candidate (read, write) quorum pair for one failure pattern.

    ``write_quorum`` is a whole SCC of the residual graph; ``read_quorum`` is
    the maximal set of residual-graph vertices that can reach it.  The pair is
    held as its ``(readers, S)`` masks; each field is decoded into a process
    set when first read.
    """

    pattern: FailurePattern
    _index: ProcessIndex = field(repr=False, compare=False)
    _readers: int
    _component: int

    @cached_property
    def write_quorum(self) -> ProcessSet:
        return self._index.set_of(self._component)

    @cached_property
    def read_quorum(self) -> ProcessSet:
        # A component nobody else reaches is its own reader set.
        if self._readers == self._component:
            return self.write_quorum
        return self._index.set_of(self._readers)

    def sorted_pair(self) -> Tuple[List[ProcessId], List[ProcessId]]:
        """``(read_quorum, write_quorum)`` as lists in process order, decoded from the masks."""
        return self._index.sorted_list(self._readers), self._index.sorted_list(self._component)


@dataclass
class DiscoveryResult:
    """Outcome of a GQS search over a fail-prone system."""

    fail_prone: FailProneSystem
    exists: bool
    quorum_system: Optional[GeneralizedQuorumSystem] = None
    choices: Dict[FailurePattern, CandidateQuorumPair] = field(default_factory=dict)
    candidates_per_pattern: Dict[FailurePattern, int] = field(default_factory=dict)
    nodes_explored: int = 0
    algorithm: str = "pruned"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.exists


def _candidate_sort_key(candidate: Tuple[int, int]):
    """Total order on one pattern's ``(readers, S)`` candidates: no tie left to traversal.

    Larger read quorums intersect more write quorums, so they are tried first,
    then larger write quorums; remaining ties are broken by the sorted process
    list of the write quorum.  Bit positions are assigned in process sort
    order and the write quorums of one pattern are disjoint (they are SCCs),
    so comparing those lists is comparing lowest set bits — no process is
    decoded or ``repr``-ed.  Candidate order — and therefore the chosen
    witness and ``nodes_explored`` — is fully specified; the ``repr``-based
    key in ``tests/oracles/discovery.py`` pins the equivalence.
    """
    readers, write = candidate
    return (-popcount(readers), -popcount(write), write & -write)


def _candidates(fail_prone: FailProneSystem, pattern: FailurePattern) -> List[Tuple[int, int]]:
    """``(CanReach(S), S)`` per SCC ``S`` of the residual graph, in candidate order.

    Read off the memo of ``fail_prone.residual_bitset(pattern)``, which a
    derived system adopts together with the residual itself.
    """
    residual = fail_prone.residual_bitset(pattern)
    return sorted(zip(residual.reader_masks(), residual.scc_masks()), key=_candidate_sort_key)


def candidate_pairs(
    fail_prone: FailProneSystem, pattern: FailurePattern
) -> List[CandidateQuorumPair]:
    """Enumerate the canonical candidate quorum pairs for ``pattern``.

    One candidate per strongly connected component of the residual graph, in
    the fully specified order of :func:`_candidate_sort_key`, computed on the
    memoized bitmask residual view of ``fail_prone``.
    """
    index = fail_prone.process_index
    return [CandidateQuorumPair(pattern, index, *c) for c in _candidates(fail_prone, pattern)]


#: The least pattern count at which :func:`choose_candidates` pays for the size
#: certificate's pass over every candidate; below it the pass costs the Monte
#: Carlo shards' three-pattern searches more than it spares (docs/quorums.md).
_CERTIFY_FROM_PATTERNS = 8


def _size_certified(visited: Sequence[Sequence[Tuple[int, int]]]) -> List[int]:
    """Per visiting depth, the bitmask of candidates compatible with every later candidate.

    All masks lie inside their union of ``n`` positions, and two sets of
    sizes summing past ``n`` meet.  So a candidate whose read size plus the
    least later write size, and whose write size plus the least later read
    size, both exceed ``n`` meets every later candidate both ways: its
    compatibility row is the later patterns' full domains.  One pass from
    the last pattern back carries the least sizes seen so far.
    """
    n = popcount(reduce(or_, chain.from_iterable(chain.from_iterable(visited)), 0))
    least_read = least_write = n + 1  # nothing visited later: every row is empty
    certified = []
    for cands in reversed(visited):
        read_floor, write_floor = n - least_write, n - least_read
        bits = 0
        for ci, (read, write) in enumerate(cands):
            read_size, write_size = popcount(read), popcount(write)
            if read_size > read_floor and write_size > write_floor:
                bits |= 1 << ci
            least_read = min(least_read, read_size)
            least_write = min(least_write, write_size)
        certified.append(bits)
    certified.reverse()
    return certified


def choose_candidates(
    per_pattern: Sequence[Sequence[Tuple[int, int]]]
) -> Tuple[Optional[List[int]], int]:
    """Choose one mutually compatible candidate per pattern: ``(choice, nodes_explored)``.

    ``per_pattern`` holds, per failure pattern, ``(read_mask, write_mask)``
    candidates over one shared :class:`~repro.graph.ProcessIndex`; two
    candidates are compatible when each one's read mask meets the other's
    write mask.  The GQS choice of Theorem 2 offers ``(CanReach_f(S), S)``
    per residual SCC ``S``, QS+ offers ``(S, S)``.  ``choice`` lists the
    chosen candidate index of every pattern, or is ``None`` when no choice
    exists (a pattern without candidates included); ``nodes_explored`` counts
    every candidate tried.

    Backtracking with forward checking: domains are integer bitmasks over
    candidate indices, and assigning a candidate intersects every unassigned
    pattern's domain with its entry of the candidate's compatibility row (one
    bitmask per later pattern); an emptied domain fails the assignment on the
    spot (arc consistency with respect to the partial assignment), which is
    what prevents the exponential thrashing of a prefix-only backtracker on
    systems whose preferred candidates doom a much later pattern.  From
    :data:`_CERTIFY_FROM_PATTERNS` patterns on, a candidate that
    :func:`_size_certified` proves compatible with every later candidate
    keeps the domains as they are and builds no row; only the others are
    compared pair by pair, so the answer and ``nodes_explored`` do not
    change.  Patterns are visited fewest-candidates-first (ties by
    position), candidates in the given order.  Iterative, so a system with
    more patterns than the recursion limit is searched like any other.
    """
    m = len(per_pattern)
    if m == 0:
        return [], 0
    order = sorted(range(m), key=lambda i: len(per_pattern[i]))
    visited = [per_pattern[i] for i in order]
    certified = _size_certified(visited) if m >= _CERTIFY_FROM_PATTERNS else [0] * m
    rows: Dict[Tuple[int, int], List[int]] = {}
    nodes = 0

    def compatibility_row(depth: int, ci: int) -> List[int]:
        """Candidates compatible with candidate ``ci`` of the pattern visited at ``depth``.

        One bitmask per pattern visited after ``depth``, in visiting order.
        The order is static, so those patterns are fixed and one vector per
        candidate covers them all: the compatibility matrix is materialized
        lazily, a candidate at a time, and no vector is evaluated twice.
        """
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

    # domain_stack[d] holds the candidate domains in force while searching at
    # depth d: one bitmask per pattern visited at depth d or later.
    domain_stack: List[List[int]] = [[(1 << len(cands)) - 1 for cands in visited]]
    iterators = [iter_bits(domain_stack[0][0])]
    assignment: List[int] = [-1] * m

    while iterators:
        depth = len(iterators) - 1
        later = domain_stack[depth][1:]
        for ci in iterators[depth]:
            nodes += 1
            if certified[depth] >> ci & 1:
                # The domains stand, none empty: an empty one sorts first and
                # ends the search at depth 0, and a pruned one is never pushed.
                pruned = later
            else:
                pruned = list(map(and_, later, compatibility_row(depth, ci)))
                if 0 in pruned:
                    continue
            assignment[order[depth]] = ci
            if not pruned:
                return assignment, nodes
            domain_stack.append(pruned)
            iterators.append(iter_bits(pruned[0]))
            break
        else:
            iterators.pop()
            domain_stack.pop()
    return None, nodes


def discover_gqs(
    fail_prone: FailProneSystem,
    validate: bool = True,
    algorithm: str = "pruned",
    progress: Optional[ProgressCallback] = None,
) -> DiscoveryResult:
    """Search for a generalized quorum system over ``fail_prone``.

    Returns a :class:`DiscoveryResult`; when a GQS exists, ``quorum_system``
    holds the canonical witness built from the chosen per-pattern candidates.
    ``algorithm`` is a label (one of :data:`DISCOVERY_ALGORITHMS`) echoed in
    ``result.algorithm``; every name runs the same search.
    ``progress`` (``progress(done, total)``) is invoked after each pattern's
    candidate structures are enumerated — the phase that dominates wall time
    on large systems.
    """
    if algorithm not in DISCOVERY_ALGORITHMS:
        raise ValueError(
            "unknown discovery algorithm {!r}; expected one of {}".format(
                algorithm, DISCOVERY_ALGORITHMS
            )
        )
    patterns = list(fail_prone.patterns)
    result = DiscoveryResult(fail_prone=fail_prone, exists=False, algorithm=algorithm)

    masked = []
    for done, f in enumerate(patterns):
        masked.append(_candidates(fail_prone, f))
        if progress is not None:
            progress(done + 1, len(patterns))
    for f, cands in zip(patterns, masked):
        result.candidates_per_pattern[f] = len(cands)
    choice, result.nodes_explored = choose_candidates(masked)
    if choice is None:
        return result

    result.exists = True
    index = fail_prone.process_index
    chosen = [cands[ci] for cands, ci in zip(masked, choice)]
    result.choices = {
        f: CandidateQuorumPair(f, index, *candidate) for f, candidate in zip(patterns, chosen)
    }
    result.quorum_system = GeneralizedQuorumSystem._from_masks(
        fail_prone, [r for r, _ in chosen], [w for _, w in chosen], validate=validate
    )
    return result


def gqs_exists(fail_prone: FailProneSystem) -> bool:
    """Return whether ``fail_prone`` admits a generalized quorum system.

    A "yes" is a validated witness, like every other answer of this module.
    """
    return discover_gqs(fail_prone).exists


def classify_fail_prone_system(fail_prone: FailProneSystem) -> Dict[str, bool]:
    """Classify a fail-prone system by which quorum conditions it admits.

    Returns a dictionary with keys ``"classical"`` (a classical quorum system of
    all-correct quorums exists — only meaningful when the system has no channel
    failures, otherwise reported via the GQS specialisation), ``"strong"``
    (a QS+ with strongly connected availability exists) and ``"generalized"``
    (a GQS exists).  Used by the admissibility experiments (E6).
    """
    from .strong import strong_system_exists

    generalized = gqs_exists(fail_prone)
    strong = strong_system_exists(fail_prone)
    # A classical quorum system (Definition 1) additionally requires that the
    # fail-prone system has no channel failures at all; when it does, the
    # appropriate reading is "a quorum system of correct processes exists if we
    # ignore connectivity", which is exactly strong-availability on the
    # complete residual graph.  We report Definition 1 admissibility directly:
    classical = (not fail_prone.allows_channel_failures()) and strong
    return {"classical": classical, "strong": strong, "generalized": generalized}
