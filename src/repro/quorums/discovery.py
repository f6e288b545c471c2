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
per-pattern candidate lists.  Candidates are enumerated on the memoized
bitmask view of each residual graph
(:meth:`repro.failures.FailProneSystem.residual_bitset`), pairwise
compatibility is evaluated with integer masks and memoized row-by-row, and the
search runs backtracking with *forward checking* — assigning a candidate
immediately prunes the viable-candidate domains of every unassigned pattern,
so a choice that dooms a later pattern fails at the assignment instead of
after an exponential subtree.  All derived per-pattern structures are cached
on the :class:`~repro.failures.FailProneSystem` itself, which is what makes
repeated discovery (repair search, classification sweeps) incremental.  Three
strategy names select how the search branches:

* ``algorithm="pruned"`` (the default): forward checking over every candidate
  of every pattern.
* ``algorithm="quotient"``: the pruned search additionally exploits the
  system's declared :class:`~repro.failures.SymmetryGroup` (when present).
  Candidate structures are computed once per pattern *orbit* and transported
  onto the other orbit members by mask permutation, and the search branches on
  *equivalence classes* of candidates — two candidates that a symmetry fixing
  the current partial assignment maps onto each other succeed or fail
  together, so only the class representative is tried.  Domains forced to a
  single candidate by forward checking are propagated as free assignments, so
  ``nodes_explored`` counts only genuine decisions.  On systems without a
  declared symmetry the search degrades to the pruned strategy.
* ``algorithm="full"``: an alias of the pruned strategy, named from the
  quotient search's perspective (no symmetry quotienting); useful to compare
  the two on equal terms in reports and benchmarks.

The quotient search returns the *same verdict and the same witness* as the
pruned/full search: the first solution depth-first search finds is the
lexicographically least one (patterns in search order, candidates in sorted
order), and at every decision the lexicographically least solution goes
through the lowest-indexed member of each candidate equivalence class — the
very representative the quotient search branches on.

All strategies see the same fully specified candidate order (read-quorum size
descending, then write-quorum size, then the sorted process lists), visit
patterns in the same order, and are deterministic: no output — witness
quorums, candidate order or ``nodes_explored`` — depends on
``PYTHONHASHSEED``.  The reference implementations the search is checked
against (set-based candidate enumeration, a prefix-only backtracker and a
brute-forcer over arbitrary subsets) live with the tests, in
``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import NoQuorumSystemExistsError
from ..failures import FailProneSystem, FailurePattern, SymmetryGroup
from ..graph import iter_bits, permute_mask, popcount
from ..types import ProcessSet
from .generalized import GeneralizedQuorumSystem

if TYPE_CHECKING:  # the decision layer runs without the engine
    from ..engine import ProgressCallback

#: Namespace under which per-pattern candidate structures are memoized on a
#: :class:`FailProneSystem` (see :meth:`FailProneSystem.analysis_cache`).
CANDIDATE_CACHE_NAMESPACE = "gqs-candidates"

#: The supported search strategies of :func:`discover_gqs`.  ``"full"`` is an
#: alias of ``"pruned"`` (the default), named from the quotient search's
#: perspective.
DISCOVERY_ALGORITHMS = ("pruned", "full", "quotient")


@dataclass(frozen=True)
class CandidateQuorumPair:
    """A candidate (read, write) quorum pair for one failure pattern.

    ``write_quorum`` is a whole SCC of the residual graph; ``read_quorum`` is
    the maximal set of residual-graph vertices that can reach it.
    """

    pattern: FailurePattern
    write_quorum: ProcessSet
    read_quorum: ProcessSet


@dataclass(frozen=True)
class _MaskedCandidate:
    """A candidate pair together with its bitmask encodings."""

    pair: CandidateQuorumPair
    read_mask: int
    write_mask: int


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
    #: Quotient-only accounting: number of distinct pattern orbits under the
    #: declared symmetry (= patterns whose candidates were computed directly),
    #: and number of candidate structures materialized by mask permutation
    #: from an orbit representative instead of from the residual graph.
    pattern_orbits: int = 0
    candidates_permuted: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.exists


def _candidate_sort_key(entry: _MaskedCandidate):
    """Total order on one pattern's candidates: no tie is left to traversal order.

    Larger read quorums intersect more write quorums, so they are tried first,
    then larger write quorums; remaining ties are broken by the sorted process
    list of the write quorum.  Bit positions are assigned in process sort
    order and the write quorums of one pattern are disjoint (they are SCCs),
    so comparing those lists is comparing lowest set bits — no process is
    decoded or ``repr``-ed.  Candidate order — and therefore the chosen
    witness and ``nodes_explored`` — is fully specified; the ``repr``-based
    key in ``tests/oracles/discovery.py`` pins the equivalence.
    """
    write = entry.write_mask
    return (-popcount(entry.read_mask), -popcount(write), write & -write)


def _masked_candidates(
    fail_prone: FailProneSystem, pattern: FailurePattern
) -> Tuple[_MaskedCandidate, ...]:
    """Candidates for ``pattern`` with bitmasks, memoized on the system."""
    cache = fail_prone.analysis_cache(CANDIDATE_CACHE_NAMESPACE)
    cached = cache.get(pattern)
    if cached is None:
        index = fail_prone.process_index
        residual = fail_prone.residual_bitset(pattern)
        entries: List[_MaskedCandidate] = []
        for component in residual.scc_masks():
            readers = residual.can_reach_mask(component)
            write_quorum = index.set_of(component)
            pair = CandidateQuorumPair(
                pattern=pattern,
                write_quorum=write_quorum,
                # A component nobody else reaches is its own reader set.
                read_quorum=write_quorum if readers == component else index.set_of(readers),
            )
            entries.append(_MaskedCandidate(pair, readers, component))
        entries.sort(key=_candidate_sort_key)
        cached = tuple(entries)
        cache[pattern] = cached
    return cached


def candidate_pairs(
    fail_prone: FailProneSystem, pattern: FailurePattern
) -> List[CandidateQuorumPair]:
    """Enumerate the canonical candidate quorum pairs for ``pattern``.

    One candidate per strongly connected component of the residual graph, in
    the fully specified order of :func:`_candidate_sort_key`.  Results are
    memoized on ``fail_prone`` and computed on its bitmask residual view.
    """
    return [entry.pair for entry in _masked_candidates(fail_prone, pattern)]


def _compatibility_rows(
    per_pattern: Sequence[Tuple[_MaskedCandidate, ...]]
) -> Callable[[int, int, int], int]:
    """The lazily materialized, memoized compatibility matrix of one search."""
    rows: Dict[Tuple[int, int, int], int] = {}

    def compatibility_row(i: int, ci: int, j: int) -> int:
        """Bitmask of pattern ``j`` candidates compatible with candidate ``ci`` of ``i``.

        Each row is computed at most once; the matrix is therefore
        materialized lazily but never re-evaluated in the search inner loop.
        """
        key = (i, ci, j)
        row = rows.get(key)
        if row is None:
            a = per_pattern[i][ci]
            row = 0
            for d, b in enumerate(per_pattern[j]):
                if (a.read_mask & b.write_mask) and (b.read_mask & a.write_mask):
                    row |= 1 << d
            rows[key] = row
        return row

    return compatibility_row


def _pruned_search(
    per_pattern: Sequence[Tuple[_MaskedCandidate, ...]], result: DiscoveryResult
) -> Optional[List[CandidateQuorumPair]]:
    """Forward-checking search over the memoized compatibility matrix.

    Domains are integer bitmasks over candidate indices.  Assigning a
    candidate intersects every unassigned pattern's domain with the
    candidate's compatibility row; an emptied domain fails the assignment on
    the spot (arc consistency with respect to the partial assignment), which
    is what prevents the exponential thrashing of a prefix-only backtracker on
    systems whose preferred candidates doom a much later pattern.
    """
    m = len(per_pattern)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: len(per_pattern[i]))
    compatibility_row = _compatibility_rows(per_pattern)

    # domain_stack[d] holds the candidate domains in force while searching at
    # depth d (one bitmask per pattern, original pattern indexing).
    domain_stack: List[List[int]] = [[(1 << len(cands)) - 1 for cands in per_pattern]]
    iterators = [iter_bits(domain_stack[0][order[0]])]
    assignment: List[int] = [-1] * m

    while iterators:
        depth = len(iterators) - 1
        i = order[depth]
        domains = domain_stack[depth]
        advanced = False
        for ci in iterators[depth]:
            result.nodes_explored += 1
            new_domains = list(domains)
            new_domains[i] = 1 << ci
            viable = True
            for later in range(depth + 1, m):
                j = order[later]
                pruned = domains[j] & compatibility_row(i, ci, j)
                if pruned == 0:
                    viable = False
                    break
                new_domains[j] = pruned
            if not viable:
                continue
            assignment[i] = ci
            if depth + 1 == m:
                return [per_pattern[k][assignment[k]].pair for k in range(m)]
            domain_stack.append(new_domains)
            iterators.append(iter_bits(new_domains[order[depth + 1]]))
            advanced = True
            break
        if not advanced:
            iterators.pop()
            domain_stack.pop()
    return None


def _quotient_candidates(
    fail_prone: FailProneSystem,
    patterns: Sequence[FailurePattern],
    result: DiscoveryResult,
    progress: Optional[ProgressCallback] = None,
) -> List[Tuple[_MaskedCandidate, ...]]:
    """Per-pattern candidates, computed once per pattern orbit.

    For every orbit of the declared symmetry the representative's candidates
    are enumerated from its residual graph as usual; the other orbit members'
    candidates are materialized by applying the orbit *transport* permutation
    (see :meth:`~repro.failures.SymmetryGroup.orbit_transports`) to the
    representative's masks.  Because the transport is an automorphism mapping
    the representative's residual graph onto the member's, the permuted masks
    are exactly the member's SCCs and reader closures — the entries land in
    the shared ``gqs-candidates`` cache byte-for-byte equal to what direct
    enumeration would produce, just without re-running Tarjan per member.
    """
    symmetry = fail_prone.symmetry
    cache = fail_prone.analysis_cache(CANDIDATE_CACHE_NAMESPACE)
    index = fail_prone.process_index
    transports = (
        symmetry.orbit_transports(patterns, index) if symmetry is not None else {}
    )
    result.pattern_orbits = len(
        {id(rep) for rep, _ in transports.values()}
    ) if transports else len(set(patterns))
    out: List[Tuple[_MaskedCandidate, ...]] = []
    for done, f in enumerate(patterns):
        cached = cache.get(f)
        if cached is None:
            rep, transport = transports.get(f, (f, None))
            if rep == f or transport is None or transport.is_identity():
                cached = _masked_candidates(fail_prone, f)
            else:
                # Per-bit permutation: a transport is applied to only a few
                # candidate masks, so the per-word lookup tables never pay off.
                perm = transport.perm
                entries: List[_MaskedCandidate] = []
                for entry in _masked_candidates(fail_prone, rep):
                    read = permute_mask(entry.read_mask, perm)
                    write = permute_mask(entry.write_mask, perm)
                    pair = CandidateQuorumPair(
                        pattern=f,
                        write_quorum=index.set_of(write),
                        read_quorum=index.set_of(read),
                    )
                    entries.append(_MaskedCandidate(pair, read, write))
                entries.sort(key=_candidate_sort_key)
                cached = tuple(entries)
                cache[f] = cached
                result.candidates_permuted += len(cached)
        out.append(cached)
        if progress is not None:
            progress(done + 1, len(patterns))
    return out


class _QuotientContext:
    """Symmetry bookkeeping for the quotient search.

    Precompiles, per declared generator, which patterns it fixes (by value)
    and — lazily — its action on the candidate indices of each fixed pattern.
    A generator *survives* a partial assignment when it fixes every assigned
    pattern together with its assigned candidate; surviving generators fixing
    the pattern being branched induce the candidate equivalence classes whose
    representatives the search tries.
    """

    def __init__(
        self,
        fail_prone: FailProneSystem,
        patterns: Sequence[FailurePattern],
        per_pattern: Sequence[Tuple[_MaskedCandidate, ...]],
    ) -> None:
        symmetry = fail_prone.symmetry
        self._per_pattern = per_pattern
        generators = symmetry.generators if symmetry is not None else ()
        self._bit_perms = (
            symmetry.bit_permutations(fail_prone.process_index)
            if symmetry is not None
            else []
        )
        self._fixes = [
            [SymmetryGroup.image_of_pattern(generator, f) == f for f in patterns]
            for generator in generators
        ]
        self._candidate_maps: Dict[Tuple[int, int], Optional[List[int]]] = {}

    def _candidate_map(self, g: int, i: int) -> Optional[List[int]]:
        """Action of generator ``g`` on candidate indices of (fixed) pattern ``i``.

        A generator fixing pattern ``i`` maps its residual graph onto itself,
        hence permutes its SCCs and therefore its candidates; the map is the
        induced permutation of candidate indices (``None`` defensively, if a
        permuted mask pair is somehow not a candidate).
        """
        key = (g, i)
        if key not in self._candidate_maps:
            perm = self._bit_perms[g]
            candidates = self._per_pattern[i]
            position = {
                (entry.read_mask, entry.write_mask): k
                for k, entry in enumerate(candidates)
            }
            mapping: Optional[List[int]] = []
            for entry in candidates:
                image = position.get(
                    (perm.apply(entry.read_mask), perm.apply(entry.write_mask))
                )
                if image is None:
                    mapping = None
                    break
                mapping.append(image)
            self._candidate_maps[key] = mapping
        return self._candidate_maps[key]

    def class_representatives(
        self, i: int, domain: int, assignment: Sequence[int]
    ) -> List[int]:
        """Lowest-index representatives of the candidate classes of pattern ``i``.

        Classes are orbits of the in-domain candidate indices under the
        generators surviving ``assignment`` that also fix pattern ``i``; each
        surviving generator is an automorphism of the remaining sub-problem,
        so all members of a class succeed or fail together and only the
        lowest-indexed one needs to be tried.
        """
        members = list(iter_bits(domain))
        if not self._bit_perms or len(members) <= 1:
            return members
        maps: List[List[int]] = []
        for g in range(len(self._bit_perms)):
            if not self._fixes[g][i]:
                continue
            survives = True
            for j, cj in enumerate(assignment):
                if cj < 0 or j == i:
                    continue
                if not self._fixes[g][j]:
                    survives = False
                    break
                candidate_map = self._candidate_map(g, j)
                if candidate_map is None or candidate_map[cj] != cj:
                    survives = False
                    break
            if survives:
                candidate_map = self._candidate_map(g, i)
                if candidate_map is not None:
                    maps.append(candidate_map)
        if not maps:
            return members
        in_domain = set(members)
        representatives: List[int] = []
        seen = set()
        for c in members:
            if c in seen:
                continue
            representatives.append(c)
            seen.add(c)
            frontier = [c]
            while frontier:
                grown = []
                for x in frontier:
                    for candidate_map in maps:
                        y = candidate_map[x]
                        if y in in_domain and y not in seen:
                            seen.add(y)
                            grown.append(y)
                frontier = grown
        return representatives


def _quotient_search(
    per_pattern: Sequence[Tuple[_MaskedCandidate, ...]],
    context: _QuotientContext,
    result: DiscoveryResult,
) -> Optional[List[CandidateQuorumPair]]:
    """Forward-checking search over candidate equivalence classes.

    Identical to :func:`_pruned_search` except that (a) each decision only
    tries the class representatives delivered by
    :meth:`_QuotientContext.class_representatives`, and (b) domains forced to
    a single candidate by forward checking are assigned by *unit propagation*
    without counting a node — ``nodes_explored`` counts genuine decision
    branches only.  Returns the same witness as the pruned search (see the
    module docstring for the argument).
    """
    m = len(per_pattern)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: len(per_pattern[i]))

    compatibility_row = _compatibility_rows(per_pattern)
    assignment = [-1] * m

    def propagate(i: int, ci: int, domains: Sequence[int]):
        """Assign ``ci`` to ``i``, forward-check, and chase singleton domains.

        Returns ``(new_domains, trail)`` — the trail lists every pattern
        assigned (decision plus propagated units, in assignment order) — or
        ``None`` after undoing the trail when some domain empties.
        """
        new_domains = list(domains)
        new_domains[i] = 1 << ci
        assignment[i] = ci
        trail = [i]
        queue = [i]
        while queue:
            src = queue.pop()
            csrc = assignment[src]
            for j in range(m):
                if j == src:
                    continue
                if assignment[j] >= 0:
                    # Two patterns forced to singletons by the same source are
                    # never pruned against each other — their mutual
                    # compatibility must be checked explicitly here.
                    if not (compatibility_row(src, csrc, j) >> assignment[j]) & 1:
                        for k in trail:
                            assignment[k] = -1
                        return None
                    continue
                pruned = new_domains[j] & compatibility_row(src, csrc, j)
                if pruned == 0:
                    for k in trail:
                        assignment[k] = -1
                    return None
                if pruned != new_domains[j]:
                    new_domains[j] = pruned
                    if pruned & (pruned - 1) == 0:
                        assignment[j] = pruned.bit_length() - 1
                        trail.append(j)
                        queue.append(j)
        return new_domains, trail

    def select() -> int:
        for i in order:
            if assignment[i] < 0:
                return i
        return -1

    domains = [(1 << len(candidates)) - 1 for candidates in per_pattern]
    # Initial unit propagation: patterns whose domain starts out singleton are
    # forced, not decided — assign them (and whatever they force in turn)
    # without counting nodes.  A conflict among forced assignments means no
    # solution at all.
    for i in range(m):
        if assignment[i] < 0 and domains[i] and domains[i] & (domains[i] - 1) == 0:
            outcome = propagate(i, domains[i].bit_length() - 1, domains)
            if outcome is None:
                return None
            domains = outcome[0]
    first = select()
    if first == -1:
        return [per_pattern[k][assignment[k]].pair for k in range(m)]
    # Stack frames: [pattern, representatives, next position, base domains,
    # trail of the currently active assignment (None between attempts)].
    stack: List[List] = [
        [first, context.class_representatives(first, domains[first], assignment), 0, domains, None]
    ]
    while stack:
        frame = stack[-1]
        i, representatives, pos, base, trail = frame
        if trail is not None:
            for k in trail:
                assignment[k] = -1
            frame[4] = None
        advanced = False
        while pos < len(representatives):
            ci = representatives[pos]
            pos += 1
            result.nodes_explored += 1
            outcome = propagate(i, ci, base)
            if outcome is not None:
                new_domains, trail = outcome
                frame[2] = pos
                frame[4] = trail
                nxt = select()
                if nxt == -1:
                    return [per_pattern[k][assignment[k]].pair for k in range(m)]
                stack.append(
                    [
                        nxt,
                        context.class_representatives(nxt, new_domains[nxt], assignment),
                        0,
                        new_domains,
                        None,
                    ]
                )
                advanced = True
                break
        if not advanced:
            stack.pop()
    return None


def discover_gqs(
    fail_prone: FailProneSystem,
    validate: bool = True,
    algorithm: str = "pruned",
    progress: Optional[ProgressCallback] = None,
) -> DiscoveryResult:
    """Search for a generalized quorum system over ``fail_prone``.

    Returns a :class:`DiscoveryResult`; when a GQS exists, ``quorum_system``
    holds the canonical witness built from the chosen per-pattern candidates.
    ``algorithm`` selects the search strategy (see the module docstring); all
    strategies return the same verdict and, on success, the same witness.
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

    if algorithm == "quotient":
        masked = _quotient_candidates(fail_prone, patterns, result, progress)
    else:  # "pruned" and its alias "full"
        masked = []
        for done, f in enumerate(patterns):
            masked.append(_masked_candidates(fail_prone, f))
            if progress is not None:
                progress(done + 1, len(patterns))
    for f, cands in zip(patterns, masked):
        result.candidates_per_pattern[f] = len(cands)
    if not all(masked):
        chosen = None
    elif algorithm == "quotient":
        context = _QuotientContext(fail_prone, patterns, masked)
        chosen = _quotient_search(masked, context, result)
    else:
        chosen = _pruned_search(masked, result)

    if chosen is None:
        return result

    result.exists = True
    result.choices = {c.pattern: c for c in chosen}
    read_quorums = [c.read_quorum for c in chosen]
    write_quorums = [c.write_quorum for c in chosen]
    result.quorum_system = GeneralizedQuorumSystem(
        fail_prone, read_quorums, write_quorums, validate=validate
    )
    return result


def gqs_exists(fail_prone: FailProneSystem) -> bool:
    """Return whether ``fail_prone`` admits a generalized quorum system."""
    return discover_gqs(fail_prone, validate=False).exists


def gqs_choice_exists(candidates_per_pattern: Sequence[Sequence[Tuple[int, int]]]) -> bool:
    """Mask-level existence core of the GQS decision.

    ``candidates_per_pattern`` holds, per failure pattern, the canonical
    ``(read_mask, write_mask)`` candidates — one per residual SCC, the write
    mask being the component and the read mask ``CanReach_f(S)`` — encoded
    over one shared :class:`~repro.graph.ProcessIndex`.  A GQS exists iff one
    candidate can be chosen per pattern with mutual read/write intersections
    for every pair, exactly the choice problem :func:`discover_gqs` solves;
    this entry point skips witness construction and is what the Monte Carlo
    shards run per sampled system.
    """
    if any(not candidates for candidates in candidates_per_pattern):
        return False
    order = sorted(
        range(len(candidates_per_pattern)),
        key=lambda i: len(candidates_per_pattern[i]),
    )
    chosen: List[Tuple[int, int]] = []

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        for read_mask, write_mask in candidates_per_pattern[order[depth]]:
            if all(
                (read_mask & prev_write) and (prev_read & write_mask)
                for prev_read, prev_write in chosen
            ):
                chosen.append((read_mask, write_mask))
                if backtrack(depth + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)


def find_gqs(fail_prone: FailProneSystem) -> GeneralizedQuorumSystem:
    """Return a GQS for ``fail_prone`` or raise :class:`NoQuorumSystemExistsError`."""
    result = discover_gqs(fail_prone)
    if not result.exists or result.quorum_system is None:
        raise NoQuorumSystemExistsError(
            "the fail-prone system {!r} admits no generalized quorum system".format(fail_prone)
        )
    return result.quorum_system


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
