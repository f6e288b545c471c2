"""Batched bitmask Monte Carlo sampling — the shards every sweep runs.

Failure patterns are sampled *directly as integers* — one crash mask plus one
disconnect row per surviving source, drawn from the shard RNG — and the
GQS / QS+ / classical predicates are evaluated over forward closures and SCC
masks, so a shard of thousands of samples allocates a few small lists per
sample and nothing else: no :class:`FailurePattern`, no
:class:`FailProneSystem`, no graph objects.

What the masks compute, per sample:

* a write quorum is ``f``-available iff it lies inside one SCC mask of the
  residual graph, and the read quorums that reach it are exactly those inside
  the backward closure of that SCC;
* a read/write pair satisfies QS+ availability iff the union mask lies
  inside one SCC;
* the admissibility existence questions reduce to the per-pattern component /
  candidate choice problems decided by
  :func:`~repro.quorums.strong_choice_exists` and
  :func:`~repro.quorums.gqs_choice_exists`.

RNG discipline
--------------
The order of draws is part of the contract, because merged counters — and
therefore every sweep table and JSON byte — are a function of
``(seed, samples, chunk_size)`` alone: one crash draw per process in
iteration order (stopping early at the crash limit where there is one), one
extra draw only to revive a uniformly chosen process when all crashed, then
one disconnect draw per ordered pair of distinct survivors.  The object-level
reference samplers and shards in ``tests/oracles/montecarlo.py`` consume the
stream in exactly this order, and ``tests/test_montecarlo_differential.py``
compares the two draw for draw and counter for counter.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Optional, Sequence, Tuple

from ..engine import ExperimentSpec, ShardSpec
from ..graph import BitsetDiGraph, ProcessIndex, iter_bits
from ..quorums import gqs_choice_exists, strong_choice_exists
from .comparison import AdmissibilityPoint
from .reliability import ReliabilityEstimate


# ---------------------------------------------------------------------- #
# Mask-level pattern samplers
# ---------------------------------------------------------------------- #
def sample_reliability_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
) -> Tuple[int, Dict[int, int]]:
    """Sample one i.i.d. failure pattern, conditioned on at least one survivor.

    ``order`` lists bit positions in process iteration order; the returned
    ``(crash_mask, succ_clear)`` pair feeds
    :meth:`~repro.graph.BitsetDiGraph.residual_masks`.  A pattern that crashes
    *every* process is meaningless for availability, so the all-crashed draw
    is adjusted by un-crashing one position **chosen uniformly at random**
    (reviving a fixed position would give that process a systematically
    higher survival probability at high ``crash_prob``).  The adjustment
    spends one extra draw, and only in the all-crashed branch.
    """
    crashed = [pos for pos in order if rng.random() < crash_prob]
    if len(crashed) == len(order):
        crashed.pop(rng.randrange(len(crashed)))
    crash_mask = 0
    for pos in crashed:
        crash_mask |= 1 << pos
    survivors = [pos for pos in order if not crash_mask >> pos & 1]
    succ_clear: Dict[int, int] = {}
    for src in survivors:
        row = 0
        for dst in survivors:
            if src != dst and rng.random() < disconnect_prob:
                row |= 1 << dst
        if row:
            succ_clear[src] = row
    return crash_mask, succ_clear


def sample_admissibility_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
    max_crashes: Optional[int] = None,
) -> Tuple[int, Dict[int, int]]:
    """Mask-level form of :func:`repro.failures.random_failure_pattern`.

    Draw for draw the same stream: the crash loop stops *before* drawing for
    the next process once the crash limit is reached, exactly where the
    pattern-level sampler's ``break`` ends its per-process draws.
    """
    limit = len(order) - 1 if max_crashes is None else min(max_crashes, len(order) - 1)
    crash_mask = 0
    crashes = 0
    for pos in order:
        if crashes >= limit:
            break
        if rng.random() < crash_prob:
            crash_mask |= 1 << pos
            crashes += 1
    survivors = [pos for pos in order if not crash_mask >> pos & 1]
    succ_clear: Dict[int, int] = {}
    for src in survivors:
        row = 0
        for dst in survivors:
            if src != dst and rng.random() < disconnect_prob:
                row |= 1 << dst
        if row:
            succ_clear[src] = row
    return crash_mask, succ_clear


def _complete_bitset_graph(n: int) -> Tuple[ProcessIndex, BitsetDiGraph]:
    """A complete directed graph over ``n`` synthetic vertices.

    The admissibility samplers generate processes ``p0 .. p{n-1}`` over a
    complete network graph; since the existence predicates are invariant
    under vertex renaming, the shards number bits ``0 .. n-1`` in the
    generator's iteration order directly instead of re-deriving the
    repr-sorted order of the string names.
    """
    index = ProcessIndex(range(n))
    return index, BitsetDiGraph.complete(index)


# ---------------------------------------------------------------------- #
# Reliability (availability of fixed quorums)
# ---------------------------------------------------------------------- #
#: Per-quorum-system shard setup, shared across the (chunk-sized) shards of a
#: serial run.  Keyed weakly: parallel workers unpickle a fresh quorum system
#: per task, and its entry dies with it instead of accumulating.
_RELIABILITY_SETUP_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _reliability_setup(quorum_system):
    """(iteration order, base succ rows, read entries, write entries) for a shard.

    ``order`` lists bit positions in the sampler's process iteration order
    (``sorted(..., key=repr)``); each quorum entry pairs the quorum's
    mask with the tuple of its bit positions.
    """
    setup = _RELIABILITY_SETUP_CACHE.get(quorum_system)
    if setup is None:
        fail_prone = quorum_system.fail_prone
        index = fail_prone.process_index
        base = fail_prone.bitset_graph
        order = [index.position(p) for p in sorted(quorum_system.processes, key=repr)]
        base_rows = [base.successor_mask(i) for i in range(len(index))]
        bits = [1 << i for i in range(len(index))]
        not_bits = [~(1 << i) for i in range(len(index))]
        read_entries = [
            (mask, tuple(iter_bits(mask)))
            for mask in (index.mask_of(r) for r in quorum_system.read_quorums)
        ]
        write_entries = [
            (mask, tuple(iter_bits(mask)))
            for mask in (index.mask_of(w) for w in quorum_system.write_quorums)
        ]
        setup = (order, base_rows, bits, not_bits, read_entries, write_entries)
        _RELIABILITY_SETUP_CACHE[quorum_system] = setup
    return setup


def _reliability_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> ReliabilityEstimate:
    """Run one shard of a reliability estimate (executes inside a worker).

    The sampler and the three predicates are fused into one loop of integer
    operations — the per-sample cost is a handful of forward closures and mask
    intersections, with no graph or pattern objects at all.  The predicate
    arithmetic relies on per-survivor forward closures ``reach[v]``:

    * ``W`` is available iff ``W ⊆ ∩_{w∈W} reach[w]`` (mutual reachability);
    * every member of ``R`` reaches every member of ``W`` iff
      ``W ⊆ ∩_{r∈R} reach[r]``;
    * ``R ∪ W`` is strongly connected iff
      ``R∪W ⊆ (∩_{w∈W} reach[w]) ∩ (∩_{r∈R} reach[r])``.

    The per-quorum intersections are computed once per sample, making each
    read/write pair check O(1) mask work.
    """
    quorum_system = spec.params["quorum_system"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    rng = random.Random(shard.seed)
    rng_random = rng.random
    rng_randrange = rng.randrange
    order, base_rows, bits, not_bits, read_entries, write_entries = _reliability_setup(
        quorum_system
    )
    num_processes = len(order)
    gqs_count = strong_count = classical_count = 0
    reach = [0] * len(base_rows)
    # Reused across samples without zeroing: the closure loop only ever reads
    # rows of survivors, and every survivor's row is freshly written below.
    succ = [0] * len(base_rows)
    for _ in range(shard.samples):
        crash_mask = 0
        crash_count = 0
        for pos in order:
            if rng_random() < crash_prob:
                crash_mask |= bits[pos]
                crash_count += 1
        if crash_count == num_processes:
            # Revive a uniformly chosen process, as sample_reliability_masks
            # does; with all crashed, entry k of its crashed list is order[k].
            crash_mask &= not_bits[order[rng_randrange(num_processes)]]
        keep = ~crash_mask
        survivors = [pos for pos in order if keep & bits[pos]]
        for src in survivors:
            row = base_rows[src] & keep
            for dst in survivors:
                if src != dst and rng_random() < disconnect_prob:
                    row &= not_bits[dst]
            succ[src] = row
        correct_writes = [entry for entry in write_entries if not entry[0] & crash_mask]
        if not correct_writes:
            continue
        correct_reads = [entry for entry in read_entries if not entry[0] & crash_mask]
        if not correct_reads:
            continue
        classical_count += 1
        # Forward closures of every survivor at once, Floyd–Warshall style:
        # after round k, reach[v] holds the vertices reachable through
        # intermediates drawn from the first k survivors.
        for v in survivors:
            reach[v] = succ[v] | bits[v]
        for k in survivors:
            bit_k = bits[k]
            reach_k = reach[k]
            for v in survivors:
                if reach[v] & bit_k:
                    reach[v] |= reach_k
        read_inters = []
        for r_mask, r_bits in correct_reads:
            inter = -1
            for b in r_bits:
                inter &= reach[b]
            read_inters.append((r_mask, inter))
        gqs_ok = False
        strong_ok = False
        for w_mask, w_bits in correct_writes:
            w_inter = -1
            for b in w_bits:
                w_inter &= reach[b]
            available = not w_mask & ~w_inter
            for r_mask, r_inter in read_inters:
                if available and not w_mask & ~r_inter:
                    gqs_ok = True
                if not (w_mask | r_mask) & ~(w_inter & r_inter):
                    strong_ok = True
                    if gqs_ok:
                        break
            if gqs_ok and strong_ok:
                break
        if gqs_ok:
            gqs_count += 1
        if strong_ok:
            strong_count += 1
    estimate = ReliabilityEstimate(
        crash_prob=crash_prob, disconnect_prob=disconnect_prob, samples=shard.samples
    )
    estimate.gqs_available = gqs_count
    estimate.strong_available = strong_count
    estimate.classical_available = classical_count
    return estimate


# ---------------------------------------------------------------------- #
# Admissibility (existence of quorum conditions over random systems)
# ---------------------------------------------------------------------- #
def _classify_residual_masks(residuals: Sequence[BitsetDiGraph]) -> Tuple[bool, bool]:
    """(GQS exists, QS+ exists) for one sampled system given its residual masks."""
    components_per_pattern = [residual.scc_masks() for residual in residuals]
    strong = strong_choice_exists(components_per_pattern)
    generalized = gqs_choice_exists(
        [
            [(residual.can_reach_mask(component), component) for component in components]
            for residual, components in zip(residuals, components_per_pattern)
        ]
    )
    return generalized, strong


def _admissibility_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> AdmissibilityPoint:
    """Classify one shard's worth of random fail-prone systems (worker side).

    Like the reliability shard, sampling and evaluation are fused into integer
    loops: each pattern's residual is a list of successor rows, SCCs and reader
    closures are derived from per-survivor forward closures, and the existence
    questions first try the greedy choice (the largest component of every
    pattern — if those pairwise intersect, a QS+ and hence a GQS exist) before
    falling back to the exact backtrackers
    :func:`~repro.quorums.strong_choice_exists` /
    :func:`~repro.quorums.gqs_choice_exists`.
    """
    rng = random.Random(shard.seed)
    rng_random = rng.random
    n = spec.params["n"]
    num_patterns = spec.params["num_patterns"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    max_crashes = spec.params["max_crashes"]
    limit = n - 1 if max_crashes is None else min(max_crashes, n - 1)
    full = (1 << n) - 1
    point = AdmissibilityPoint(
        disconnect_prob=disconnect_prob,
        crash_prob=crash_prob,
        samples=shard.samples,
    )
    reach = [0] * n
    succ = [0] * n
    bits = [1 << i for i in range(n)]
    not_bits = [~(1 << i) for i in range(n)]
    for _ in range(shard.samples):
        allows_channel_failures = False
        components_per_pattern = []
        closures_per_pattern = []
        survivor_masks = []
        largest_per_pattern = []
        for _pattern in range(num_patterns):
            crash_mask = 0
            crashes = 0
            for pos in range(n):
                if crashes >= limit:
                    break
                if rng_random() < crash_prob:
                    crash_mask |= bits[pos]
                    crashes += 1
            survivor_mask = full & ~crash_mask
            survivors = [pos for pos in range(n) if survivor_mask & bits[pos]]
            for src in survivors:
                row = survivor_mask & not_bits[src]
                for dst in survivors:
                    if src != dst and rng_random() < disconnect_prob:
                        row &= not_bits[dst]
                        allows_channel_failures = True
                succ[src] = row
            # Forward closures, Floyd–Warshall style (see the reliability shard).
            for v in survivors:
                reach[v] = succ[v] | bits[v]
            for k in survivors:
                bit_k = bits[k]
                reach_k = reach[k]
                for v in survivors:
                    if reach[v] & bit_k:
                        reach[v] |= reach_k
            components = []
            largest = 0
            largest_size = -1
            remaining = survivor_mask
            while remaining:
                low = remaining & -remaining
                anchor = low.bit_length() - 1
                component = low
                rest = reach[anchor] & remaining & ~low
                while rest:
                    low2 = rest & -rest
                    if reach[low2.bit_length() - 1] >> anchor & 1:
                        component |= low2
                    rest ^= low2
                remaining &= ~component
                components.append(component)
                size = bin(component).count("1")
                if size > largest_size:
                    largest_size = size
                    largest = component
            components_per_pattern.append(components)
            closures_per_pattern.append(reach[:])
            survivor_masks.append(survivor_mask)
            largest_per_pattern.append(largest)
        greedy = all(
            largest_per_pattern[i] & largest_per_pattern[j]
            for i in range(num_patterns)
            for j in range(i + 1, num_patterns)
        )
        if greedy:
            generalized = strong = True
        else:
            strong = strong_choice_exists(components_per_pattern)
            if strong:
                generalized = True
            else:
                # Only now pay for the reader closures: readers(C) are the
                # survivors whose forward closure meets the component C.
                candidates_per_pattern = []
                for components, closures, survivor_mask in zip(
                    components_per_pattern, closures_per_pattern, survivor_masks
                ):
                    candidates = []
                    for component in components:
                        readers = component
                        outside = survivor_mask & ~component
                        while outside:
                            low3 = outside & -outside
                            if closures[low3.bit_length() - 1] & component:
                                readers |= low3
                            outside ^= low3
                        candidates.append((readers, component))
                    candidates_per_pattern.append(candidates)
                generalized = gqs_choice_exists(candidates_per_pattern)
        if generalized:
            point.generalized += 1
        if strong:
            point.strong += 1
        if (not allows_channel_failures) and strong:
            point.classical += 1
    return point


def _asymmetric_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int]:
    """Count (QS+, GQS) admissions in one shard of asymmetric-partition samples.

    The asymmetric-partition residual is built directly: the sampled window is
    a complete subgraph, the reader keeps a single channel into it, and every
    other channel between survivors is disconnected — so the residual rows are
    written down instead of subtracting a disconnect set from the complete
    graph.
    """
    rng = random.Random(shard.seed)
    n = spec.params["n"]
    num_patterns = spec.params["num_patterns"]
    window_size = spec.params["window_size"]
    size = window_size if window_size is not None else max(2, n // 2)
    processes = ["p{}".format(i) for i in range(n)]
    position = {p: i for i, p in enumerate(processes)}
    index, _ = _complete_bitset_graph(n)
    strong_count = 0
    generalized_count = 0
    for _ in range(shard.samples):
        residuals = []
        for _pattern in range(num_patterns):
            window = rng.sample(processes, size)
            outside = [p for p in processes if p not in window]
            reader = rng.choice(outside) if outside else None
            window_mask = 0
            for p in window:
                window_mask |= 1 << position[p]
            succ = [0] * n
            pred = [0] * n
            for p in window:
                i = position[p]
                succ[i] = pred[i] = window_mask & ~(1 << i)
            vertex_mask = window_mask
            if reader is not None:
                entry = position[rng.choice(window)]
                reader_pos = position[reader]
                vertex_mask |= 1 << reader_pos
                succ[reader_pos] = 1 << entry
                pred[entry] |= 1 << reader_pos
            residuals.append(BitsetDiGraph(index, vertex_mask, succ, pred))
        generalized, strong = _classify_residual_masks(residuals)
        if strong:
            strong_count += 1
        if generalized:
            generalized_count += 1
    return strong_count, generalized_count


__all__ = [
    "sample_admissibility_masks",
    "sample_reliability_masks",
]
