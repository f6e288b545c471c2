"""Batched bitmask Monte Carlo sampling — the shards every sweep runs.

Each shard returns a plain ``(samples, *counters)`` tuple, which the study's
one merge (:class:`~repro.montecarlo.study.Study`) sums per grid point.

Failure patterns are sampled *directly as integers* by one kernel,
:func:`_sample_residual`: a crash mask, then one successor row per survivor,
then — only if a channel actually failed — predecessor rows and the strongly
connected components, from the same closure / SCC routines
(:func:`~repro.graph.closure_mask`, :func:`~repro.graph.component_masks`) the
decision layer runs.  A residual in which no channel failed is complete on the
survivors, so its one component is the survivor mask and nothing is computed;
a strongly connected one costs two early-exiting closures.  No
:class:`FailurePattern`, no :class:`FailProneSystem`, no graph objects.

What the masks compute, per sample:

* a write quorum is ``f``-available iff it lies inside one SCC mask of the
  residual graph, and the read quorums that reach it are exactly those inside
  the backward closure of that SCC;
* a read/write pair satisfies QS+ availability iff the union mask lies
  inside one SCC;
* the admissibility existence questions reduce to the per-pattern candidate
  choice problem that :func:`~repro.quorums.choose_candidates` decides for
  discovery too: candidates ``(S, S)`` for QS+ and ``(CanReach(S), S)`` for
  a GQS.

RNG discipline
--------------
The order of draws is part of the contract, because merged counters — and
therefore every sweep table and JSON byte — are a function of
``(seed, samples, chunk_size)`` alone: one crash draw per process in
iteration order (stopping early at the crash limit where there is one), one
extra draw only to revive a uniformly chosen process when all crashed, then
one disconnect draw per ordered pair of distinct survivors — also where a
sparse network graph has no such channel.  All of them happen in
:func:`_sample_residual`, the only crash loop and the only coin loop of this
module: both shards and the public ``sample_*_masks`` twins run it.  Iteration
order is the *sampler's*: ``range(n)`` for admissibility,
``sorted(processes, key=repr)`` for reliability, which is not bit order for
mixed-type ids (``[1, 2, 'a']`` indexes ints first, ``repr`` sorts strings
first) — hence coin tables keyed on the order.  The object-level
reference samplers and shards in ``tests/oracles/montecarlo.py`` consume the
stream in exactly this order, and ``tests/test_montecarlo_differential.py``
compares the two draw for draw and counter for counter.
"""

from __future__ import annotations

import functools
import random
import weakref
from typing import List, Optional, Sequence, Tuple

from ..engine import ExperimentSpec, ShardSpec
from ..graph import BitsetDiGraph, closure_mask, component_masks, iter_bits, popcount
from ..quorums import choose_candidates
from .study import partition_window

#: One sampled residual: ``(survivor mask, SCC masks, succ rows, pred rows)``;
#: both row lists are ``None`` when the residual is complete on the survivors.
Residual = Tuple[int, Sequence[int], Optional[List[int]], Optional[List[int]]]


# ---------------------------------------------------------------------- #
# The sampled-residual kernel
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=1024)
def _coin_table(order: Tuple[int, ...], crash_mask: int):
    """What one crash outcome fixes, in the sampler's iteration ``order``.

    ``(intact, complete rows, coins)``: the :data:`Residual` to return when no
    channel fails, the rows of the complete graph on the survivors indexed by
    bit position (0 for the crashed; shared — copy, never edit), and per
    survivor ``(position, bit, complete row, positions of the other
    survivors)`` — one channel coin per entry of the last.
    """
    survivors = [pos for pos in order if not crash_mask >> pos & 1]
    survivor_mask = sum(1 << pos for pos in survivors)
    complete = [0] * len(order)
    for pos in survivors:
        complete[pos] = survivor_mask ^ (1 << pos)
    coins = tuple(
        (src, 1 << src, complete[src], tuple(dst for dst in survivors if dst != src))
        for src in survivors
    )
    return (survivor_mask, (survivor_mask,), None, None), complete, coins


def _sample_residual(
    order: Tuple[int, ...],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
    limit: int,
    network: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
) -> Residual:
    """Draw one failure pattern and decompose its residual graph.

    Crash coins stop *before* drawing for the next process once ``limit``
    processes crashed (``len(order)``: no limit).  A pattern that crashes
    every process is meaningless for availability, so — reachable only without
    a limit — it revives one position **chosen uniformly at random** (a fixed
    one would survive systematically more often at high ``crash_prob``),
    spending one extra draw in that branch alone.  ``network`` holds the
    (successor, predecessor) rows of a non-complete network graph; one coin is
    drawn per ordered survivor pair regardless.
    """
    rng_random = rng.random
    crash_mask = crashes = 0
    for pos in order if limit > 0 else ():  # limit 0: nobody may crash, no coin is drawn
        if rng_random() < crash_prob:
            crash_mask |= 1 << pos
            crashes += 1
            if crashes == limit:
                break
    if crashes == len(order):
        crash_mask ^= 1 << order[rng.randrange(crashes)]
    intact, complete, coins = _coin_table(order, crash_mask)
    succ = complete[:]
    pred = complete[:]
    for src, src_bit, row, others in coins:
        for dst in others:
            if rng_random() < disconnect_prob:
                row &= ~(1 << dst)
                pred[dst] ^= src_bit
        succ[src] = row
    if network is not None:
        succ = [row & kept for row, kept in zip(succ, network[0])]
        pred = [row & kept for row, kept in zip(pred, network[1])]
    if succ == complete:
        return intact
    return intact[0], component_masks(intact[0], succ, pred), succ, pred


def _conditions_exist(patterns: Sequence[Residual]) -> Tuple[bool, bool]:
    """(GQS exists, QS+ exists) for the system made of ``patterns``.

    First the greedy choice — the (first) largest component of every pattern:
    if those pairwise intersect, a QS+ and hence a GQS exist — then the exact
    search, for QS+ and then for a GQS; reader closures are only paid for once
    both said no.
    """
    largest: List[int] = []
    greedy = True
    for _, components, _, _ in patterns:
        component = components[0] if len(components) == 1 else max(components, key=popcount)
        for other in largest:
            if not component & other:
                greedy = False
        largest.append(component)
    if greedy or choose_candidates(
        [[(c, c) for c in components] for _, components, _, _ in patterns]
    )[0] is not None:
        return True, True
    candidates_per_pattern = [
        [(c if pred is None else closure_mask(c, vertices, pred), c) for c in components]
        for vertices, components, _, pred in patterns
    ]
    return choose_candidates(candidates_per_pattern)[0] is not None, False


# ---------------------------------------------------------------------- #
# Mask-level pattern samplers (stream twins of the object-level ones)
# ---------------------------------------------------------------------- #
def _sample_masks(order, rng, crash_prob, disconnect_prob, limit) -> Tuple[int, List[int]]:
    survivors, _, succ, _ = _sample_residual(tuple(order), rng, crash_prob, disconnect_prob, limit)
    succ_clear = [0] * len(order)
    if succ is not None:
        for src in iter_bits(survivors):
            succ_clear[src] = survivors & ~succ[src] & ~(1 << src)
    return ~survivors & ((1 << len(order)) - 1), succ_clear


def sample_reliability_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
) -> Tuple[int, List[int]]:
    """Sample one i.i.d. failure pattern, conditioned on at least one survivor.

    ``order`` lists bit positions in process iteration order; the returned
    ``(crash_mask, succ_clear)`` pair (one row per position) decodes with
    :meth:`~repro.graph.ProcessIndex.set_of` /
    :meth:`~repro.graph.ProcessIndex.channels_of`.
    """
    return _sample_masks(order, rng, crash_prob, disconnect_prob, len(order))


def sample_admissibility_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
    max_crashes: Optional[int] = None,
) -> Tuple[int, List[int]]:
    """Mask-level form of :func:`repro.failures.random_failure_pattern`."""
    limit = len(order) - 1 if max_crashes is None else min(max_crashes, len(order) - 1)
    return _sample_masks(order, rng, crash_prob, disconnect_prob, limit)


# ---------------------------------------------------------------------- #
# Reliability (availability of fixed quorums)
# ---------------------------------------------------------------------- #
#: Per-quorum-system shard setup, shared across the (chunk-sized) shards of a
#: serial run.  Keyed weakly: parallel workers unpickle a fresh quorum system
#: per task, and its entry dies with it instead of accumulating.
_RELIABILITY_SETUP_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _reliability_setup(quorum_system):
    """(iteration order, network rows, read masks, write masks) for a shard.

    ``order`` lists bit positions in the sampler's process iteration order
    (``sorted(..., key=repr)``); the network rows are ``None`` for a complete
    network graph.
    """
    setup = _RELIABILITY_SETUP_CACHE.get(quorum_system)
    if setup is None:
        index = quorum_system.fail_prone.process_index
        base = quorum_system.fail_prone.bitset_graph
        order = tuple(index.position(p) for p in sorted(quorum_system.processes, key=repr))
        network = None
        if base != BitsetDiGraph.complete(index):
            positions = range(len(index))
            network = (
                [base.successor_mask(i) for i in positions],
                [base.predecessor_mask(i) for i in positions],
            )
        setup = (
            order,
            network,
            quorum_system._read_masks,
            quorum_system._write_masks,
        )
        _RELIABILITY_SETUP_CACHE[quorum_system] = setup
    return setup


def _reliability_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int, int]:
    """``(samples, GQS, QS+, classical)`` availability counts of one shard (worker side).

    Classical availability needs a correct read and a correct write quorum.
    In a strongly connected residual every such pair also satisfies GQS and
    QS+ availability; otherwise ``W`` is available iff it lies in one SCC
    ``C``, ``R`` reaches it iff ``R`` lies in the backward closure of ``C``,
    and ``R ∪ W`` is strongly connected iff ``R ⊆ C`` as well.
    """
    quorum_system = spec.params["quorum_system"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    rng = random.Random(shard.seed)
    order, network, read_masks, write_masks = _reliability_setup(quorum_system)
    gqs_count = strong_count = classical_count = 0
    for _ in range(shard.samples):
        survivors, components, _, pred = _sample_residual(
            order, rng, crash_prob, disconnect_prob, len(order), network
        )
        crashed = (~survivors).__and__  # quorum mask -> its crashed members
        if all(map(crashed, write_masks)) or all(map(crashed, read_masks)):
            continue  # every write quorum, or every read quorum, lost a member
        classical_count += 1
        if len(components) == 1:
            gqs_count += 1
            strong_count += 1
            continue
        # Quorums inside a component, or inside its reader closure, are correct.
        gqs_ok = strong_ok = False
        for home in components:
            for w in write_masks:
                if not w & ~home:
                    readers = closure_mask(home, survivors, pred)
                    for r in read_masks:
                        if not r & ~readers:
                            gqs_ok = True
                            strong_ok = strong_ok or not r & ~home
                    break
        gqs_count += gqs_ok
        strong_count += strong_ok
    return shard.samples, gqs_count, strong_count, classical_count


# ---------------------------------------------------------------------- #
# Admissibility (existence of quorum conditions over random systems)
# ---------------------------------------------------------------------- #
def _admissibility_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int, int]:
    """``(samples, GQS, QS+, classical)`` admission counts of one shard of random
    fail-prone systems (worker side).

    The classical condition counts a sample only if QS+ holds and no channel
    coin landed in any of its patterns (Definition 1 knows no channel
    failures).
    """
    rng = random.Random(shard.seed)
    n = spec.params["n"]
    num_patterns = spec.params["num_patterns"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    max_crashes = spec.params["max_crashes"]
    limit = n - 1 if max_crashes is None else min(max_crashes, n - 1)
    order = tuple(range(n))
    generalized_count = strong_count = classical_count = 0
    for _ in range(shard.samples):
        patterns = [
            _sample_residual(order, rng, crash_prob, disconnect_prob, limit)
            for _pattern in range(num_patterns)
        ]
        generalized, strong = _conditions_exist(patterns)
        generalized_count += generalized
        if strong:
            strong_count += 1
            for _, _, _, pred in patterns:
                if pred is not None:
                    break
            else:
                classical_count += 1
    return shard.samples, generalized_count, strong_count, classical_count


def _asymmetric_shard_bitset(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int, int]:
    """``(samples, QS+, GQS)`` admission counts of one shard of asymmetric-partition samples.

    The asymmetric-partition residual is built directly: the sampled window is
    a complete subgraph, the reader keeps a single channel into it, and every
    other channel between survivors is disconnected — so the residual rows are
    written down instead of subtracting a disconnect set from the complete
    graph.  The existence predicates are invariant under vertex renaming, so
    bits ``0 .. n-1`` follow the generator's iteration order.
    """
    rng = random.Random(shard.seed)
    n = spec.params["n"]
    num_patterns = spec.params["num_patterns"]
    size = partition_window(n, spec.params["window_size"])
    processes = ["p{}".format(i) for i in range(n)]
    position = {p: i for i, p in enumerate(processes)}
    strong_count = 0
    generalized_count = 0
    for _ in range(shard.samples):
        patterns = []
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
            patterns.append((vertex_mask, component_masks(vertex_mask, succ, pred), succ, pred))
        generalized, strong = _conditions_exist(patterns)
        strong_count += strong
        generalized_count += generalized
    return shard.samples, strong_count, generalized_count


__all__ = [
    "sample_admissibility_masks",
    "sample_reliability_masks",
]
