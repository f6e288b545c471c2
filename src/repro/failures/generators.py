"""Generators of fail-prone systems for experiments and property-based tests.

The paper's lower/upper bounds hold for *arbitrary* fail-prone systems, not just
threshold ones, so the experiments sample widely:

* :func:`random_fail_prone_system` — each pattern independently crashes
  processes with probability ``crash_prob`` and disconnects surviving channels
  with probability ``disconnect_prob``;
* :func:`geo_replicated_system` — a "data-centres connected by WAN links"
  scenario where channel failures model asymmetric partitions between sites;
* :func:`ring_unidirectional_system` — the Figure 1 style construction
  generalised to ``n`` processes arranged in a directed ring;
* :func:`adversarial_partition_system` — patterns that split the processes into
  two groups with only one-directional connectivity across the cut.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError
from ..graph import ProcessIndex
from ..registry import TOPOLOGIES, register_topology
from ..types import Channel, ProcessId
from .failprone import FailProneSystem
from .pattern import FailurePattern


def random_failure_pattern(
    processes: Sequence[ProcessId],
    rng: random.Random,
    crash_prob: float = 0.2,
    disconnect_prob: float = 0.2,
    max_crashes: Optional[int] = None,
    name: Optional[str] = None,
) -> FailurePattern:
    """Sample a single failure pattern.

    Each process crashes independently with probability ``crash_prob`` (subject
    to ``max_crashes`` and to always leaving at least one correct process), and
    each channel between surviving processes disconnects independently with
    probability ``disconnect_prob``.
    """
    procs = list(processes)
    crash: List[ProcessId] = []
    limit = len(procs) - 1 if max_crashes is None else min(max_crashes, len(procs) - 1)
    for p in procs:
        if len(crash) >= limit:
            break
        if rng.random() < crash_prob:
            crash.append(p)
    survivors = [p for p in procs if p not in crash]
    channels: List[Channel] = []
    for src in survivors:
        for dst in survivors:
            if src != dst and rng.random() < disconnect_prob:
                channels.append((src, dst))
    return FailurePattern(crash, channels, name=name)


def random_fail_prone_system(
    n: int = 4,
    num_patterns: int = 4,
    crash_prob: float = 0.2,
    disconnect_prob: float = 0.2,
    max_crashes: Optional[int] = None,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> FailProneSystem:
    """Sample a fail-prone system with ``num_patterns`` random patterns.

    The process identifiers are ``p0 .. p{n-1}`` and the network graph is
    complete.  The sampling is deterministic for a fixed ``seed``.
    """
    rng = random.Random(seed)
    processes = ["p{}".format(i) for i in range(n)]
    patterns = [
        random_failure_pattern(
            processes,
            rng,
            crash_prob=crash_prob,
            disconnect_prob=disconnect_prob,
            max_crashes=max_crashes,
            name="f{}".format(i),
        )
        for i in range(num_patterns)
    ]
    return FailProneSystem(processes, patterns, name=name or "random(n={}, seed={})".format(n, seed))


def geo_replicated_system(
    sites: int = 3,
    replicas_per_site: int = 2,
    partitioned_pairs: Optional[Iterable[Tuple[int, int]]] = None,
    name: Optional[str] = None,
) -> FailProneSystem:
    """A geo-replication scenario: replicas grouped into sites, WAN links may fail.

    Processes are named ``s<i>r<j>``.  Intra-site channels are always reliable.
    For every ordered pair of sites listed in ``partitioned_pairs`` (default:
    every ordered pair, one pattern each), a failure pattern disconnects all
    channels *from* the first site *to* the second — an asymmetric partition of
    the kind reported in the network-partition study the paper cites [8].
    """
    processes = [
        "s{}r{}".format(i, j) for i in range(sites) for j in range(replicas_per_site)
    ]
    site_of = {p: int(p[1 : p.index("r")]) for p in processes}
    if partitioned_pairs is None:
        partitioned_pairs = [(i, j) for i in range(sites) for j in range(sites) if i != j]
    patterns = []
    for idx, (src_site, dst_site) in enumerate(partitioned_pairs):
        channels = [
            (p, q)
            for p in processes
            for q in processes
            if p != q and site_of[p] == src_site and site_of[q] == dst_site
        ]
        patterns.append(
            FailurePattern((), channels, name="partition-{}to{}".format(src_site, dst_site))
        )
        del idx
    return FailProneSystem(
        processes,
        patterns,
        name=name or "geo(sites={}, k={})".format(sites, replicas_per_site),
    )


def ring_unidirectional_system(n: int = 4, name: Optional[str] = None) -> FailProneSystem:
    """A Figure 1 style construction that admits a GQS for every ``n >= 3``.

    Processes ``p0 .. p{n-1}`` are arranged in a ring.  Pattern ``f_i`` keeps
    correct exactly:

    * a *write window* ``W_i`` of ``⌊n/2⌋ + 1`` consecutive processes starting
      at ``p_i``, fully connected internally (this is the strongly connected
      write quorum), and
    * a single *upstream reader* ``u_i = p_{i-1}`` whose only guaranteed
      channel is the unidirectional ``(u_i, p_i)`` into the window.

    All processes outside ``W_i ∪ {u_i}`` may crash, and every other channel
    between correct processes may disconnect.  Because write windows are
    majorities they pairwise intersect, so ``W = {W_i}`` and
    ``R = {W_i ∪ {u_i}}`` form a generalized quorum system in which the read
    quorums are only weakly connected (the reader ``u_i`` has no guaranteed
    incoming channel).  For ``n = 4`` this has the same flavour as the paper's
    Figure 1, with a three-process write window instead of a two-process one.
    """
    if n < 3:
        raise ValueError("ring construction needs at least 3 processes")
    processes = ["p{}".format(i) for i in range(n)]
    window_size = n // 2 + 1
    patterns = []
    for i in range(n):
        window = [processes[(i + offset) % n] for offset in range(window_size)]
        reader = processes[(i - 1) % n]
        survivors = set(window)
        if reader not in survivors:
            survivors.add(reader)
        crash = [p for p in processes if p not in survivors]
        correct_channels = {
            (src, dst) for src in window for dst in window if src != dst
        }
        correct_channels.add((reader, window[0]))
        channels = [
            (src, dst)
            for src in survivors
            for dst in survivors
            if src != dst and (src, dst) not in correct_channels
        ]
        patterns.append(FailurePattern(crash, channels, name="f{}".format(i + 1)))
    return FailProneSystem(processes, patterns, name=name or "ring(n={})".format(n))


def adversarial_partition_system(
    n: int = 6,
    name: Optional[str] = None,
) -> FailProneSystem:
    """Patterns that split the system into two halves with one-way connectivity.

    For every contiguous split point ``s`` the pattern keeps channels inside
    each half and the channels from the first half into the second, but drops
    all channels from the second half back into the first.  The second half is
    therefore strongly connected and reachable from the first — a GQS exists —
    yet no strongly connected quorum spans both halves.
    """
    if n < 2:
        raise ValueError("need at least 2 processes")
    processes = ["p{}".format(i) for i in range(n)]
    patterns = []
    for split in range(1, n):
        first = set(processes[:split])
        second = set(processes[split:])
        channels = [
            (src, dst)
            for src in processes
            for dst in processes
            if src != dst and src in second and dst in first
        ]
        patterns.append(FailurePattern((), channels, name="split{}".format(split)))
    return FailProneSystem(processes, patterns, name=name or "one-way-splits(n={})".format(n))


# ---------------------------------------------------------------------- #
# Production-size families (scale surface of the decision procedure)
# ---------------------------------------------------------------------- #
def _zone_blocks(ordered: Sequence[ProcessId], anchor_size: int, zones: int) -> List[List[ProcessId]]:
    """Split ``ordered`` into ``zones`` contiguous blocks; block 0 has ``anchor_size``."""
    blocks = [list(ordered[:anchor_size])]
    rest = list(ordered[anchor_size:])
    per_zone, extra = divmod(len(rest), zones - 1)
    start = 0
    for z in range(zones - 1):
        size = per_zone + (1 if z < extra else 0)
        blocks.append(rest[start : start + size])
        start += size
    return blocks


def large_threshold_system(
    n: int = 60,
    max_crashes: int = 3,
    num_patterns: Optional[int] = None,
    zones: int = 1,
    catastrophic: bool = False,
    name: Optional[str] = None,
) -> FailProneSystem:
    """A production-size threshold family: rotating crash windows over ``n`` processes.

    With ``zones == 1`` this is the scalable cousin of
    :meth:`FailProneSystem.crash_threshold`: instead of enumerating all
    ``C(n, k)`` maximal patterns (hopeless for ``n`` in the hundreds), pattern
    ``i`` crashes one contiguous *window* of ``max_crashes`` processes, with
    window starts spread evenly around the ring of crashable processes.
    ``num_patterns`` defaults to one window per start position (``n``, or the
    non-anchor count in the zoned construction), so systems with hundreds of
    processes and hundreds of patterns stay constructible; asking for more
    patterns than start positions wraps around and repeats windows.

    With ``zones > 1`` each crash also takes down the inter-zone switch
    fabric: processes are split into contiguous zones (zone 0 is a small
    hardened *anchor* zone that crash windows never touch), and every channel
    between different zones may drop, leaving each zone an isolated island.
    With ``catastrophic=True`` a final ``blackout`` pattern is appended in
    which every non-anchor process crashes and the anchor zone's internal
    network degrades to a one-way chain — the worst-case instance family for
    the candidate-choice search, because the (larger, hence preferred)
    non-anchor islands of every other pattern are incompatible with all of the
    blackout's candidates.
    """
    if n < 2:
        raise ValueError("need at least 2 processes")
    if zones < 1:
        raise ValueError("zones must be at least 1")
    if catastrophic and zones < 2:
        raise ValueError("a catastrophic blackout pattern requires zones >= 2")
    width = len(str(n - 1))
    processes = ["p{:0{}d}".format(i, width) for i in range(n)]
    if zones == 1:
        anchor: List[ProcessId] = []
        blocks = [processes]
        crashable = list(processes)
    else:
        if n < 3 * zones:
            raise ValueError("zoned construction needs n >= 3 * zones")
        anchor_size = max(2, n // (2 * zones))
        blocks = _zone_blocks(processes, anchor_size, zones)
        anchor = blocks[0]
        crashable = [p for p in processes if p not in set(anchor)]
    if not 0 <= max_crashes < len(crashable):
        raise ValueError("max_crashes must be in [0, {})".format(len(crashable)))
    count = len(crashable) if num_patterns is None else num_patterns
    if count < 1:
        raise ValueError("num_patterns must be at least 1")
    stride = max(1, len(crashable) // count)
    index = ProcessIndex(processes)
    zone_masks = [index.mask_of(block) for block in blocks]
    patterns = []
    for i in range(count):
        start = (i * stride) % len(crashable)
        window = {crashable[(start + j) % len(crashable)] for j in range(max_crashes)}
        label = "window-{}".format(i)
        if zones == 1:
            patterns.append(FailurePattern(window, (), name=label))
            continue
        crash_mask = index.mask_of(window)
        islands = [zone & ~crash_mask for zone in zone_masks]
        patterns.append(FailurePattern.islands(index, crash_mask, islands, name=label))
    if catastrophic:
        chain = {(anchor[j], anchor[j + 1]) for j in range(len(anchor) - 1)}
        broken = [
            (p, q) for p in anchor for q in anchor if p != q and (p, q) not in chain
        ]
        patterns.append(FailurePattern(crashable, broken, name="blackout"))
    return FailProneSystem(
        processes,
        patterns,
        name=name
        or "large-threshold(n={}, k={}, zones={}{})".format(
            n, max_crashes, zones, ", catastrophic" if catastrophic else ""
        ),
    )


def multi_region_system(
    regions: int = 4,
    replicas_per_region: int = 3,
    primary_replicas: Optional[int] = None,
    epochs: Optional[int] = None,
    catastrophic: bool = True,
    name: Optional[str] = None,
) -> FailProneSystem:
    """A large geo-replicated family: replica regions whose WAN fabric fails.

    Region ``g0`` is the hardened *primary* (``primary_replicas`` replicas,
    default ``replicas_per_region - 1``); regions ``g1 ..`` are secondaries
    with ``replicas_per_region`` replicas each.  Two kinds of patterns:

    * ``wan-i`` (one per epoch, default ``regions`` epochs): the WAN drops
      entirely — every inter-region channel between survivors may fail, so
      each region becomes an isolated island — while rolling maintenance
      crashes replica ``i mod replicas_per_region`` of every *secondary*
      region (the primary never crashes).
    * ``blackout`` (with ``catastrophic=True``): every secondary region is
      down and the primary's internal network degrades to a one-way chain of
      replicas.

    A GQS always exists (pick the primary island for every WAN epoch and any
    primary replica for the blackout), but the secondary islands are larger
    than the primary island whenever ``replicas_per_region - 1 >
    primary_replicas``, so a search that prefers large read quorums commits to
    a secondary region and only discovers deep in the pattern sequence that
    the blackout admits no compatible candidate.  This makes the family the
    canonical stress test for forward-checking versus the reference
    backtracker, on top of being a realistic "many regions, flaky WAN" model
    in the spirit of the partial-partition studies the paper cites.
    """
    if regions < 2:
        raise ValueError("need at least 2 regions")
    if replicas_per_region < 2:
        raise ValueError("secondary regions need at least 2 replicas")
    primary = primary_replicas if primary_replicas is not None else max(2, replicas_per_region - 1)
    if primary < 2:
        raise ValueError("the primary region needs at least 2 replicas")
    count = epochs if epochs is not None else regions
    if count < 1:
        raise ValueError("need at least 1 WAN epoch")
    region_width = len(str(regions - 1))
    replica_width = len(str(max(replicas_per_region, primary) - 1))

    def pid(region: int, replica: int) -> str:
        return "g{:0{}d}m{:0{}d}".format(region, region_width, replica, replica_width)

    processes: List[ProcessId] = []
    region_of: Dict[ProcessId, int] = {}
    primary_procs = [pid(0, j) for j in range(primary)]
    for p in primary_procs:
        region_of[p] = 0
    processes.extend(primary_procs)
    for r in range(1, regions):
        for j in range(replicas_per_region):
            p = pid(r, j)
            region_of[p] = r
            processes.append(p)

    index = ProcessIndex(processes)
    region_masks = [index.mask_of(primary_procs)] + [
        index.mask_of(pid(r, j) for j in range(replicas_per_region)) for r in range(1, regions)
    ]
    patterns = []
    for i in range(count):
        crash_mask = index.mask_of(pid(r, i % replicas_per_region) for r in range(1, regions))
        islands = [region & ~crash_mask for region in region_masks]
        patterns.append(
            FailurePattern.islands(index, crash_mask, islands, name="wan-{}".format(i))
        )
    if catastrophic:
        crashed_all = [p for p in processes if region_of[p] != 0]
        chain = {
            (primary_procs[j], primary_procs[j + 1]) for j in range(len(primary_procs) - 1)
        }
        broken = [
            (p, q)
            for p in primary_procs
            for q in primary_procs
            if p != q and (p, q) not in chain
        ]
        patterns.append(FailurePattern(crashed_all, broken, name="blackout"))
    return FailProneSystem(
        processes,
        patterns,
        name=name
        or "multi-region(regions={}, replicas={}, primary={}{})".format(
            regions, replicas_per_region, primary, ", catastrophic" if catastrophic else ""
        ),
    )


# ---------------------------------------------------------------------- #
# Declarative construction (used by the CLI and the scenario subsystem)
# ---------------------------------------------------------------------- #
def _figure1_topology(**params: Any) -> FailProneSystem:
    from ..analysis import figure1_fail_prone_system  # deferred: analysis imports failures

    return figure1_fail_prone_system(**params)


def _figure1_modified_topology(**params: Any) -> FailProneSystem:
    from ..analysis import figure1_modified_fail_prone_system

    return figure1_modified_fail_prone_system(**params)


def _minority_topology(n: int = 5, name: Optional[str] = None) -> FailProneSystem:
    return FailProneSystem.minority_crashes(
        ["p{}".format(i) for i in range(n)], name=name or "minority(n={})".format(n)
    )


def _exact_builtin(expected: str, build: Any) -> Any:
    """A ``--builtin`` matcher for a fixed name (e.g. ``figure1``)."""

    def matcher(text: str) -> Optional[FailProneSystem]:
        return build() if text == expected else None

    return matcher


def _builtin_numbers(text: str, prefix: str, *arities: int) -> Optional[List[int]]:
    """The integers of ``<prefix><int>[x<int>...]``, or ``None`` if ``text`` is not that form.

    A ``--builtin`` matcher parses its name with this before it builds: text
    that is not the form is no match, while a builder's ``ValueError`` escapes
    the matcher, so an invalid parameter is reported as one, not as an unknown
    name.
    """
    if not text.startswith(prefix):
        return None
    try:
        numbers = [int(part) for part in text[len(prefix) :].split("x")]
    except ValueError:
        return None
    return numbers if len(numbers) in arities else None


def _ring_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "ring-", 1)
    return None if numbers is None else ring_unidirectional_system(*numbers)


def _geo_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "geo-", 2)
    if numbers is None:
        return None
    return geo_replicated_system(sites=numbers[0], replicas_per_site=numbers[1])


def _minority_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "minority-", 1)
    return None if numbers is None else _minority_topology(*numbers)


def _adversarial_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "adversarial-", 1)
    return None if numbers is None else adversarial_partition_system(*numbers)


def _large_threshold_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "large-threshold-", 2, 3)
    if numbers is None:
        return None
    if len(numbers) == 2:
        return large_threshold_system(n=numbers[0], max_crashes=numbers[1])
    return large_threshold_system(
        n=numbers[0], max_crashes=numbers[1], zones=numbers[2], catastrophic=True
    )


def _multiregion_builtin(text: str) -> Optional[FailProneSystem]:
    numbers = _builtin_numbers(text, "multiregion-", 2)
    if numbers is None:
        return None
    return multi_region_system(regions=numbers[0], replicas_per_region=numbers[1])


# Every builder takes only JSON-representable keyword parameters, so a
# topology can be described declaratively in a scenario file; the ``builtin``
# matchers expose the CLI ``--builtin`` spellings (registration order is the
# order names are tried and listed in the unknown-name error).
register_topology(
    "figure1",
    builder=_figure1_topology,
    builtin=("figure1", _exact_builtin("figure1", _figure1_topology)),
    doc="the paper's Figure 1 fail-prone system (weakly connected read quorums)",
)
register_topology(
    "figure1-modified",
    builder=_figure1_modified_topology,
    builtin=("figure1-modified", _exact_builtin("figure1-modified", _figure1_modified_topology)),
    doc="Figure 1 with hardened channels removed; admits no GQS (Theorem 2)",
)
register_topology(
    "ring",
    builder=ring_unidirectional_system,
    builtin=("ring-<n>", _ring_builtin),
    doc="Figure 1 generalised: majority write windows plus one upstream reader on a directed ring",
)
register_topology(
    "geo",
    builder=geo_replicated_system,
    builtin=("geo-<sites>x<replicas>", _geo_builtin),
    doc="geo-replication: replica sites whose WAN links fail asymmetrically",
)
register_topology(
    "minority",
    builder=_minority_topology,
    builtin=("minority-<n>", _minority_builtin),
    doc="classical crash-only threshold system tolerating any minority of crashes",
)
register_topology(
    "adversarial-partition",
    builder=adversarial_partition_system,
    builtin=("adversarial-<n>", _adversarial_builtin),
    doc="two halves with one-way connectivity across the cut (GQS but no QS+)",
)
register_topology(
    "random",
    builder=random_fail_prone_system,
    doc="seeded random sampling of crash and disconnection patterns",
)
register_topology(
    "large-threshold",
    builder=large_threshold_system,
    builtin=("large-threshold-<n>x<k>[x<zones>]", _large_threshold_builtin),
    doc="production-size rotating crash windows, optionally zoned with a blackout",
)
register_topology(
    "multi-region",
    builder=multi_region_system,
    builtin=("multiregion-<regions>x<replicas>", _multiregion_builtin),
    doc="WAN-epoch islands over replica regions plus a primary-chain blackout",
)

def build_fail_prone_system(kind: str, params: Optional[Mapping[str, Any]] = None) -> FailProneSystem:
    """Build a fail-prone system from a declarative ``(kind, params)`` description."""
    descriptor = TOPOLOGIES.get(kind)
    try:
        return descriptor.builder(**dict(params or {}))
    except TypeError as error:
        raise ReproError("invalid parameters for topology {!r}: {}".format(kind, error))


def builtin_fail_prone_system(name: str) -> FailProneSystem:
    """Resolve a built-in fail-prone system from its CLI name.

    The accepted spellings come from the topology registry: every descriptor
    with a ``builtin`` matcher is tried in registration order (``figure1``,
    ``figure1-modified``, ``ring-<n>``, ``geo-<sites>x<replicas>``,
    ``minority-<n>``, ``adversarial-<n>``, ``large-threshold-<n>x<k>[x<zones>]``
    — zoned variants append a catastrophic blackout pattern —
    ``multiregion-<regions>x<replicas>``, plus any plugin-registered forms).
    """
    forms = []
    for descriptor in TOPOLOGIES.descriptors():
        builtin = descriptor.extras.get("builtin")
        if builtin is None:
            continue
        form, matcher = builtin
        forms.append(form)
        try:
            system = matcher(name)
        except ValueError as error:  # the name has the form; its parameters are invalid
            raise ReproError("built-in system {!r}: {}".format(name, error)) from None
        if system is not None:
            return system
    raise ReproError(
        "unknown built-in system {!r}; use {}".format(
            name, " or ".join([", ".join(forms[:-1]), forms[-1]]) if len(forms) > 1 else forms[0]
        )
    )
