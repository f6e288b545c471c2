"""Fail-prone systems: sets of failure patterns over a fixed process set.

A *fail-prone system* ``F`` collects the failure patterns an algorithm must
tolerate: in every execution the adversary picks one pattern ``f ∈ F`` and may
crash (only) the processes and disconnect (only) the channels allowed by ``f``.
:class:`FailProneSystem` bundles the process set, the network graph and the
patterns, and offers the threshold constructions used throughout the paper
(Examples 4 and 6).
"""

from __future__ import annotations

import itertools
from operator import and_
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidFailurePatternError, ReproError
from ..graph import BitsetDiGraph, DiGraph, MaskReindex, ProcessIndex
from ..types import Channel, ProcessId, ProcessSet, sorted_processes
from .pattern import FailurePattern


def _unlisted(index: ProcessIndex, channels: Iterable[Channel]) -> Tuple[List[int], List[int]]:
    """The ordered pairs of distinct processes ``channels`` does not list, as
    ``(succ_clear, pred_clear)`` rows of :meth:`ProcessIndex.failure_masks`."""
    channels = list(channels)
    try:
        _, succ, pred = index.failure_masks((), channels)
    except KeyError:
        strangers = {p for channel in channels for p in channel} - set(index.processes)
        raise InvalidFailurePatternError(
            "network graph has vertices outside the process set: {}".format(
                sorted_processes(strangers)
            )
        ) from None
    others = [index.full_mask ^ 1 << i for i in range(len(index))]
    if not channels:
        return others, others
    return (
        [other & ~row for other, row in zip(others, succ)],
        [other & ~row for other, row in zip(others, pred)],
    )


class FailProneSystem:
    """A fail-prone system: a finite set of failure patterns over ``processes``.

    Parameters
    ----------
    processes:
        The full process set ``P`` of the system.
    patterns:
        The failure patterns.  Every process referenced by a pattern must be in
        ``processes``.  No pattern at all means the failure-free pattern alone
        (a system in which nothing may fail still has to be available).
    channels:
        The network's channels as ``(sender, receiver)`` pairs.  Omitted, the
        network is the complete graph on ``processes`` (the paper's model has a
        channel for every ordered pair); a shorter list models a restricted
        physical topology.  Self-loops are ignored.
    name:
        Optional label used in reports.
    """

    def __init__(
        self,
        processes: Iterable[ProcessId],
        patterns: Iterable[FailurePattern],
        channels: Optional[Iterable[Channel]] = None,
        name: Optional[str] = None,
    ) -> None:
        members = frozenset(processes)
        if not members:
            raise InvalidFailurePatternError("a fail-prone system needs at least one process")
        # The sorted process index fixes every bit position, so nothing
        # downstream (SCCs, candidate enumeration, discovery) inherits the
        # hash-seed-dependent iteration order of a frozenset or of ``channels``.
        index = ProcessIndex(members)
        network = BitsetDiGraph.complete(index)
        if channels is not None:
            # The complete graph with every unlisted channel cut: a list that
            # spells out every channel leaves it complete, and row-free.
            network = network.residual_masks(0, *_unlisted(index, channels))
        self._setup(members, network, patterns, name)

    def _setup(
        self,
        processes: ProcessSet,
        network: BitsetDiGraph,
        patterns: Iterable[FailurePattern],
        name: Optional[str],
        validated: Collection[FailurePattern] = (),
    ) -> None:
        """Install the network and validate ``patterns`` (except ``validated``) against it."""
        self._processes = processes
        self._process_index = index = network.index
        self._bitset_graph = network
        self._patterns: Tuple[FailurePattern, ...] = tuple(patterns) or (FailurePattern(),)
        self._name = name
        # Channel validation *is* the mask encoding: a channel endpoint
        # without a bit position fails the encoding, and a channel the network
        # lacks shows up as a row bit outside the network's successor row.
        # The encoding is kept until the pattern's residual is built from it,
        # so a channel set is walked once per system (and a pattern born in
        # masks over these processes hands over its rows without a walk);
        # ``validated`` patterns (a same-network parent's) passed against this
        # network already.
        self._pattern_masks: Dict[FailurePattern, Tuple[int, Sequence[int], Sequence[int]]] = {}
        absent = [~network.successor_mask(i) for i in range(len(index))]
        for f in self._patterns:
            if f in validated:
                continue
            unknown = f.crash_prone - processes
            if unknown:
                raise InvalidFailurePatternError(
                    "pattern {!r} references unknown processes {}".format(
                        f, sorted_processes(unknown)
                    )
                )
            if not f.channel_count or f in self._pattern_masks:
                continue  # no channel to walk: the residual encodes the crash set itself
            try:
                masks = f.masks(index)
            except KeyError:
                raise InvalidFailurePatternError(
                    "pattern {!r} references a channel outside the process set".format(f)
                ) from None
            missing = list(map(and_, masks[1], absent))
            if any(missing):
                i = next(i for i, row in enumerate(missing) if row)
                j = (missing[i] & -missing[i]).bit_length() - 1
                raise InvalidFailurePatternError(
                    "pattern {!r} disconnects channel ({!r}, {!r}) "
                    "that does not exist in the network graph".format(
                        f, index.process_at(i), index.process_at(j)
                    )
                )
            self._pattern_masks[f] = masks
        # Lazily populated, keyed by (value-hashable) FailurePattern and
        # shared: callers must treat it as immutable.  The bitmask residuals
        # are the decision layer's one per-pattern memo (each memoizes its
        # components and their reader closures) and the only state
        # :meth:`adopt_residuals` hands to a derived system.
        self._residual_bitset_cache: Dict[FailurePattern, BitsetDiGraph] = {}

    def _derive(
        self,
        patterns: Iterable[FailurePattern],
        name: Optional[str] = None,
        network: Optional[BitsetDiGraph] = None,
    ) -> "FailProneSystem":
        """A system with other patterns over this system's network (or ``network``).

        The one derivation path behind channel hardening and the membership
        deltas.  Without ``network`` the
        process index and the network are shared by identity — nothing is
        copied or rebuilt; with it (a join or leave, which re-indexes) the new
        system takes its processes from ``network.index``.  Every constructor
        check still runs on every pattern, except — over the shared network —
        on the parent's own patterns, which passed them against it already.
        """
        validated: Collection[FailurePattern] = ()
        if network is None:
            processes, network = self._processes, self._bitset_graph
            validated = set(self._patterns)
        else:
            processes = frozenset(network.index.processes)
        system = FailProneSystem.__new__(FailProneSystem)
        system._setup(processes, network, patterns, name, validated)
        return system

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def processes(self) -> ProcessSet:
        """The process set ``P``."""
        return self._processes

    @property
    def patterns(self) -> Tuple[FailurePattern, ...]:
        """The failure patterns, in the order they were given."""
        return self._patterns

    @property
    def name(self) -> Optional[str]:
        """Optional label of the system."""
        return self._name

    def pattern_named(self, name: Optional[str]) -> Optional[FailurePattern]:
        """The declared pattern called ``name`` (``None``, the failure-free run, for ``None``)."""
        if name is None:
            return None
        for pattern in self._patterns:
            if pattern.name == name:
                return pattern
        raise ReproError(
            "unknown pattern {!r}; available: {}".format(name, [f.name for f in self._patterns])
        )

    def __iter__(self) -> Iterator[FailurePattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern: FailurePattern) -> bool:
        return pattern in self._patterns

    def __repr__(self) -> str:
        label = self._name or "FailProneSystem"
        return "{}(n={}, |F|={})".format(label, len(self._processes), len(self._patterns))

    # ------------------------------------------------------------------ #
    # Derived information
    # ------------------------------------------------------------------ #
    @property
    def process_index(self) -> ProcessIndex:
        """The deterministic process ↔ bit-position mapping for this system."""
        return self._process_index

    @property
    def bitset_graph(self) -> BitsetDiGraph:
        """The network graph as a shared bitmask view (treat as immutable)."""
        return self._bitset_graph

    def residual_graph(self, pattern: FailurePattern) -> DiGraph:
        """The residual graph ``G \\ f`` for ``pattern`` as a fresh :class:`DiGraph`."""
        return self.residual_bitset(pattern).to_digraph()

    def residual_bitset(self, pattern: FailurePattern) -> BitsetDiGraph:
        """The residual graph for ``pattern`` as a memoized bitmask view."""
        cached = self._residual_bitset_cache.get(pattern)
        if cached is None:
            # The encoding validation kept is used up here; a pattern without
            # one (crash-only, inherited from a parent, undeclared) is encoded now.
            masks = self._pattern_masks.pop(pattern, None)
            if masks is None:
                masks = pattern.masks(self._process_index)
            cached = self._bitset_graph.residual_masks(*masks)
            self._residual_bitset_cache[pattern] = cached
        return cached

    def adopt_residuals(
        self,
        other: "FailProneSystem",
        pattern_map: Dict[FailurePattern, FailurePattern],
        reindex: Optional[MaskReindex] = None,
    ) -> int:
        """Take over ``other``'s residual bitmask views, memos included, under remapped keys.

        A residual's memo (components and reader closures) is its pattern's
        discovery candidates.  ``pattern_map`` sends a pattern of ``self`` to the
        pattern of ``other`` whose residual it shares (the caller guarantees
        that); ``reindex`` re-keys bit positions when the process sets differ
        (``ValueError`` for a residual naming a process without a position
        here).  Entries already held are kept.  Returns the number adopted.
        """
        identity = reindex is None or reindex.is_identity()
        adopted = 0
        for new_pattern, old_pattern in pattern_map.items():
            residual = other._residual_bitset_cache.get(old_pattern)
            if residual is None or new_pattern in self._residual_bitset_cache:
                continue
            self._residual_bitset_cache[new_pattern] = (
                residual if identity else residual.reindexed(reindex)
            )
            self._pattern_masks.pop(new_pattern, None)
            adopted += 1
        return adopted

    def correct_processes(self, pattern: FailurePattern) -> ProcessSet:
        """Processes correct under ``pattern``."""
        return pattern.correct_processes(self._processes)

    def allows_channel_failures(self) -> bool:
        """Return whether any pattern allows a channel between correct processes to fail."""
        return any(f.channel_count for f in self._patterns)

    # ------------------------------------------------------------------ #
    # Threshold constructions
    # ------------------------------------------------------------------ #
    @classmethod
    def crash_threshold(
        cls,
        processes: Iterable[ProcessId],
        max_crashes: int,
        name: Optional[str] = None,
    ) -> "FailProneSystem":
        """The classical threshold system: at most ``max_crashes`` processes crash.

        Channels between correct processes never fail (Example 4 of the paper:
        ``F = {(Q, ∅) | Q ⊆ P, |Q| ≤ k}``).  Only the maximal patterns (exactly
        ``max_crashes`` crashes) are enumerated — smaller crash sets are
        subsumed by them.
        """
        procs = sorted_processes(set(processes))
        if max_crashes < 0:
            raise ValueError("max_crashes must be non-negative")
        if max_crashes >= len(procs):
            raise ValueError("max_crashes must be smaller than the number of processes")
        patterns = [
            FailurePattern.crash_only(combo, name="crash{}".format(i))
            for i, combo in enumerate(itertools.combinations(procs, max_crashes))
        ]
        if not patterns:
            patterns = [FailurePattern.failure_free()]
        return cls(procs, patterns, name=name or "crash<= {}".format(max_crashes))

    @classmethod
    def minority_crashes(
        cls, processes: Iterable[ProcessId], name: Optional[str] = None
    ) -> "FailProneSystem":
        """The standard 'any minority may crash' system (``k = ⌊(n−1)/2⌋``)."""
        procs = sorted_processes(set(processes))
        k = (len(procs) - 1) // 2
        return cls.crash_threshold(procs, k, name=name or "minority-crashes")

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Return a multi-line human-readable description of the system."""
        lines = [
            "FailProneSystem {}: n={} processes, {} patterns".format(
                self._name or "<anonymous>", len(self._processes), len(self._patterns)
            ),
            "  processes: {}".format(list(self._process_index.processes)),
        ]
        for i, f in enumerate(self._patterns):
            lines.append("  [{}] {!r}".format(i, f))
        return "\n".join(lines)
