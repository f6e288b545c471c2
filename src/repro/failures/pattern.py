"""Failure patterns: which processes may crash and which channels may disconnect.

A *failure pattern* is a pair ``f = (P, C)`` where ``P`` is a set of processes
that are allowed to crash and ``C`` a set of channels (between processes *not*
in ``P``) that are allowed to disconnect during a single execution.  Channels
incident to a crash-prone process are faulty by definition and therefore must
not appear in ``C`` — the constructor enforces this well-formedness condition
from the paper's system model (§2).

A pattern is built either from a channel list (the constructor) or, for the
"every channel between different islands" patterns of partitioned
production families, directly as bitmask rows (:meth:`FailurePattern.islands`):
such a pattern decodes its channel set only when someone reads it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidFailurePatternError
from ..graph import ProcessIndex, iter_bits, popcount
from ..types import (
    Channel,
    ChannelSet,
    ProcessId,
    ProcessSet,
    channel_set,
    process_set,
    sorted_channels,
    sorted_processes,
)


def _reject_channel(crash: ProcessSet, channels: ChannelSet) -> None:
    """Raise for the first ill-formed channel in sorted order.

    Not the first one met in set iteration order: that order follows the
    string hash seed, and the error text must not.
    """
    for src, dst in sorted_channels(channels):
        if src == dst:
            raise InvalidFailurePatternError(
                "channel ({!r}, {!r}) is a self-loop".format(src, dst)
            )
        if src in crash or dst in crash:
            raise InvalidFailurePatternError(
                "channel ({!r}, {!r}) is incident to a crash-prone process; "
                "such channels are faulty by default and must not be listed".format(src, dst)
            )


class FailurePattern:
    """An immutable failure pattern ``(P, C)``.

    Parameters
    ----------
    crash_prone:
        Processes allowed to crash (the paper's ``P``).
    disconnect_prone:
        Channels allowed to disconnect (the paper's ``C``).  Every channel must
        connect two processes outside ``crash_prone``; otherwise
        :class:`~repro.errors.InvalidFailurePatternError` is raised.
    name:
        Optional human-readable label (e.g. ``"f1"``), used in reports.
    """

    __slots__ = ("_crash_prone", "_disconnect_prone", "_name", "_count", "_encoding")

    def __init__(
        self,
        crash_prone: Iterable[ProcessId] = (),
        disconnect_prone: Iterable[Channel] = (),
        name: Optional[str] = None,
    ) -> None:
        crash = process_set(crash_prone)
        channels = channel_set(disconnect_prone)
        for src, dst in channels:
            if src == dst or src in crash or dst in crash:
                _reject_channel(crash, channels)
        self._crash_prone = crash
        self._disconnect_prone: Optional[ChannelSet] = channels
        self._name = name
        self._count = len(channels)
        # ``(index, crash_mask, rows)`` for a pattern born in masks (see
        # :meth:`islands`); a channel-list pattern has none.
        self._encoding: Optional[Tuple[ProcessIndex, int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def crash_prone(self) -> ProcessSet:
        """Processes allowed to crash under this pattern."""
        return self._crash_prone

    @property
    def disconnect_prone(self) -> ChannelSet:
        """Channels allowed to disconnect under this pattern (decoded on first read)."""
        if self._disconnect_prone is None:
            index, _crash_mask, rows = self._encoding
            self._disconnect_prone = index.channels_of(rows)
        return self._disconnect_prone

    @property
    def channel_count(self) -> int:
        """``len(disconnect_prone)``, known without decoding the channel set."""
        return self._count

    def masks(self, index: ProcessIndex) -> Tuple[int, Sequence[int], Sequence[int]]:
        """This pattern over ``index`` as ``(crash_mask, succ_clear, pred_clear)``.

        The form :meth:`ProcessIndex.failure_masks` returns: a pattern born in
        masks over an index of the same processes hands over its own rows,
        anything else is encoded from its sets (``KeyError`` for a process
        ``index`` lacks).
        """
        encoding = self._encoding
        if encoding is not None and encoding[0].processes == index.processes:
            return encoding[1], encoding[2], encoding[2]
        return index.failure_masks(self._crash_prone, self.disconnect_prone)

    @property
    def name(self) -> Optional[str]:
        """Optional label for the pattern."""
        return self._name

    def label(self, position: int) -> str:
        """Stable display label: the name, or the ``position`` among the declared patterns."""
        return self._name if self._name is not None else "pattern-{}".format(position)

    def correct_processes(self, processes: Iterable[ProcessId]) -> ProcessSet:
        """Processes of the system that are correct under this pattern."""
        return frozenset(p for p in processes if p not in self._crash_prone)

    def is_faulty_channel(self, channel: Channel) -> bool:
        """Return whether ``channel`` may fail under this pattern.

        A channel may fail either because it is listed in ``C`` or because it
        is incident to a crash-prone process (faulty by default).
        """
        src, dst = channel
        if src in self._crash_prone or dst in self._crash_prone:
            return True
        return (src, dst) in self.disconnect_prone

    # ------------------------------------------------------------------ #
    # Ordering / comparison
    # ------------------------------------------------------------------ #
    def is_subsumed_by(self, other: "FailurePattern") -> bool:
        """Return whether every failure allowed by ``self`` is allowed by ``other``.

        If ``self`` is subsumed by ``other``, then every ``self``-compliant
        execution is also ``other``-compliant, so tolerating ``other`` implies
        tolerating ``self``.
        """
        if not self._crash_prone <= other._crash_prone:
            return False
        for channel in self.disconnect_prone:
            if not other.is_faulty_channel(channel):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailurePattern):
            return NotImplemented
        if self is other:
            return True
        if self._crash_prone != other._crash_prone or self._count != other._count:
            return False
        mine, theirs = self._encoding, other._encoding
        if mine is not None and theirs is not None and mine[0].processes == theirs[0].processes:
            return mine[2] == theirs[2]
        return self.disconnect_prone == other.disconnect_prone

    def __hash__(self) -> int:
        # The channel count, not the channel set: equal patterns have equal
        # counts, and a pattern born in masks knows its count undecoded.
        return hash((self._crash_prone, self._count))

    def __repr__(self) -> str:
        label = self._name or "FailurePattern"
        return "{}(crash={}, disconnect={})".format(label, *self.sorted_parts())

    def sorted_parts(self) -> Tuple[List[ProcessId], List[Channel]]:
        """``(crash_prone, disconnect_prone)`` as lists in output order.

        A pattern born in masks reads both off its index in bit order, which
        is the sort order, without decoding a set; a channel-list pattern has
        no index and sorts its sets.
        """
        if self._encoding is not None:
            index, crash_mask, rows = self._encoding
            return index.sorted_list(crash_mask), index.channel_list(rows)
        return sorted_processes(self._crash_prone), sorted_channels(self._disconnect_prone)

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def crash_only(
        cls, crash_prone: Iterable[ProcessId], name: Optional[str] = None
    ) -> "FailurePattern":
        """A pattern that allows only process crashes (no channel failures)."""
        return cls(crash_prone, (), name=name)

    @classmethod
    def failure_free(cls, name: Optional[str] = None) -> "FailurePattern":
        """The pattern that allows no failures at all."""
        return cls((), (), name=name)

    @classmethod
    def islands(
        cls,
        index: ProcessIndex,
        crash_mask: int,
        island_masks: Iterable[int],
        name: Optional[str] = None,
    ) -> "FailurePattern":
        """The pattern crashing ``crash_mask`` and cutting survivors into islands.

        Every channel between survivors of different islands may disconnect;
        channels inside an island stay.  The islands (masks over ``index``)
        must be pairwise disjoint and cover exactly the survivors
        ``index.full_mask & ~crash_mask``, else
        :class:`~repro.errors.InvalidFailurePatternError` is raised.  The
        pattern is stored as the per-process rows of its disconnected
        channels — row ``i`` is every survivor outside ``i``'s island, which
        serves as both the successor and the predecessor row, since the
        relation is symmetric — in O(n) mask operations; its channel set is
        decoded once, on first read of :attr:`disconnect_prone`.
        """
        full = index.full_mask
        survivors = full & ~crash_mask
        islands = list(island_masks)
        covered = 0
        for island in islands:
            if island & covered:
                raise InvalidFailurePatternError(
                    "islands overlap at {}".format(index.sorted_list(island & covered & full))
                )
            covered |= island
        if covered != survivors or crash_mask & ~full:
            raise InvalidFailurePatternError(
                "islands must cover exactly the survivors of the {} indexed processes: "
                "missing {}, extra {}".format(
                    len(index),
                    index.sorted_list(survivors & ~covered),
                    index.sorted_list(covered & ~survivors & full),
                )
            )
        rows = [0] * len(index)
        count = 0
        for island in islands:
            row = survivors & ~island
            for i in iter_bits(island):
                rows[i] = row
            count += popcount(island) * popcount(row)
        pattern = cls.__new__(cls)
        pattern._crash_prone = index.set_of(crash_mask)
        pattern._disconnect_prone = None
        pattern._name = name
        pattern._count = count
        pattern._encoding = (index, crash_mask, tuple(rows))
        return pattern


NO_FAILURES = FailurePattern.failure_free(name="no-failures")
"""The failure pattern allowing no failures at all."""
