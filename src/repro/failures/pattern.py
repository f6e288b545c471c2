"""Failure patterns: which processes may crash and which channels may disconnect.

A *failure pattern* is a pair ``f = (P, C)`` where ``P`` is a set of processes
that are allowed to crash and ``C`` a set of channels (between processes *not*
in ``P``) that are allowed to disconnect during a single execution.  Channels
incident to a crash-prone process are faulty by definition and therefore must
not appear in ``C`` — the constructor enforces this well-formedness condition
from the paper's system model (§2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import InvalidFailurePatternError
from ..graph import DiGraph
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

    __slots__ = ("_crash_prone", "_disconnect_prone", "_name")

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
        self._disconnect_prone = channels
        self._name = name

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def crash_prone(self) -> ProcessSet:
        """Processes allowed to crash under this pattern."""
        return self._crash_prone

    @property
    def disconnect_prone(self) -> ChannelSet:
        """Channels allowed to disconnect under this pattern."""
        return self._disconnect_prone

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
        return (src, dst) in self._disconnect_prone

    # ------------------------------------------------------------------ #
    # Residual graph
    # ------------------------------------------------------------------ #
    def residual_graph(self, graph: DiGraph) -> DiGraph:
        """Return the residual graph ``G \\ f``.

        All crash-prone processes, their incident channels, and all
        disconnect-prone channels are removed from ``graph``.
        """
        return graph.without(vertices=self._crash_prone, edges=self._disconnect_prone)

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
        for channel in self._disconnect_prone:
            if not other.is_faulty_channel(channel):
                return False
        return True

    def union(self, other: "FailurePattern", name: Optional[str] = None) -> "FailurePattern":
        """Combine two patterns into one that allows the failures of both.

        Channels that become incident to a crash-prone process are dropped from
        the explicit channel list (they are faulty by default).
        """
        crash = self._crash_prone | other._crash_prone
        channels = {
            ch
            for ch in (self._disconnect_prone | other._disconnect_prone)
            if ch[0] not in crash and ch[1] not in crash
        }
        return FailurePattern(crash, channels, name=name)

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailurePattern):
            return NotImplemented
        return (
            self._crash_prone == other._crash_prone
            and self._disconnect_prone == other._disconnect_prone
        )

    def __hash__(self) -> int:
        return hash((self._crash_prone, self._disconnect_prone))

    def __repr__(self) -> str:
        label = self._name or "FailurePattern"
        return "{}(crash={}, disconnect={})".format(
            label,
            sorted_processes(self._crash_prone),
            sorted_channels(self._disconnect_prone),
        )

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


NO_FAILURES = FailurePattern.failure_free(name="no-failures")
"""The failure pattern allowing no failures at all."""
