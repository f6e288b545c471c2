"""Fundamental value types shared across the library.

The paper models a system as a set ``P`` of *processes* connected by
unidirectional *channels*: for every ordered pair ``(p, q)`` of distinct
processes there is a channel along which ``p`` can send messages to ``q``.
This module fixes the concrete Python representation of those notions:

* a :data:`ProcessId` is any hashable, ordered identifier (we use strings such
  as ``"a"`` or integers in tests and examples);
* a :data:`Channel` is an ordered pair ``(sender, receiver)``;
* :class:`ProcessSet` and :class:`ChannelSet` are thin frozen-set wrappers used
  where immutability matters (quorums, failure patterns).
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Tuple

ProcessId = Hashable
Channel = Tuple[ProcessId, ProcessId]

ProcessSet = FrozenSet[ProcessId]
ChannelSet = FrozenSet[Channel]


def process_set(processes: Iterable[ProcessId]) -> ProcessSet:
    """Return ``processes`` as an immutable :class:`frozenset`."""
    return frozenset(processes)


def channel_set(channels: Iterable[Channel]) -> ChannelSet:
    """Return ``channels`` as an immutable :class:`frozenset` of ordered pairs.

    Each element is normalised to a 2-tuple so that lists such as
    ``[["a", "b"]]`` are accepted.
    """
    return frozenset((src, dst) for src, dst in channels)


def sort_key(value: ProcessId):
    """Deterministic ordering key for heterogeneous process identifiers.

    Sorting by ``(type name, repr)`` keeps output deterministic even when a
    system mixes, say, integer and string identifiers.
    """
    return (type(value).__name__, repr(value))


def sorted_processes(processes: Iterable[ProcessId]) -> list:
    """Return ``processes`` sorted deterministically."""
    return sorted(processes, key=sort_key)


def sorted_channels(channels: Iterable[Channel]) -> list:
    """Return ``channels`` sorted deterministically."""
    return sorted(channels, key=lambda ch: (sort_key(ch[0]), sort_key(ch[1])))
