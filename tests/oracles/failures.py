"""Set-based island patterns: the channel-list form the mask-born patterns replaced.

The zoned windows of :func:`repro.failures.large_threshold_system` and the
``wan-i`` epochs of :func:`repro.failures.multi_region_system` disconnect every
channel between survivors of different islands.  The library builds them as
bitmask rows (:meth:`repro.failures.FailurePattern.islands`); this module
spells the same pattern out channel by channel, the way the generators did
before, so a differential test can compare the two.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

from repro.failures import FailurePattern
from repro.types import Channel, ProcessId


def island_channels(
    survivors: Sequence[ProcessId], zone_of: Mapping[ProcessId, int]
) -> List[Channel]:
    """Channels among ``survivors`` that cross a zone boundary (the failed fabric)."""
    return [(p, q) for p in survivors for q in survivors if zone_of[p] != zone_of[q]]


def island_pattern(
    processes: Iterable[ProcessId],
    crash_prone: Iterable[ProcessId],
    zone_of: Mapping[ProcessId, int],
    name: Optional[str] = None,
) -> FailurePattern:
    """The channel-list pattern crashing ``crash_prone`` and cutting the rest into zones."""
    crashed = set(crash_prone)
    survivors = [p for p in processes if p not in crashed]
    return FailurePattern(crashed, island_channels(survivors, zone_of), name=name)
