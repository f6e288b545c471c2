"""Repair suggestions for intolerable fail-prone systems.

When a fail-prone system admits no generalized quorum system, the practical
question is *what minimal extra reliability would make it tolerable* — e.g.
"which link do we need to harden (or which process do we need to make
reliable) so that registers/consensus become implementable again?".

This module answers the channel version of that question by searching for
minimal sets of channels which, if guaranteed reliable (removed from every
failure pattern's disconnect set), make the system admit a GQS.  It is the
constructive counterpart of Example 9: the modified system ``F'`` is
intolerable, and hardening the single channel ``(a, b)`` repairs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..failures import FailProneSystem, FailurePattern
from ..types import Channel, sorted_channels
from .discovery import gqs_exists


@dataclass
class RepairSuggestion:
    """One minimal set of channels whose hardening restores GQS existence."""

    channels: FrozenSet[Channel]

    def __repr__(self) -> str:
        return "RepairSuggestion({})".format(sorted_channels(self.channels))


@dataclass
class RepairReport:
    """Outcome of a channel-repair search."""

    fail_prone: FailProneSystem
    already_tolerable: bool
    suggestions: List[RepairSuggestion] = field(default_factory=list)
    candidates_considered: int = 0
    max_channels: int = 0
    #: Patterns, summed over all hardened variants, whose residual (and with it
    #: the memoized candidates) was adopted from the base system instead of
    #: being recomputed (patterns untouched by a hardening keep theirs).
    candidates_reused: int = 0

    @property
    def repairable(self) -> bool:
        """Whether some suggestion (or nothing at all) makes the system tolerable."""
        return self.already_tolerable or bool(self.suggestions)


def harden_channels(
    fail_prone: FailProneSystem, channels: Sequence[Channel]
) -> FailProneSystem:
    """Return a copy of ``fail_prone`` in which ``channels`` are guaranteed reliable.

    Each listed channel is removed from every pattern's disconnect set.  Note
    that channels incident to crash-prone processes remain faulty by default —
    hardening a channel does not make its endpoints reliable.

    Patterns that list none of the hardened channels are value-identical in
    the returned system, which shares ``fail_prone``'s network, so every
    residual ``fail_prone`` already built for such a pattern — discovery
    candidates included — is adopted instead of re-derived (see
    :meth:`FailProneSystem.adopt_residuals`).
    """
    hardened = set((src, dst) for src, dst in channels)
    patterns = []
    for pattern in fail_prone.patterns:
        if pattern.disconnect_prone.isdisjoint(hardened):
            patterns.append(pattern)  # untouched: not walked, not re-validated
            continue
        remaining = [ch for ch in pattern.disconnect_prone if ch not in hardened]
        patterns.append(FailurePattern(pattern.crash_prone, remaining, name=pattern.name))
    system = fail_prone._derive(patterns, name=fail_prone.name)
    system.adopt_residuals(fail_prone, {f: f for f in patterns})
    return system


def suggest_channel_repairs(
    fail_prone: FailProneSystem,
    max_channels: int = 2,
    max_suggestions: Optional[int] = None,
) -> RepairReport:
    """Search for minimal channel sets whose hardening makes a GQS exist.

    The search enumerates subsets (up to ``max_channels``) of the channels that
    appear in some pattern's disconnect set, smallest subsets first, and keeps
    only inclusion-minimal ones.  It is exponential in ``max_channels`` but the
    candidate pool is small for realistic fail-prone systems.  Budgets below
    1 are rejected: an empty search would read as "no channel repair exists".
    """
    if max_channels < 1:
        raise ReproError("repair needs max_channels >= 1 (got {})".format(max_channels))
    if max_suggestions is not None and max_suggestions < 1:
        raise ReproError("repair needs max_suggestions >= 1 (got {})".format(max_suggestions))
    report = RepairReport(
        fail_prone=fail_prone,
        already_tolerable=gqs_exists(fail_prone),
        max_channels=max_channels,
    )
    if report.already_tolerable:
        return report
    # Deciding the base built every base residual, so a hardened pattern the
    # base also has is exactly one whose candidates harden_channels carried.
    base_patterns = set(fail_prone.patterns)

    candidate_channels: Tuple[Channel, ...] = tuple(
        sorted_channels({ch for pattern in fail_prone for ch in pattern.disconnect_prone})
    )
    found: List[FrozenSet[Channel]] = []
    for size in range(1, max_channels + 1):
        for combo in itertools.combinations(candidate_channels, size):
            subset = frozenset(combo)
            if any(existing <= subset for existing in found):
                continue  # a smaller repair already covers this one
            report.candidates_considered += 1
            hardened = harden_channels(fail_prone, combo)
            report.candidates_reused += sum(1 for f in hardened.patterns if f in base_patterns)
            if gqs_exists(hardened):
                found.append(subset)
                report.suggestions.append(RepairSuggestion(subset))
                if max_suggestions is not None and len(found) >= max_suggestions:
                    return report
    return report
