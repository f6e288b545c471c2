"""The strongly-connected quorum-system condition QS+ used as a baseline.

Section 1 of the paper discusses the "plausible conjecture" that tolerating
process/channel failures requires a quorum system in which, for every failure
pattern, the available read and write quorums are *strongly connected* by
correct channels (so that some process can run an ABD/Paxos-style
request/response exchange with both).  That condition — called QS+ in the paper
— is sufficient but, as the paper shows, **not necessary**.  We implement it so
the experiments can measure how many fail-prone systems admit a GQS but not a
QS+ (experiment E6).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import (
    InvalidQuorumSystemError,
    QuorumAvailabilityError,
    QuorumConsistencyError,
)
from ..failures import FailProneSystem, FailurePattern
from ..graph import component_containing, popcount
from ..types import ProcessId, ProcessSet, sorted_processes
from .classical import QuorumFamily, _normalise_family


class StrongQuorumSystem:
    """A quorum system with strongly-connected Availability (the QS+ of §1).

    Consistency is as in Definitions 1 and 2.  Availability requires, for every
    failure pattern ``f``, a read quorum ``R`` and a write quorum ``W`` of
    correct processes such that **all of ``R ∪ W`` is strongly connected** in
    the residual graph ``G \\ f``.
    """

    def __init__(
        self,
        fail_prone: FailProneSystem,
        read_quorums: Iterable[Iterable[ProcessId]],
        write_quorums: Iterable[Iterable[ProcessId]],
        validate: bool = True,
    ) -> None:
        self._fail_prone = fail_prone
        self._read_quorums = _normalise_family(read_quorums, fail_prone.processes)
        self._write_quorums = _normalise_family(write_quorums, fail_prone.processes)
        if validate:
            self.check()

    @property
    def fail_prone(self) -> FailProneSystem:
        """The fail-prone system ``F``."""
        return self._fail_prone

    @property
    def read_quorums(self) -> QuorumFamily:
        """The read-quorum family."""
        return self._read_quorums

    @property
    def write_quorums(self) -> QuorumFamily:
        """The write-quorum family."""
        return self._write_quorums

    def __repr__(self) -> str:
        return "StrongQuorumSystem(n={}, |R|={}, |W|={})".format(
            len(self._fail_prone.processes), len(self._read_quorums), len(self._write_quorums)
        )

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def consistency_violations(self) -> List[Tuple[ProcessSet, ProcessSet]]:
        """Return every ``(R, W)`` pair with an empty intersection."""
        return [
            (r, w)
            for r in self._read_quorums
            for w in self._write_quorums
            if not (r & w)
        ]

    def available_pair(
        self, pattern: FailurePattern
    ) -> Optional[Tuple[ProcessSet, ProcessSet]]:
        """A ``(read, write)`` pair whose union is correct and strongly connected."""
        mask_of = self._fail_prone.process_index.mask_of
        components = self._fail_prone.residual_bitset(pattern).scc_masks()
        read_masks = [mask_of(r) for r in self._read_quorums]
        for w in self._write_quorums:
            write_mask = mask_of(w)
            for r, read_mask in zip(self._read_quorums, read_masks):
                # Crashed processes belong to no component, so containment in
                # one component also certifies that both quorums are correct.
                if component_containing(components, read_mask | write_mask) is not None:
                    return r, w
        return None

    def is_available(self, pattern: FailurePattern) -> bool:
        """Return whether strongly-connected Availability holds for ``pattern``."""
        return self.available_pair(pattern) is not None

    def check(self) -> None:
        """Validate the QS+ conditions, raising on violation."""
        bad_pairs = self.consistency_violations()
        if bad_pairs:
            r, w = bad_pairs[0]
            raise QuorumConsistencyError(
                "read quorum {} does not intersect write quorum {}".format(
                    sorted_processes(r), sorted_processes(w)
                )
            )
        for f in self._fail_prone:
            if not self.is_available(f):
                raise QuorumAvailabilityError(
                    "no strongly connected read/write quorum pair under {!r}".format(f)
                )

    def is_valid(self) -> bool:
        """Return whether the triple satisfies Consistency and strong Availability."""
        try:
            self.check()
        except InvalidQuorumSystemError:
            return False
        return True


def strong_choice_exists(components_per_pattern: Sequence[Sequence[int]]) -> bool:
    """Mask-level core of :func:`strong_system_exists`.

    ``components_per_pattern`` holds, per failure pattern, the strongly
    connected components of the residual graph as bitmasks over one shared
    :class:`~repro.graph.ProcessIndex` (e.g.
    :meth:`~repro.graph.BitsetDiGraph.scc_masks` output).  A QS+ exists iff
    one component can be chosen per pattern with pairwise non-empty
    intersections, decided by backtracking over the patterns with the fewest
    components first; the Monte Carlo shards call this directly on sampled
    residual masks.
    """
    if any(not components for components in components_per_pattern):
        return False
    order = sorted(
        range(len(components_per_pattern)),
        key=lambda i: len(components_per_pattern[i]),
    )
    chosen: List[int] = []

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        for component in components_per_pattern[order[depth]]:
            if all(component & prev for prev in chosen):
                chosen.append(component)
                if backtrack(depth + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)


def strong_system_exists(fail_prone: FailProneSystem) -> bool:
    """Decide whether the fail-prone system admits *some* QS+.

    The canonical witness mirrors the GQS construction: for every failure
    pattern pick a strongly connected component ``S`` of the residual graph and
    use ``S`` both as read and write quorum (the union ``R ∪ W = S`` is then
    strongly connected by construction).  Taking whole components is without
    loss of generality — any valid QS+ quorums for ``f`` live inside a single
    component, and enlarging quorums can only help Consistency.  A QS+ exists
    iff components ``S_f`` can be chosen so that ``S_f ∩ S_g ≠ ∅`` for every
    pair of patterns, which :func:`strong_choice_exists` decides; larger
    components are offered first because they intersect more.
    """
    return strong_choice_exists(
        [
            sorted(fail_prone.residual_bitset(f).scc_masks(), key=popcount, reverse=True)
            for f in fail_prone
        ]
    )
