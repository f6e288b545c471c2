"""Generalized quorum systems (Definition 2) and the component ``U_f`` (Proposition 1).

A generalized quorum system (GQS) ``(F, R, W)`` keeps the Consistency condition
of classical quorum systems but weakens Availability: for every failure pattern
``f`` there must exist a write quorum ``W`` that is

* ``f``-*available* — all of ``W`` is correct under ``f`` and strongly
  connected in the residual graph ``G \\ f``, and
* ``f``-*reachable* from some read quorum ``R`` — all of ``R`` is correct and
  every member of ``W`` can be reached from every member of ``R`` via a
  directed path of correct channels.

Crucially the read quorum need not be strongly connected, and reachability is
only required in one direction (R → W).  The module also computes ``U_f``, the
strongly connected component of ``G \\ f`` that contains every write quorum
validating Availability for ``f`` (Proposition 1); ``U_f`` is exactly the set
of processes at which the paper's protocols guarantee wait-freedom.

Every predicate here is evaluated on the bitmask view of the residual graph
(:meth:`repro.failures.FailProneSystem.residual_bitset`): a quorum is
``f``-available iff one strongly connected component of ``G \\ f`` contains
it, the read quorums it is ``f``-reachable from are those inside the
``CanReach`` closure of that component, and Consistency is ``r_mask & w_mask``.
Availability is decided component first: per component, one scan of the write
masks finds the first write quorum inside it and one scan of the read masks
the first read quorum inside its closure; ``is_available`` (hence ``check``)
first looks each component and its closure up in the families, and scans
only when that pair is missing.  Components and closures come from
the residual's memo, the one discovery reads its candidates from; the
search's choice is not read, so validating a discovered witness re-checks its
quorum families — the masks discovery handed over, never decoded — against
the residual graphs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import InvalidQuorumSystemError
from ..failures import FailProneSystem, FailurePattern
from ..graph import component_containing
from ..types import ProcessId, ProcessSet
from .classical import QuorumSystem, QuorumTriple, _first_inside


# ---------------------------------------------------------------------- #
# Availability under one pattern (§3)
# ---------------------------------------------------------------------- #
def is_f_available(
    fail_prone: FailProneSystem, pattern: FailurePattern, quorum: Iterable[ProcessId]
) -> bool:
    """Return whether ``quorum`` is ``f``-available under ``pattern``.

    The quorum must contain only processes correct according to ``pattern`` and
    be strongly connected (mutually reachable) in the residual graph.  An empty
    quorum, or one naming a process outside the system, is available under no
    pattern.
    """
    q = frozenset(quorum)
    if not q or not q <= fail_prone.processes:
        return False
    components = fail_prone.residual_bitset(pattern).scc_masks()
    mask = fail_prone.process_index.mask_of(q)
    return component_containing(components, mask) is not None


class GeneralizedQuorumSystem(QuorumTriple):
    """A generalized quorum system ``(F, R, W)`` (Definition 2).

    The fail-prone system may allow arbitrary process/channel failure
    patterns.  Consistency is that of Definition 1; Availability asks, per
    failure pattern ``f``, for an ``f``-available write quorum that is
    ``f``-reachable from some read quorum.
    """

    _UNAVAILABLE = (
        "no f-available write quorum reachable from a read quorum under pattern {!r}"
    )

    def _init(self, *args) -> None:
        self._u_cache: Dict[FailurePattern, ProcessSet] = {}
        super()._init(*args)

    def __repr__(self) -> str:
        return "GeneralizedQuorumSystem(n={}, |F|={}, |R|={}, |W|={})".format(
            len(self.processes), len(self._fail_prone), len(self._read_masks),
            len(self._write_masks),
        )

    def _validating(self, pattern: FailurePattern) -> List[Tuple[int, int, int]]:
        """The availability kernel: ``(write, read, home)`` per component validating ``pattern``.

        Per strongly connected component ``home`` of the residual graph (no
        crashed process is in one), one scan of each family: ``write`` is the
        first write position inside ``home`` — an available quorum — and
        ``read`` the first read position inside its ``CanReach`` closure.
        """
        residual = self._fail_prone.residual_bitset(pattern)
        validating = []
        for k, home in enumerate(residual.scc_masks()):
            write = _first_inside(self._write_masks, home)
            if write is not None:
                read = _first_inside(self._read_masks, residual.reader_masks()[k])
                if read is not None:
                    validating.append((write, read, home))
        return validating

    @cached_property
    def _family_sets(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        return frozenset(self._read_masks), frozenset(self._write_masks)

    def is_available(self, pattern: FailurePattern) -> bool:
        """Return whether Availability holds for ``pattern``.

        A component that is a write quorum, with its ``CanReach`` closure a
        read quorum, validates ``pattern`` — the shape of every discovered
        witness — and two set lookups certify it; otherwise
        :meth:`_validating`'s scans decide.
        """
        residual = self._fail_prone.residual_bitset(pattern)
        reads, writes = self._family_sets
        for k, home in enumerate(residual.scc_masks()):
            if home in writes and residual.reader_masks()[k] in reads:
                return True
        return bool(self._validating(pattern))

    def _available_positions(self, pattern: FailurePattern) -> Optional[Tuple[int, int]]:
        """The lowest write position whose home has a reader, with the first such reader."""
        validating = self._validating(pattern)
        if not validating:
            return None
        write, read, _ = min(validating)
        return read, write

    # ------------------------------------------------------------------ #
    # Proposition 1: the component U_f
    # ------------------------------------------------------------------ #
    def validating_write_quorums(self, pattern: FailurePattern) -> List[ProcessSet]:
        """Write quorums that validate Availability with respect to ``pattern``.

        These are the write quorums that are ``pattern``-available and
        reachable from at least one read quorum, in family order.
        """
        homes = [home for _, _, home in self._validating(pattern)]
        writes = self._decoded()[1]
        return [
            writes[j]
            for j, write_mask in enumerate(self._write_masks)
            if any(not write_mask & ~home for home in homes)
        ]

    def termination_component(self, pattern: FailurePattern) -> ProcessSet:
        """The component ``U_f`` of Proposition 1 for ``pattern``.

        ``U_f`` is the strongly connected component of the residual graph that
        contains the union of all write quorums validating Availability for
        ``pattern``.  It is the largest set of processes at which any
        implementation can guarantee termination (Theorems 1 and 2).  Returns
        the empty set when Availability does not hold for ``pattern`` (which
        cannot happen for a valid GQS).
        """
        if pattern in self._u_cache:
            return self._u_cache[pattern]
        u_f = self._fail_prone.process_index.set_of(self._termination_mask(pattern))
        self._u_cache[pattern] = u_f
        return u_f

    def _termination_mask(self, pattern: FailurePattern) -> int:
        """:meth:`termination_component` as a mask (0 when Availability fails)."""
        homes = [home for _, _, home in self._validating(pattern)]
        # Sanity: Proposition 1 guarantees the union is inside one component.
        if len(homes) > 1:
            raise InvalidQuorumSystemError(
                "validating write quorums are not strongly connected under {!r}; "
                "the quorum system violates Consistency or Availability".format(pattern)
            )
        return homes[0] if homes else 0

    # ------------------------------------------------------------------ #
    # Interoperability
    # ------------------------------------------------------------------ #
    @classmethod
    def from_classical(cls, system: QuorumSystem) -> "GeneralizedQuorumSystem":
        """Lift a classical quorum system into a (trivially valid) GQS.

        When the fail-prone system disallows channel failures between correct
        processes, Definition 2 degenerates to Definition 1, so the same
        quorum families work unchanged.
        """
        return cls(system.fail_prone, system.read_quorums, system.write_quorums)

    def describe(self) -> str:
        """Return a multi-line human-readable description of the GQS.

        Per pattern, :meth:`available_pair` and ``U_f``, decoded from their masks in bit order.
        """
        decode = self._fail_prone.process_index.sorted_list
        lines = [repr(self)]
        for i, f in enumerate(self._fail_prone):
            positions = self._available_positions(f)
            if positions is None:
                lines.append("  [{}] {!r}: UNAVAILABLE".format(i, f))
            else:
                r, w = positions
                lines.append(
                    "  [{}] {!r}: R={}, W={}, U_f={}".format(
                        i,
                        f,
                        decode(self._read_masks[r]),
                        decode(self._write_masks[w]),
                        decode(self._termination_mask(f)),
                    )
                )
        return "\n".join(lines)
