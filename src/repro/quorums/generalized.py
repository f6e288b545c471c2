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
Components and closures come from the residual's memo, the one discovery reads
its candidates from; the search's choice is not read, so validating a
discovered witness re-checks its quorum families against the residual graphs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidQuorumSystemError
from ..failures import FailProneSystem, FailurePattern
from ..graph import component_containing
from ..types import ProcessId, ProcessSet, sorted_processes
from .classical import QuorumSystem, QuorumTriple


# ---------------------------------------------------------------------- #
# Availability under one pattern (§3)
# ---------------------------------------------------------------------- #
def _quorum_mask(fail_prone: FailProneSystem, quorum: Iterable[ProcessId]) -> int:
    """``quorum`` over the system's process index; 0 if it cannot be correct.

    An empty quorum, or one naming a process outside the system, is correct
    under no pattern — both encode as the empty mask, which every predicate
    below rejects.
    """
    q = frozenset(quorum)
    if not q <= fail_prone.processes:
        return 0
    return fail_prone.process_index.mask_of(q)


def _available_write_quorums(
    fail_prone: FailProneSystem, pattern: FailurePattern, write_masks: Sequence[int]
) -> Iterator[Tuple[int, int, int]]:
    """The availability kernel: ``(position, home, readers)`` per ``f``-available write quorum.

    A write quorum is ``pattern``-available iff one strongly connected
    component of the residual graph — its ``home`` — contains it (crashed
    processes belong to no component, so its members are then all correct);
    ``readers`` is the ``CanReach`` closure of ``home``, and a read quorum
    reaches every member of the write quorum from every one of its own members
    iff it lies inside ``readers``, which the residual memoizes beside its
    components.  Positions are yielded in the order of ``write_masks``.
    """
    residual = fail_prone.residual_bitset(pattern)
    components = residual.scc_masks()
    for position, write_mask in enumerate(write_masks):
        home = component_containing(components, write_mask)
        if home is not None:
            yield position, home, residual.reader_masks()[components.index(home)]


def is_f_available(
    fail_prone: FailProneSystem, pattern: FailurePattern, quorum: Iterable[ProcessId]
) -> bool:
    """Return whether ``quorum`` is ``f``-available under ``pattern``.

    The quorum must contain only processes correct according to ``pattern`` and
    be strongly connected (mutually reachable) in the residual graph.
    """
    components = fail_prone.residual_bitset(pattern).scc_masks()
    return component_containing(components, _quorum_mask(fail_prone, quorum)) is not None


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

    def __init__(
        self,
        fail_prone: FailProneSystem,
        read_quorums: Iterable[Iterable[ProcessId]],
        write_quorums: Iterable[Iterable[ProcessId]],
        validate: bool = True,
    ) -> None:
        super().__init__(fail_prone, read_quorums, write_quorums, validate=validate)
        self._u_cache: Dict[FailurePattern, ProcessSet] = {}

    def __repr__(self) -> str:
        return "GeneralizedQuorumSystem(n={}, |F|={}, |R|={}, |W|={})".format(
            len(self.processes),
            len(self._fail_prone),
            len(self._read_quorums),
            len(self._write_quorums),
        )

    def available_pair(
        self, pattern: FailurePattern
    ) -> Optional[Tuple[ProcessSet, ProcessSet]]:
        """Return a ``(read, write)`` pair validating Availability under ``pattern``.

        The returned write quorum is ``pattern``-available and reachable from
        the returned read quorum; ``None`` when no such pair exists.
        """
        read_masks, write_masks = self._masks()
        for j, _, readers in _available_write_quorums(self._fail_prone, pattern, write_masks):
            for i, read_mask in enumerate(read_masks):
                if not read_mask & ~readers:
                    return self._read_quorums[i], self._write_quorums[j]
        return None

    # ------------------------------------------------------------------ #
    # Proposition 1: the component U_f
    # ------------------------------------------------------------------ #
    def _validating(self, pattern: FailurePattern) -> List[Tuple[int, int]]:
        """``(family position, home component)`` per write quorum validating ``pattern``."""
        read_masks, write_masks = self._masks()
        return [
            (j, home)
            for j, home, readers in _available_write_quorums(
                self._fail_prone, pattern, write_masks
            )
            if any(not read_mask & ~readers for read_mask in read_masks)
        ]

    def validating_write_quorums(self, pattern: FailurePattern) -> List[ProcessSet]:
        """Write quorums that validate Availability with respect to ``pattern``.

        These are the write quorums that are ``pattern``-available and
        reachable from at least one read quorum.
        """
        return [self._write_quorums[j] for j, _ in self._validating(pattern)]

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
        homes = {home for _, home in self._validating(pattern)}
        # Sanity: Proposition 1 guarantees the union is inside one component.
        if len(homes) > 1:
            raise InvalidQuorumSystemError(
                "validating write quorums are not strongly connected under {!r}; "
                "the quorum system violates Consistency or Availability".format(pattern)
            )
        u_f = self._fail_prone.process_index.set_of(homes.pop()) if homes else frozenset()
        self._u_cache[pattern] = u_f
        return u_f

    def termination_mapping(self) -> Dict[FailurePattern, ProcessSet]:
        """The mapping ``τ : f ↦ U_f`` used by Theorems 1 and 5."""
        return {f: self.termination_component(f) for f in self._fail_prone}

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
        """Return a multi-line human-readable description of the GQS."""
        lines = [repr(self)]
        for i, f in enumerate(self._fail_prone):
            pair = self.available_pair(f)
            u = self.termination_component(f)
            if pair is None:
                lines.append("  [{}] {!r}: UNAVAILABLE".format(i, f))
            else:
                r, w = pair
                lines.append(
                    "  [{}] {!r}: R={}, W={}, U_f={}".format(
                        i,
                        f,
                        sorted_processes(r),
                        sorted_processes(w),
                        sorted_processes(u),
                    )
                )
        return "\n".join(lines)
