"""Declared symmetries of fail-prone systems: groups of process permutations.

The production-scale families of :mod:`repro.failures.generators` are highly
symmetric — a ring is invariant under rotation, a zoned threshold system under
rotating its (equal-sized) zone blocks, a multi-region deployment under
permuting its secondary regions.  The decision procedure can exploit that
structure only if it is *declared*: a :class:`SymmetryGroup` is a finite
generator set of process permutations, each of which must map the network
graph onto itself and the pattern family onto itself.  Generators are
validated when the group is attached to a
:class:`~repro.failures.FailProneSystem`, so a declared symmetry is a checked
contract, not a hint.

Everything downstream works on the integer-bitmask fast path: a generator
becomes a :class:`~repro.graph.MaskPermutation` over the system's
:class:`~repro.graph.ProcessIndex`, orbits of patterns come with *transport*
permutations (the mask permutation carrying the orbit representative's
candidate structures onto each member), and canonical orbit representatives
are plain integer minima — deterministic regardless of hash seed or generator
order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import InvalidSymmetryError
from ..graph import DiGraph, MaskPermutation, ProcessIndex
from ..types import ProcessId, sorted_processes
from .pattern import FailurePattern

#: Safety cap for explicit group enumeration (tests and witness
#: canonicalization only; the search itself never enumerates the group).
DEFAULT_GROUP_ENUMERATION_LIMIT = 20000


class SymmetryGroup:
    """A generator set of process permutations declared for one system.

    Parameters
    ----------
    generators:
        Mappings ``process -> image``.  Processes missing from a mapping are
        fixed points, so a generator only needs to spell out the processes it
        moves.  Each mapping must be injective (and therefore, with the fixed
        points added, a bijection of the full process set onto itself — that
        part is validated against the system by :meth:`validate_for`).
    name:
        Optional label used in reports.
    """

    __slots__ = ("_generators", "_name")

    def __init__(
        self,
        generators: Iterable[Mapping[ProcessId, ProcessId]],
        name: Optional[str] = None,
    ) -> None:
        compiled: List[Dict[ProcessId, ProcessId]] = []
        for position, generator in enumerate(generators):
            mapping = {src: dst for src, dst in generator.items() if src != dst}
            if len(set(mapping.values())) != len(mapping):
                raise InvalidSymmetryError(
                    "generator {} is not injective".format(position)
                )
            if mapping:
                compiled.append(mapping)
        self._generators: Tuple[Dict[ProcessId, ProcessId], ...] = tuple(compiled)
        self._name = name

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def generators(self) -> Tuple[Mapping[ProcessId, ProcessId], ...]:
        """The (non-identity) generators, in declaration order."""
        return self._generators

    @property
    def name(self) -> Optional[str]:
        """Optional label of the group."""
        return self._name

    def is_trivial(self) -> bool:
        """Whether the group has no non-identity generator."""
        return not self._generators

    def __len__(self) -> int:
        return len(self._generators)

    def __repr__(self) -> str:
        label = self._name or "SymmetryGroup"
        return "{}(generators={})".format(label, len(self._generators))

    # ------------------------------------------------------------------ #
    # Action on processes, patterns and masks
    # ------------------------------------------------------------------ #
    @staticmethod
    def image_of_process(
        generator: Mapping[ProcessId, ProcessId], process: ProcessId
    ) -> ProcessId:
        """The image of one process (unmapped processes are fixed points)."""
        return generator.get(process, process)

    @classmethod
    def image_of_pattern(
        cls, generator: Mapping[ProcessId, ProcessId], pattern: FailurePattern
    ) -> FailurePattern:
        """The image of a failure pattern: crash set and channels mapped pointwise."""
        crash = [cls.image_of_process(generator, p) for p in pattern.crash_prone]
        channels = [
            (cls.image_of_process(generator, src), cls.image_of_process(generator, dst))
            for src, dst in pattern.disconnect_prone
        ]
        return FailurePattern(crash, channels, name=pattern.name)

    def bit_permutations(self, index: ProcessIndex) -> List[MaskPermutation]:
        """One :class:`MaskPermutation` per generator, over ``index``'s bits."""
        permutations = []
        for generator in self._generators:
            perm = [0] * len(index)
            for i, process in enumerate(index.processes):
                perm[i] = index.position(self.image_of_process(generator, process))
            permutations.append(MaskPermutation(perm))
        return permutations

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_for(
        self,
        processes: FrozenSet[ProcessId],
        graph: Optional[DiGraph],
        patterns: Sequence[FailurePattern],
    ) -> None:
        """Check every generator is an automorphism of ``(processes, graph, patterns)``.

        Raises :class:`~repro.errors.InvalidSymmetryError` when a generator
        moves a process outside the system, fails to be a bijection of the
        process set, breaks a network channel, or maps some pattern outside
        the declared family.  A complete network graph is invariant under any
        process bijection, so the per-edge check is skipped for it; a caller
        that already knows the graph is complete passes ``None``.
        """
        n = len(processes)
        complete = graph is None or graph.num_edges() == n * (n - 1)
        pattern_values = set(patterns)
        for position, generator in enumerate(self._generators):
            moved = set(generator)
            if not moved <= processes:
                raise InvalidSymmetryError(
                    "generator {} moves unknown processes {}".format(
                        position, sorted_processes(moved - processes)
                    )
                )
            images = {self.image_of_process(generator, p) for p in processes}
            if images != processes:
                raise InvalidSymmetryError(
                    "generator {} is not a bijection of the process set".format(position)
                )
            if not complete:
                for src, dst in graph.edges():
                    image = (
                        self.image_of_process(generator, src),
                        self.image_of_process(generator, dst),
                    )
                    if not graph.has_edge(*image):
                        raise InvalidSymmetryError(
                            "generator {} maps channel {!r} to {!r}, "
                            "which is not a network channel".format(
                                position, (src, dst), image
                            )
                        )
            for pattern in pattern_values:
                if self.image_of_pattern(generator, pattern) not in pattern_values:
                    raise InvalidSymmetryError(
                        "generator {} maps pattern {!r} outside the family".format(
                            position, pattern
                        )
                    )

    # ------------------------------------------------------------------ #
    # Orbits
    # ------------------------------------------------------------------ #
    def process_orbits(self, processes: Iterable[ProcessId]) -> List[List[ProcessId]]:
        """Orbits of the process set, each sorted, ordered by smallest member."""
        remaining = set(processes)
        orbits: List[List[ProcessId]] = []
        for anchor in sorted_processes(remaining):
            if anchor not in remaining:
                continue
            orbit = {anchor}
            frontier = [anchor]
            while frontier:
                grown = []
                for p in frontier:
                    for generator in self._generators:
                        image = self.image_of_process(generator, p)
                        if image not in orbit:
                            orbit.add(image)
                            grown.append(image)
                frontier = grown
            remaining -= orbit
            orbits.append(sorted_processes(orbit))
        return orbits

    def pattern_orbits(
        self, patterns: Sequence[FailurePattern]
    ) -> List[List[FailurePattern]]:
        """Orbits of the (distinct) pattern values, ordered by first occurrence.

        Patterns compare by value, so duplicated patterns belong to one orbit
        member.  Every orbit is listed representative-first, members in order
        of first occurrence in ``patterns``.
        """
        distinct: List[FailurePattern] = []
        for pattern in patterns:
            if pattern not in distinct:
                distinct.append(pattern)
        return [
            [distinct[i] for i in orbit_indices]
            for orbit_indices in self._orbit_indices(distinct)
        ]

    def _orbit_indices(self, distinct: Sequence[FailurePattern]) -> List[List[int]]:
        position_of = {pattern: i for i, pattern in enumerate(distinct)}
        seen = [False] * len(distinct)
        orbits: List[List[int]] = []
        for start in range(len(distinct)):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            frontier = [start]
            while frontier:
                grown = []
                for i in frontier:
                    for generator in self._generators:
                        image = self.image_of_pattern(generator, distinct[i])
                        j = position_of.get(image)
                        if j is not None and not seen[j]:
                            seen[j] = True
                            orbit.append(j)
                            grown.append(j)
                frontier = grown
            orbits.append(sorted(orbit))
        return orbits

    def orbit_transports(
        self, patterns: Sequence[FailurePattern], index: ProcessIndex
    ) -> Dict[FailurePattern, Tuple[FailurePattern, MaskPermutation]]:
        """Map every pattern to ``(representative, transport permutation)``.

        The representative of an orbit is its first member in ``patterns``
        order; the transport is a :class:`~repro.graph.MaskPermutation` whose
        image of the representative's residual masks equals the member's —
        i.e. a group element ``σ`` with ``σ(representative) = member``,
        compiled to bit positions.  Representatives transport by the identity.
        Deterministic: orbits are explored breadth-first in generator
        declaration order.
        """
        distinct: List[FailurePattern] = []
        for pattern in patterns:
            if pattern not in distinct:
                distinct.append(pattern)
        position_of = {pattern: i for i, pattern in enumerate(distinct)}
        bit_perms = self.bit_permutations(index)
        identity = MaskPermutation(list(range(len(index))))
        transports: Dict[FailurePattern, Tuple[FailurePattern, MaskPermutation]] = {}
        for start in range(len(distinct)):
            rep = distinct[start]
            if rep in transports:
                continue
            transports[rep] = (rep, identity)
            frontier = [rep]
            while frontier:
                grown = []
                for pattern in frontier:
                    carried = transports[pattern][1]
                    for generator, bit_perm in zip(self._generators, bit_perms):
                        image = self.image_of_pattern(generator, pattern)
                        if image in position_of and image not in transports:
                            transports[image] = (rep, bit_perm.compose(carried))
                            grown.append(image)
                frontier = grown
        return transports

    # ------------------------------------------------------------------ #
    # Explicit enumeration (small groups only)
    # ------------------------------------------------------------------ #
    def elements(
        self,
        index: ProcessIndex,
        limit: int = DEFAULT_GROUP_ENUMERATION_LIMIT,
    ) -> List[MaskPermutation]:
        """All group elements as mask permutations (identity included).

        Breadth-first closure of the generator set; raises
        :class:`~repro.errors.InvalidSymmetryError` if the group order exceeds
        ``limit``.  Used by witness canonicalization and the differential
        battery — the quotiented search itself only ever touches generators.
        """
        identity = tuple(range(len(index)))
        generators = [p.perm for p in self.bit_permutations(index)]
        seen = {identity}
        frontier = [identity]
        while frontier:
            grown = []
            for element in frontier:
                for generator in generators:
                    product = tuple(generator[i] for i in element)
                    if product not in seen:
                        if len(seen) >= limit:
                            raise InvalidSymmetryError(
                                "symmetry group has more than {} elements; "
                                "explicit enumeration refused".format(limit)
                            )
                        seen.add(product)
                        grown.append(product)
            frontier = grown
        return [MaskPermutation(list(element)) for element in sorted(seen)]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_cycles(
        cls,
        cycles: Iterable[Sequence[ProcessId]],
        name: Optional[str] = None,
    ) -> "SymmetryGroup":
        """One generator per cycle: ``(a, b, c)`` maps a→b, b→c, c→a."""
        generators = []
        for cycle in cycles:
            members = list(cycle)
            generators.append(
                {members[i]: members[(i + 1) % len(members)] for i in range(len(members))}
            )
        return cls(generators, name=name)


def block_permutation(
    blocks: Sequence[Sequence[ProcessId]], image_blocks: Sequence[Sequence[ProcessId]]
) -> Dict[ProcessId, ProcessId]:
    """A process mapping sending each block onto its image block, positionwise.

    All corresponding blocks must have equal length; the builders use this to
    spell zone/region permutations without enumerating processes by hand.
    """
    mapping: Dict[ProcessId, ProcessId] = {}
    for block, image in zip(blocks, image_blocks):
        if len(block) != len(image):
            raise InvalidSymmetryError(
                "cannot map a block of {} processes onto one of {}".format(
                    len(block), len(image)
                )
            )
        for src, dst in zip(block, image):
            mapping[src] = dst
    return mapping


__all__ = [
    "DEFAULT_GROUP_ENUMERATION_LIMIT",
    "SymmetryGroup",
    "block_permutation",
]
