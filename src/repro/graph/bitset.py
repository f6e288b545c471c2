"""Integer-bitmask view of process sets and graphs.

The decision procedure spends nearly all of its time intersecting process sets
and computing reachability closures in residual graphs.  Both collapse to
machine-word operations once every process is assigned a fixed bit position:
a set of processes becomes a Python ``int``, set intersection becomes ``&``,
and a breadth-first closure unions whole successor rows in O(n/64) words per
step instead of hashing individual elements.

Two types are provided:

* :class:`ProcessIndex` — an immutable, deterministically ordered assignment
  of processes to bit positions (sorted with :func:`repro.types.sort_key`, so
  the mapping never depends on ``PYTHONHASHSEED``);
* :class:`BitsetDiGraph` — a directed graph whose adjacency is one successor
  mask and one predecessor mask per vertex, with reachability, backward
  reachability, and strongly connected components over masks; a graph
  complete on its vertices holds no rows, only its vertex mask.

The bitmask layer is the one graph currency of ``src/``: a network enters as a
channel list encoded by :meth:`ProcessIndex.failure_masks`, and
:meth:`BitsetDiGraph.to_digraph` is the one way back to a set-based
:class:`~repro.graph.digraph.DiGraph`.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..types import Channel, ProcessId, ProcessSet, sorted_processes
from .digraph import DiGraph

#: ``bin`` digits as ``compress`` selectors, and the bit count up to which a
#: mask is cheaper to decode bit by bit than by writing out its digits.
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")
_SPARSE_BITS = 8


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    return bin(mask).count("1")


if hasattr(int, "bit_count"):  # Python >= 3.10: the same count, without the string
    popcount = int.bit_count  # noqa: F811


def component_containing(components: Sequence[int], mask: int) -> Optional[int]:
    """The component mask containing *every* bit of ``mask``, or ``None``.

    ``components`` must be pairwise disjoint (e.g. the output of
    :meth:`BitsetDiGraph.scc_masks`), so the component holding the lowest bit
    of ``mask`` is the only one that could contain the rest.  An empty
    ``mask`` has no containing component.
    """
    if not mask:
        return None
    anchor = mask & -mask
    for component in components:
        if component & anchor:
            return component if not mask & ~component else None
    return None


def closure_mask(seeds: int, vertices: int, rows: Sequence[int]) -> int:
    """Breadth-first closure of ``seeds`` along ``rows`` inside ``vertices``.

    ``rows[i]`` is the successor (forward closure) or predecessor (backward
    closure) mask of vertex ``i``; rows of present vertices only mention
    present vertices.  Stops the moment every present vertex is covered: in
    the dense residual graphs of threshold systems the first row already is
    the whole graph, and the other rows of the frontier would add nothing.
    """
    reach = frontier = seeds & vertices
    while frontier:
        grown = reach
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            if grown == vertices:
                return vertices
            frontier ^= low
        frontier = grown & ~reach
        reach = grown
    return reach


def component_masks(vertices: int, succ: Sequence[int], pred: Sequence[int]) -> List[int]:
    """Strongly connected components of ``vertices``, ordered by lowest member bit.

    Each round anchors at the lowest unassigned vertex and intersects its
    forward and backward closures, so a strongly connected graph costs two
    (early-exiting) closures and yields ``[vertices]``.
    """
    components: List[int] = []
    remaining = vertices
    while remaining:
        component = anchor = remaining & -remaining
        i = anchor.bit_length() - 1
        # Earlier components are maximal, so the anchor's lies inside
        # ``remaining``: with no edge into it or none out of it, the anchor is
        # alone and neither closure is needed.
        if succ[i] & remaining and pred[i] & remaining:
            component = (
                closure_mask(anchor, vertices, succ)
                & closure_mask(anchor, vertices, pred)
                & remaining
            )
        components.append(component)
        remaining &= ~component
    return components


class ProcessIndex:
    """A fixed, deterministic process ↔ bit-position mapping.

    Processes are ordered with :func:`repro.types.sort_key`, so the same
    process set always produces the same mapping regardless of the hash seed
    or of the iteration order of the input.

    **Output order is bit order.**  Positions follow ``sort_key`` order, so a
    mask read from its lowest bit up is sorted, and so are rows of channels
    read source by source: :meth:`sorted_list` and :meth:`channel_list` decode
    in that order, and no renderer of a mask re-sorts or ``repr``-s members.
    """

    __slots__ = ("_processes", "_positions", "_full_mask")

    def __init__(self, processes: Iterable[ProcessId]) -> None:
        self._processes: Tuple[ProcessId, ...] = tuple(sorted_processes(set(processes)))
        self._positions: Dict[ProcessId, int] = {
            p: i for i, p in enumerate(self._processes)
        }
        self._full_mask = (1 << len(self._processes)) - 1

    @property
    def processes(self) -> Tuple[ProcessId, ...]:
        """All indexed processes, in bit-position order."""
        return self._processes

    @property
    def full_mask(self) -> int:
        """The mask with every indexed process's bit set."""
        return self._full_mask

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, process: ProcessId) -> bool:
        return process in self._positions

    def position(self, process: ProcessId) -> int:
        """Bit position of ``process``; raises ``KeyError`` if unindexed."""
        return self._positions[process]

    def process_at(self, position: int) -> ProcessId:
        """The process assigned to ``position``."""
        return self._processes[position]

    def mask_of(self, processes: Iterable[ProcessId]) -> int:
        """Encode a collection of processes as a bitmask."""
        mask = 0
        for p in processes:
            mask |= 1 << self._positions[p]
        return mask

    def set_of(self, mask: int) -> ProcessSet:
        """Decode a bitmask back into a frozen process set."""
        return frozenset(self.sorted_list(mask))

    def sorted_list(self, mask: int) -> List[ProcessId]:
        """The processes of ``mask`` in bit order, which is ``sort_key`` order.

        A dense mask's binary digits, lowest first, select from
        :attr:`processes` at C speed; a sparse one is decoded bit by bit.
        """
        processes = self._processes
        if popcount(mask) > _SPARSE_BITS:
            return list(compress(processes, bin(mask)[:1:-1].encode().translate(_SELECTORS)))
        members = []
        while mask:  # inline: a generator step per bit would cost twice as much
            low = mask & -mask
            members.append(processes[low.bit_length() - 1])
            mask ^= low
        return members

    def failure_masks(
        self, crashed: Iterable[ProcessId], channels: Iterable[Channel]
    ) -> Tuple[int, Sequence[int], Sequence[int]]:
        """Encode a failure pattern as ``(crash_mask, succ_clear, pred_clear)``.

        ``crash_mask`` has one bit per crashed process; ``succ_clear[i]`` is
        the mask of destinations whose channel from position ``i`` the pattern
        disconnects and ``pred_clear[j]`` the mask of sources whose channel
        into ``j`` it disconnects — the same channels, one row per endpoint,
        filled in one walk of ``channels``.  Both are empty sequences when no
        channel is listed.  Together they are the mask form consumed by
        :meth:`BitsetDiGraph.residual_masks`, decodable back with
        :meth:`set_of`/:meth:`channels_of`.  A process without a position
        raises ``KeyError``.
        """
        crash_mask = self.mask_of(crashed)
        if not channels:
            return crash_mask, (), ()
        positions = self._positions
        bits = [1 << i for i in range(len(self._processes))]  # looked up, not shifted, per channel
        succ_clear = [0] * len(bits)
        pred_clear = [0] * len(bits)
        for src, dst in channels:
            i = positions[src]
            j = positions[dst]
            succ_clear[i] |= bits[j]
            pred_clear[j] |= bits[i]
        return crash_mask, succ_clear, pred_clear

    def channels_of(self, succ_clear: Sequence[int]) -> FrozenSet[Channel]:
        """Decode per-source destination rows back into a channel set."""
        return frozenset(self.channel_list(succ_clear))

    def channel_list(self, succ_clear: Sequence[int]) -> List[Channel]:
        """The channels of per-source rows, in :func:`~repro.types.sorted_channels` order.

        Each distinct row is decoded once (an island pattern repeats one row per island).
        """
        channels: List[Channel] = []
        decoded: Dict[int, List[ProcessId]] = {}
        for source, row in zip(self._processes, succ_clear):
            if row:
                members = decoded.get(row)
                if members is None:
                    members = decoded[row] = self.sorted_list(row)
                channels.extend(zip(repeat(source), members))
        return channels

    def __repr__(self) -> str:
        return "ProcessIndex(n={})".format(len(self._processes))


class MaskReindex:
    """Order-preserving re-keying of masks from one :class:`ProcessIndex` to another.

    Both indexes sort by the same key, so the position map is monotone on the
    shared processes: it splits into a few segments of positions that all move
    by the same offset (bits below a joiner stay, bits from it up shift by
    one; a leave is the mirror image — two segments either way).  Re-keying
    is one mask-and-shift per segment, whatever the index size.  A mask naming
    a process without a position in ``target`` (it departed, or was never in
    ``source``) is refused, never silently moved.
    """

    __slots__ = ("target", "images", "_segments", "_unmapped")

    def __init__(self, source: ProcessIndex, target: ProcessIndex) -> None:
        self.target = target
        #: Target position per source position (``-1``: none).
        self.images: Tuple[int, ...] = tuple(
            target._positions.get(process, -1) for process in source.processes
        )
        segments: Dict[int, int] = {}  # offset -> the source bits moving by it
        shared = 0
        for i, j in enumerate(self.images):
            if j >= 0:
                segments[j - i] = segments.get(j - i, 0) | (1 << i)
                shared |= 1 << i
        self._segments = tuple(segments.items())
        self._unmapped = ~shared

    def is_identity(self) -> bool:
        """Whether both indexes hold the same processes (every mask maps to itself)."""
        return self.images == tuple(range(len(self.target)))

    def apply(self, mask: int) -> int:
        """``mask`` re-keyed to ``target``'s bit positions."""
        return self.apply_all((mask,))[0]

    def apply_all(self, masks: Sequence[int]) -> List[int]:
        """Every mask re-keyed: one list pass per segment, no per-mask call."""
        union = 0
        for mask in masks:
            union |= mask
        if union & self._unmapped:
            raise ValueError("mask names a process with no position in the target index")
        images = [0] * len(masks)
        for offset, segment in self._segments:
            if offset >= 0:
                images = [image | (m & segment) << offset for image, m in zip(images, masks)]
            else:
                images = [image | (m & segment) >> -offset for image, m in zip(images, masks)]
        return images

    def __repr__(self) -> str:
        return "MaskReindex({} -> {}, segments={})".format(
            len(self.images), len(self.target), len(self._segments)
        )


class BitsetDiGraph:
    """A directed graph stored as per-vertex successor/predecessor masks.

    Vertices are bit positions of a shared :class:`ProcessIndex`; a vertex may
    be absent (its bit unset in :attr:`vertex_mask`), which is how residual
    graphs drop crashed processes without re-indexing; the rows of present
    vertices only ever mention present vertices.  Instances are shared
    between caches and never edited after construction, so the component list
    and the components' reader closures are memoized on first use.  Rows of
    ``None`` mean complete on :attr:`vertex_mask`: the one component and its
    readers are born memoized, and a reader that needs rows builds its own.
    """

    __slots__ = ("index", "vertex_mask", "_succ", "_pred", "_sccs", "_readers")

    def __init__(
        self,
        index: ProcessIndex,
        vertex_mask: int,
        succ: Optional[List[int]],
        pred: Optional[List[int]],
    ) -> None:
        self.index = index
        self.vertex_mask = vertex_mask
        self._succ = succ
        self._pred = pred
        self._sccs: Optional[List[int]] = None
        self._readers: Optional[List[int]] = None
        if succ is None:  # complete: one component (none without vertices), its own readers
            self._sccs, self._readers = ([vertex_mask], [vertex_mask]) if vertex_mask else ([], [])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitsetDiGraph):
            return NotImplemented
        return self is other or (
            self.index.processes == other.index.processes
            and self.vertex_mask == other.vertex_mask
            and (self._succ is other._succ or all(
                self.successor_mask(i) == other.successor_mask(i) for i in range(len(self.index))
            ))
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def complete(cls, index: ProcessIndex) -> "BitsetDiGraph":
        """The complete graph on ``index``: a channel per ordered pair of processes."""
        return cls(index, index.full_mask, None, None)

    def to_digraph(self) -> DiGraph:
        """A fresh :class:`DiGraph` with the same vertices and edges, in position order."""
        index = self.index
        rows = [self.successor_mask(i) for i in range(len(index))]
        return DiGraph(index.sorted_list(self.vertex_mask), index.channel_list(rows))

    def reindexed(self, reindex: MaskReindex) -> "BitsetDiGraph":
        """The same graph over ``reindex.target``.

        Raises ``ValueError`` if a present vertex has no position there.  The
        memoized components and reader closures are carried along (a monotone
        re-index keeps their lowest-bit order).
        """
        # Only absent vertices may lack a position, and their rows are empty.
        vertex_mask = reindex.apply(self.vertex_mask)
        if self._succ is None:
            return BitsetDiGraph(reindex.target, vertex_mask, None, None)
        n = len(reindex.target)
        succ, pred = [0] * n, [0] * n
        rows = zip(reindex.images, reindex.apply_all(self._succ), reindex.apply_all(self._pred))
        for j, succ_row, pred_row in rows:
            if j >= 0:
                succ[j], pred[j] = succ_row, pred_row
        graph = BitsetDiGraph(reindex.target, vertex_mask, succ, pred)
        if self._sccs is not None:
            graph._sccs = reindex.apply_all(self._sccs)
        if self._readers is not None:
            graph._readers = reindex.apply_all(self._readers)
        return graph

    def with_hub(self, position: int) -> "BitsetDiGraph":
        """This graph plus the absent vertex ``position``, linked to and from every vertex."""
        bit = 1 << position
        if self._succ is None:
            return BitsetDiGraph(self.index, self.vertex_mask | bit, None, None)
        succ = list(self._succ)
        pred = list(self._pred)
        for i in iter_bits(self.vertex_mask):
            succ[i] |= bit
            pred[i] |= bit
        succ[position] = pred[position] = self.vertex_mask
        return BitsetDiGraph(self.index, self.vertex_mask | bit, succ, pred)

    def residual_masks(
        self, crash_mask: int, succ_clear: Sequence[int] = (), pred_clear: Sequence[int] = ()
    ) -> "BitsetDiGraph":
        """The residual graph of a failure pattern already encoded as masks.

        ``crash_mask`` holds the crashed vertices; ``succ_clear`` and
        ``pred_clear`` are the per-vertex rows of disconnected channels from
        :meth:`ProcessIndex.failure_masks` (both empty, or both one row per
        position).  Every row is cleared with one mask operation: large
        patterns disconnect tens of thousands of channels, and walking them
        bit by bit here would cost as much as encoding them did.
        """
        keep = ~crash_mask
        vertex_mask = self.vertex_mask & keep
        if self._succ is None:
            if not any(vertex_mask >> i & 1 for i, row in enumerate(succ_clear) if row & vertex_mask):
                # No cleared channel joins two survivors: still complete.
                return BitsetDiGraph(self.index, vertex_mask, None, None)
            bits = map((1).__lshift__, range(len(self.index)))
            rows = [vertex_mask ^ bit if vertex_mask & bit else 0 for bit in bits]
            succ = [row & ~clear if clear else row for row, clear in zip(rows, succ_clear)]
            pred = [row & ~clear if clear else row for row, clear in zip(rows, pred_clear)]
            return BitsetDiGraph(self.index, vertex_mask, succ, pred)
        if succ_clear:
            succ = [row & keep & ~clear for row, clear in zip(self._succ, succ_clear)]
            pred = [row & keep & ~clear for row, clear in zip(self._pred, pred_clear)]
        else:
            succ = [row & keep for row in self._succ]
            pred = [row & keep for row in self._pred]
        for i in iter_bits(crash_mask & self.index.full_mask):
            succ[i] = 0
            pred[i] = 0
        return BitsetDiGraph(self.index, vertex_mask, succ, pred)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def successor_mask(self, position: int) -> int:
        """Successors of the vertex at ``position`` as a mask."""
        if self._succ is None:
            return self.vertex_mask & ~(1 << position) if self.vertex_mask >> position & 1 else 0
        return self._succ[position]

    def predecessor_mask(self, position: int) -> int:
        """Predecessors of the vertex at ``position`` as a mask."""
        return self.successor_mask(position) if self._pred is None else self._pred[position]

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #
    def reachable_mask(self, sources: int) -> int:
        """Every vertex reachable from any source bit (sources included)."""
        if self._succ is None:
            return self.vertex_mask if sources & self.vertex_mask else 0
        return closure_mask(sources, self.vertex_mask, self._succ)

    def can_reach_mask(self, targets: int) -> int:
        """Every vertex from which some target bit is reachable (targets included)."""
        if self._pred is None:
            return self.reachable_mask(targets)
        return closure_mask(targets, self.vertex_mask, self._pred)

    def scc_masks(self) -> List[int]:
        """Strongly connected components as masks, ordered by lowest member bit.

        The order is canonical (ascending lowest bit position of each
        component), hence independent of both hash seed and traversal order.
        The list is memoized and shared: treat it as immutable.
        """
        if self._sccs is None:
            self._sccs = component_masks(self.vertex_mask, self._succ, self._pred)
        return self._sccs

    def reader_masks(self) -> List[int]:
        """``can_reach_mask`` of every component, in :meth:`scc_masks` order.

        Memoized and shared like the component list: ``(reader_masks()[k],
        scc_masks()[k])`` is the candidate quorum pair ``(CanReach(S), S)`` of
        Theorem 2 for the ``k``-th component.
        """
        if self._readers is None:
            self._readers = [self.can_reach_mask(c) for c in self.scc_masks()]
        return self._readers


__all__ = [
    "BitsetDiGraph",
    "MaskReindex",
    "ProcessIndex",
    "closure_mask",
    "component_containing",
    "component_masks",
    "iter_bits",
    "popcount",
]
