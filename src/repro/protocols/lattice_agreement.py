"""Single-shot lattice agreement built from atomic snapshots (paper §4, [11]).

In lattice agreement each process proposes a value from a join semi-lattice and
outputs a value such that (Comparability) all outputs are pairwise comparable,
(Downward validity) a process's output dominates its input, and (Upward
validity) every output is dominated by the join of all inputs.

The implementation follows the classical construction from atomic snapshots
(Attiya–Herlihy–Rachman): a process repeatedly writes its current accumulated
value into its snapshot segment and scans; when the join of the scanned values
equals what it wrote, it decides.  Because scans are atomic (totally ordered by
containment), decided values are joins of comparable sets and hence comparable.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, Iterable

from ..sim.network import Network
from ..sim.process import OperationHandle
from ..types import ProcessId
from .quorum_access import AnyQuorumSystem
from .snapshot import SnapshotProcess


class SemiLattice:
    """Interface of a join semi-lattice over arbitrary Python values."""

    def bottom(self) -> Any:
        """The least element (used as the starting accumulator)."""
        raise NotImplementedError

    def join(self, first: Any, second: Any) -> Any:
        """The least upper bound of two elements."""
        raise NotImplementedError

    def leq(self, first: Any, second: Any) -> bool:
        """The partial order: whether ``first <= second``."""
        raise NotImplementedError

    def join_all(self, values: Iterable[Any]) -> Any:
        """Join of a finite collection of elements (bottom when empty)."""
        result = self.bottom()
        for value in values:
            result = self.join(result, value)
        return result

    def comparable(self, first: Any, second: Any) -> bool:
        """Whether two elements are comparable."""
        return self.leq(first, second) or self.leq(second, first)


class SetLattice(SemiLattice):
    """The canonical powerset lattice: join is union, order is inclusion."""

    def bottom(self) -> FrozenSet[Any]:
        return frozenset()

    def join(self, first: Any, second: Any) -> FrozenSet[Any]:
        return frozenset(first) | frozenset(second)

    def leq(self, first: Any, second: Any) -> bool:
        return frozenset(first) <= frozenset(second)


class LatticeAgreementProcess(SnapshotProcess):
    """Single-shot lattice agreement over a (generalized) quorum system.

    ``propose(x)`` resolves to an output value satisfying the three lattice
    agreement conditions, provided the invoking process lies in the
    termination component ``U_f`` of the failure pattern in force.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        quorum_system: AnyQuorumSystem,
        push_interval: float = 1.0,
    ) -> None:
        super().__init__(pid, network, quorum_system, push_interval=push_interval)
        self.lattice = SetLattice()

    def propose(self, value: Any) -> OperationHandle:
        """Propose ``value``; resolves to the decided lattice element."""
        return self.start_operation("propose", value, self._propose_gen(value))

    def _propose_gen(self, value: Any) -> Generator:
        accumulated = self.lattice.join(self.lattice.bottom(), value)
        while True:
            # Publish the current accumulated value in this process's segment.
            yield from self._write_gen(accumulated)
            view: Dict[ProcessId, Any] = yield from self._scan_inner()
            others = [v for v in view.values() if v is not None]
            joined = self.lattice.join_all(others + [accumulated])
            if self.lattice.leq(joined, accumulated):
                return accumulated
            accumulated = joined
