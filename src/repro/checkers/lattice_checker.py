"""Property checking for lattice agreement executions (paper §6).

Lattice agreement is not specified through linearizability but through three
direct conditions on the inputs and outputs of ``propose`` invocations:

* **Comparability** — any two outputs are comparable in the lattice order;
* **Downward validity** — each process's output dominates its own input;
* **Upward validity** — each output is dominated by the join of all inputs.

:func:`check_lattice_agreement` evaluates all three over a history of
``propose`` operations and reports every violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import HistoryError
from ..history import History
from ..protocols.lattice_agreement import SemiLattice, SetLattice

PROPOSE_KIND = "propose"


@dataclass
class LatticeCheckResult:
    """Outcome of a lattice-agreement property check."""

    comparability: bool = True
    downward_validity: bool = True
    upward_validity: bool = True
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether all three properties hold."""
        return self.comparability and self.downward_validity and self.upward_validity

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return (
            "LatticeCheckResult(comparability={}, downward={}, upward={}, violations={})".format(
                self.comparability,
                self.downward_validity,
                self.upward_validity,
                len(self.violations),
            )
        )


def check_lattice_agreement(
    history: History, lattice: Optional[SemiLattice] = None
) -> LatticeCheckResult:
    """Check the three lattice agreement conditions over a history of proposes.

    Only completed ``propose`` operations contribute outputs; every ``propose``
    invocation (completed or not) contributes its input to the join used by
    Upward validity, matching the specification ("the set of x_j for which
    propose(x_j) was invoked").
    """
    lattice = lattice if lattice is not None else SetLattice()
    for record in history:
        if record.kind != PROPOSE_KIND:
            raise HistoryError(
                "lattice agreement histories may only contain propose operations, got {!r}".format(
                    record.kind
                )
            )
    proposes = history.of_kind(PROPOSE_KIND)
    if not proposes:
        return LatticeCheckResult()

    result = LatticeCheckResult()
    inputs = [record.argument for record in proposes]
    outputs = [(record, record.result) for record in proposes if record.is_complete]
    all_inputs_join = lattice.join_all(inputs)

    for record, output in outputs:
        if not lattice.leq(record.argument, output):
            result.downward_validity = False
            result.violations.append(
                "downward validity: process {!r} proposed {!r} but output {!r}".format(
                    record.process_id, record.argument, output
                )
            )
        if not lattice.leq(output, all_inputs_join):
            result.upward_validity = False
            result.violations.append(
                "upward validity: output {!r} of process {!r} is not below the join "
                "of all inputs {!r}".format(output, record.process_id, all_inputs_join)
            )

    for i, (first_record, first) in enumerate(outputs):
        for second_record, second in outputs[i + 1 :]:
            if not lattice.comparable(first, second):
                result.comparability = False
                result.violations.append(
                    "comparability: outputs {!r} (process {!r}) and {!r} (process {!r}) "
                    "are incomparable".format(
                        first, first_record.process_id, second, second_record.process_id
                    )
                )
    return result
