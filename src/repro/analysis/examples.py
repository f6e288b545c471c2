"""Executable versions of the paper's worked examples.

Each function reproduces one of the numbered examples from the paper and
returns a structured result, raising an assertion error if the paper's claim
does not hold in the implementation.  They are exercised both by the test
suite and by the E1/E2 benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..failures import FailProneSystem
from ..quorums import (
    GeneralizedQuorumSystem,
    QuorumSystem,
    discover_gqs,
    gqs_exists,
    threshold_quorum_system,
)
from ..types import ProcessSet, sorted_processes
from .figure1 import figure1_modified_fail_prone_system, figure1_quorum_system


@dataclass
class ExampleOutcome:
    """The outcome of replaying one worked example."""

    example: str
    claim: str
    holds: bool
    details: str = ""

    def __repr__(self) -> str:
        return "ExampleOutcome({}: {} -> {})".format(self.example, self.claim, self.holds)


def example_4_minority_fail_prone(n: int = 5) -> ExampleOutcome:
    """Example 4: the standard minority-crash model as a fail-prone system."""
    processes = ["p{}".format(i) for i in range(n)]
    system = FailProneSystem.minority_crashes(processes)
    k = (n - 1) // 2
    holds = all(len(f.crash_prone) <= k and not f.disconnect_prone for f in system)
    return ExampleOutcome(
        "Example 4",
        "any minority may crash, channels between correct processes are reliable",
        holds,
        "n={}, k={}, |F|={}".format(n, k, len(system)),
    )


def example_6_threshold_quorums(n: int = 5, k: int = 1) -> ExampleOutcome:
    """Example 6: read quorums of size >= n-k and write quorums of size >= k+1."""
    processes = ["p{}".format(i) for i in range(n)]
    system = threshold_quorum_system(processes, k)
    holds = system.is_valid()
    details = "n={}, k={}, |R|={}, |W|={}".format(
        n, k, len(system.read_quorums), len(system.write_quorums)
    )
    return ExampleOutcome(
        "Example 6", "the threshold construction is a classical quorum system", holds, details
    )


def example_8_figure1_is_gqs() -> ExampleOutcome:
    """Example 8: the Figure 1 triple is a generalized quorum system."""
    gqs = figure1_quorum_system()
    holds = gqs.is_valid()
    # The relaxation is real: no read quorum is strongly connected under its pattern.
    from ..quorums import is_f_available

    read_not_strongly_connected = all(
        not is_f_available(gqs.fail_prone, pattern, read_quorum)
        for pattern, read_quorum in zip(gqs.fail_prone.patterns, gqs.read_quorums)
    )
    return ExampleOutcome(
        "Example 8",
        "(F, R, W) of Figure 1 is a GQS although read quorums are not strongly connected",
        holds and read_not_strongly_connected,
        "valid={}, read quorums weakly connected only={}".format(
            holds, read_not_strongly_connected
        ),
    )


def example_9_termination_components() -> ExampleOutcome:
    """Example 9 (first part): U_{f1}..U_{f4} are the write quorums of Figure 1."""
    gqs = figure1_quorum_system()
    expected: Dict[str, ProcessSet] = {
        "f1": frozenset({"a", "b"}),
        "f2": frozenset({"b", "c"}),
        "f3": frozenset({"c", "d"}),
        "f4": frozenset({"d", "a"}),
    }
    actual = {
        pattern.name: gqs.termination_component(pattern) for pattern in gqs.fail_prone
    }
    holds = actual == expected
    return ExampleOutcome(
        "Example 9 (U_f)",
        "U_f1={a,b}, U_f2={b,c}, U_f3={c,d}, U_f4={d,a}",
        holds,
        str({k: sorted_processes(v) for k, v in actual.items()}),
    )


def example_9_modified_system_has_no_gqs() -> ExampleOutcome:
    """Example 9 (second part): F' (with channel (a, b) also failing) admits no GQS."""
    modified = figure1_modified_fail_prone_system()
    exists = gqs_exists(modified)
    return ExampleOutcome(
        "Example 9 (F')",
        "no R', W' form a generalized quorum system for F'",
        not exists,
        "discovery explored {} nodes".format(discover_gqs(modified).nodes_explored),
    )


def classical_is_special_case_of_gqs(n: int = 5, k: int = 2) -> ExampleOutcome:
    """Definition 1 vs 2: a classical quorum system is a valid GQS as-is."""
    processes = ["p{}".format(i) for i in range(n)]
    classical: QuorumSystem = threshold_quorum_system(processes, k)
    lifted = GeneralizedQuorumSystem.from_classical(classical)
    return ExampleOutcome(
        "Definition 2 ⊇ Definition 1",
        "a classical quorum system validates Definition 2 unchanged",
        lifted.is_valid(),
        "n={}, k={}".format(n, k),
    )


def run_all_examples() -> List[ExampleOutcome]:
    """Replay every worked example; used by the E1/E2 harnesses and the quickstart."""
    return [
        example_4_minority_fail_prone(),
        example_6_threshold_quorums(),
        example_8_figure1_is_gqs(),
        example_9_termination_components(),
        example_9_modified_system_has_no_gqs(),
        classical_is_special_case_of_gqs(),
    ]
