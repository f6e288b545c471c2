"""End-to-end tight-bound verification (experiment E8).

Theorems 1 and 2 together say: a fail-prone system supports registers,
snapshots and lattice agreement (with termination inside ``U_f``) **iff** it
admits a generalized quorum system.  This module cross-checks the two sides on
concrete fail-prone systems:

* run the GQS decision procedure (:func:`repro.quorums.discover_gqs`);
* when a GQS exists, simulate the register/snapshot/lattice protocols under
  every failure pattern, checking that operations invoked inside ``U_f``
  terminate and that the resulting histories satisfy the object specification;
* when no GQS exists, report the non-existence certificate (the lower bound
  says no implementation can exist, which simulation obviously cannot prove —
  the discovery outcome *is* the paper's claim).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.metrics import ResultTable
from ..engine import ParallelRunner
from ..failures import FailProneSystem, FailurePattern
from ..quorums import DiscoveryResult, GeneralizedQuorumSystem, discover_gqs
from ..scenarios import run_built_scenario, workload_scenario
from ..types import sorted_processes


@dataclass
class PatternVerdict:
    """Result of verifying one failure pattern of a GQS-admitting system."""

    pattern: FailurePattern
    termination_component: List
    register_live: bool = False
    register_linearizable: bool = False
    snapshot_live: Optional[bool] = None
    snapshot_linearizable: Optional[bool] = None
    lattice_live: Optional[bool] = None
    lattice_correct: Optional[bool] = None

    @property
    def ok(self) -> bool:
        checks = [self.register_live, self.register_linearizable]
        for value in (
            self.snapshot_live,
            self.snapshot_linearizable,
            self.lattice_live,
            self.lattice_correct,
        ):
            if value is not None:
                checks.append(value)
        return all(checks)


@dataclass
class TightnessReport:
    """Full report of the tightness verification for one fail-prone system."""

    fail_prone: FailProneSystem
    discovery: DiscoveryResult
    verdicts: List[PatternVerdict] = field(default_factory=list)

    @property
    def all_patterns_ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def to_table(self) -> ResultTable:
        """Render the per-pattern verdicts as a result table."""
        table = ResultTable(
            title="E8: tightness verification for {}".format(self.fail_prone.name or "system"),
            columns=[
                "pattern",
                "U_f",
                "register live",
                "register linearizable",
                "snapshot ok",
                "lattice ok",
            ],
        )
        for verdict in self.verdicts:
            table.add_row(
                **{
                    "pattern": verdict.pattern.name or repr(verdict.pattern),
                    "U_f": ",".join(str(p) for p in verdict.termination_component),
                    "register live": verdict.register_live,
                    "register linearizable": verdict.register_linearizable,
                    "snapshot ok": (
                        "n/a"
                        if verdict.snapshot_live is None
                        else bool(verdict.snapshot_live and verdict.snapshot_linearizable)
                    ),
                    "lattice ok": (
                        "n/a"
                        if verdict.lattice_live is None
                        else bool(verdict.lattice_live and verdict.lattice_correct)
                    ),
                }
            )
        return table


def verify_pattern(
    quorum_system: GeneralizedQuorumSystem,
    pattern: FailurePattern,
    ops_per_process: int = 2,
    include_snapshot: bool = False,
    include_lattice: bool = False,
    seed: int = 0,
) -> PatternVerdict:
    """Verify liveness inside ``U_f`` and safety of the protocols under one pattern.

    Each protocol runs once, seeded with ``seed``, through
    :func:`~repro.scenarios.run_built_scenario` on the same
    :func:`~repro.scenarios.workload_scenario` ``repro simulate`` runs.
    """
    component = sorted_processes(quorum_system.termination_component(pattern))
    verdict = PatternVerdict(pattern=pattern, termination_component=component)

    def live_and_safe(kind: str):
        scenario = workload_scenario(quorum_system.fail_prone, kind, pattern.name, ops_per_process)
        row = run_built_scenario(scenario, quorum_system, pattern, seed)
        return row["completed"], row["safe"]

    verdict.register_live, verdict.register_linearizable = live_and_safe("register")
    if include_snapshot:
        verdict.snapshot_live, verdict.snapshot_linearizable = live_and_safe("snapshot")
    if include_lattice:
        verdict.lattice_live, verdict.lattice_correct = live_and_safe("lattice")
    return verdict


def verify_tightness(
    fail_prone: FailProneSystem,
    ops_per_process: int = 2,
    include_snapshot: bool = False,
    include_lattice: bool = False,
    seed: int = 0,
    jobs: int = 1,
) -> TightnessReport:
    """Run the full tightness verification for one fail-prone system.

    Pattern verifications are independent simulations, so with ``jobs > 1``
    they are fanned out across worker processes; verdicts come back in pattern
    order and each simulation is seeded identically either way, so the report
    does not depend on ``jobs``.
    """
    discovery = discover_gqs(fail_prone)
    report = TightnessReport(fail_prone=fail_prone, discovery=discovery)
    if not discovery.exists or discovery.quorum_system is None:
        return report
    runner = ParallelRunner(jobs=jobs)
    task = functools.partial(
        verify_pattern,
        discovery.quorum_system,
        ops_per_process=ops_per_process,
        include_snapshot=include_snapshot,
        include_lattice=include_lattice,
        seed=seed,
    )
    report.verdicts = runner.map(task, fail_prone.patterns)
    return report
