"""High-level typed facade over the library: one call per workflow.

Every workflow the CLI (or a notebook, or a service) needs is a single
function here, returning a typed result object that renders itself
(``to_text()`` is what the CLI prints, ``to_json()`` its ``--format json``) —
the CLI in :mod:`repro.cli` only picks the arguments and the exit status:

* :func:`resolve_system` — a fail-prone system from a JSON file or a
  ``--builtin`` name (both resolved through the topology registry);
* :func:`discover` / :func:`discovery_report` — the GQS decision procedure
  (Theorem 2), raw or wrapped with the per-pattern witness rows;
* :func:`classify` — which quorum conditions the system admits;
* :func:`repair` — minimal channel hardenings restoring tolerability;
* :func:`simulate` — seeded protocol runs (single or engine-fanned batches)
  with safety verdicts and optional trace recording;
* :func:`run_scenario` / :func:`sweep_scenarios` — the declarative scenario
  catalogue, by name or spec;
* :func:`sweep` — the Monte Carlo admissibility/reliability studies;
* :func:`check_traces` — parallel re-verification of recorded traces;
* :func:`hunt` / :func:`replay_schedule` / :func:`nemesis_corpus` — the
  guided nemesis: search a scenario's schedule space for badness, replay a
  persisted schedule against its incident record, summarise a corpus;
* :func:`run_examples` — the paper's worked examples.

All of it dispatches through :mod:`repro.registry`, so plugin-registered
protocols, topologies, delay models, checkers and scenarios work in every
facade call without any core change.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._lazy import lazy_exports
from .analysis.metrics import RunAggregates
from .egress import JsonDocument
from .errors import NoQuorumSystemExistsError, ReproError
from .registry import PROTOCOLS, loaded_plugins, plugin_contributions
from .types import ProcessId, sorted_channels

if TYPE_CHECKING:  # annotations only: each function imports the layers it runs
    from .analysis import ResultTable
    from .engine import ProgressCallback
    from .failures import FailProneSystem, FailurePattern
    from .montecarlo import AdmissibilityPoint, ReliabilityEstimate
    from .nemesis import HuntReport
    from .quorums import (
        DiscoveryResult,
        GeneralizedQuorumSystem,
        MembershipDelta,
        RepairReport,
        WatchOutcome,
    )
    from .scenarios import ScenarioSpec

#: Workflows that are exactly one layer function are that function, under the
#: facade's name: same object, same signature, same defaults.  Each layer is
#: imported on the first access to one of its names, like any other workflow's.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".analysis": {"run_examples": "run_all_examples"},
        ".nemesis": {
            "HuntReport": "HuntReport",
            "hunt": "hunt_scenario",
            "nemesis_corpus": "corpus_rows",
            "nemesis_corpus_table": "corpus_table",
            "replay_schedule": "replay_schedule_file",
        },
        ".scenarios": ("run_scenario", "sweep_scenarios"),
        ".traces": ("check_traces",),
    },
)

__all__ = [
    "ClassifyReport",
    "DiscoveryReport",
    "HuntReport",
    "MonteCarloSweep",
    "RepairOutcome",
    "SimulateReport",
    "check_traces",
    "classify",
    "discover",
    "discovery_report",
    "hunt",
    "nemesis_corpus",
    "plugin_rows",
    "protocol_safety_label",
    "repair",
    "replay_schedule",
    "resolve_system",
    "run_examples",
    "run_scenario",
    "simulate",
    "sweep",
    "sweep_scenarios",
]


# ---------------------------------------------------------------------- #
# System resolution
# ---------------------------------------------------------------------- #
def resolve_system(spec: Optional[str] = None, builtin: str = "figure1") -> FailProneSystem:
    """A fail-prone system from a JSON file path or a built-in name.

    ``spec`` (a path) wins when given; otherwise ``builtin`` is resolved
    through the topology registry's ``--builtin`` matchers, so plugin
    topologies are addressable by name too.
    """
    if spec is not None:
        from .serialization import load_fail_prone_system

        return load_fail_prone_system(spec)
    from .failures import builtin_fail_prone_system

    return builtin_fail_prone_system(builtin)


def _system_summary(system: FailProneSystem) -> Dict[str, Any]:
    return {
        "name": system.name,
        "num_processes": len(system.processes),
        "num_patterns": len(system.patterns),
        "processes": list(system.process_index.processes),
    }


#: The impossibility verdict, as ``check`` and ``quorums discover`` word it.
_NO_GQS_TEXT = (
    "NO generalized quorum system exists: by Theorem 2 the failure assumptions\n"
    "cannot be tolerated by any register/snapshot/lattice-agreement/consensus\n"
    "implementation (with any non-trivial liveness)."
)


# ---------------------------------------------------------------------- #
# Quorum-decision toolbox
# ---------------------------------------------------------------------- #
def discover(
    system: FailProneSystem,
    algorithm: str = "pruned",
    validate: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> DiscoveryResult:
    """Run the GQS decision procedure (Theorem 2) on ``system``."""
    from .quorums import discover_gqs

    return discover_gqs(system, validate=validate, algorithm=algorithm, progress=progress)


@dataclass
class DiscoveryReport(JsonDocument):
    """A :class:`DiscoveryResult` paired with its per-pattern witness rows."""

    system: FailProneSystem
    result: DiscoveryResult

    @property
    def exists(self) -> bool:
        return self.result.exists

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One row per failure pattern: candidates plus the chosen quorums, in process order."""
        rows = []
        for position, pattern in enumerate(self.system.patterns):
            chosen = self.result.choices.get(pattern)
            read, write = chosen.sorted_pair() if chosen else (None, None)
            rows.append(
                {
                    "pattern": pattern.label(position),
                    "candidates": self.result.candidates_per_pattern.get(pattern, 0),
                    "read_quorum": read,
                    "write_quorum": write,
                }
            )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON payload (byte-identical across hash seeds)."""
        return {
            "system": _system_summary(self.system),
            "algorithm": self.result.algorithm,
            "exists": self.result.exists,
            "nodes_explored": self.result.nodes_explored,
            "patterns": self.rows,
        }

    def to_text(self) -> str:
        """The system, then the per-pattern witness table or the impossibility verdict."""
        from .analysis.metrics import ResultTable, field_lines

        lines = [self.system.describe(), ""]
        effort = field_lines(
            18, ("algorithm", self.result.algorithm), ("nodes explored", self.result.nodes_explored)
        )
        if not self.exists:
            return "\n".join(lines + [_NO_GQS_TEXT, ""] + effort)
        table = ResultTable(
            "GQS witness (one candidate per failure pattern)",
            ["pattern", "candidates", "read quorum", "write quorum"],
        )
        for row in self.rows:
            table.add_row(**{
                "pattern": row["pattern"],
                "candidates": row["candidates"],
                "read quorum": ",".join(str(p) for p in row["read_quorum"]),
                "write quorum": ",".join(str(p) for p in row["write_quorum"]),
            })
        exists = field_lines(18, ("GQS exists", True))
        return "\n".join(lines + [table.to_text(), ""] + exists + effort)


def discovery_report(
    system: FailProneSystem,
    algorithm: str = "pruned",
    validate: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> DiscoveryReport:
    """:func:`discover` wrapped with the witness rows the CLI renders."""
    return DiscoveryReport(
        system, discover(system, algorithm=algorithm, validate=validate, progress=progress)
    )


@dataclass
class ClassifyReport(JsonDocument):
    """Which quorum conditions (classical / QS+ / generalized) a system admits."""

    system: FailProneSystem
    admits: Dict[str, bool]

    def to_dict(self) -> Dict[str, Any]:
        return {"system": _system_summary(self.system), "admits": dict(self.admits)}

    def to_text(self) -> str:
        from .analysis.metrics import field_lines

        conditions = field_lines(
            39,
            ("classical quorum system (Definition 1)", self.admits["classical"]),
            ("strongly connected QS+ (Section 1)", self.admits["strong"]),
            ("generalized quorum system (Definition 2)", self.admits["generalized"]),
        )
        return "\n".join([self.system.describe(), ""] + conditions)


def classify(system: FailProneSystem) -> ClassifyReport:
    """Classify ``system`` against the paper's three quorum conditions."""
    from .quorums import classify_fail_prone_system

    return ClassifyReport(system, classify_fail_prone_system(system))


@dataclass
class RepairOutcome(JsonDocument):
    """A channel-repair search result with its display/JSON projections."""

    system: FailProneSystem
    report: RepairReport

    @property
    def suggestions(self) -> List[List[List[str]]]:
        """Suggested channel sets as sorted, JSON-friendly nested lists."""
        return [
            [list(channel) for channel in sorted_channels(s.channels)]
            for s in self.report.suggestions
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": _system_summary(self.system),
            "already_tolerable": self.report.already_tolerable,
            "repairable": self.report.repairable,
            "max_channels": self.report.max_channels,
            "candidates_considered": self.report.candidates_considered,
            "candidates_reused": self.report.candidates_reused,
            "suggestions": self.suggestions,
        }

    def suggestion_lines(self, found: str) -> List[str]:
        """``found`` and one line per suggested channel set, or why there is none."""
        if not self.report.suggestions:
            return [
                "No repair found by hardening up to {} channel(s); the problem "
                "likely lies in the process failures.".format(self.report.max_channels)
            ]
        return [found] + [
            "  - {}".format(sorted_channels(s.channels)) for s in self.report.suggestions
        ]

    def to_text(self) -> str:
        from .analysis.metrics import field_lines

        report = self.report
        lines = [self.system.describe(), ""]
        if report.already_tolerable:
            return "\n".join(lines + [
                "The system already admits a generalized quorum system; nothing to repair."
            ])
        found = "Hardening any of the following channel sets restores a GQS:"
        lines += self.suggestion_lines(found)
        fields = [("hardenings tried", report.candidates_considered)]
        if report.suggestions:
            lines.append("")
            fields.append(("cache entries reused", report.candidates_reused))
        return "\n".join(lines + field_lines(18, *fields))


def repair(
    system: FailProneSystem,
    max_channels: int = 2,
    max_suggestions: Optional[int] = None,
) -> RepairOutcome:
    """Search for minimal channel hardenings that make ``system`` tolerable."""
    from .quorums import suggest_channel_repairs

    report = suggest_channel_repairs(
        system, max_channels=max_channels, max_suggestions=max_suggestions
    )
    return RepairOutcome(system, report)


@dataclass
class CheckReport(DiscoveryReport):
    """``repro check``'s view of a decision: the whole quorum system when one
    exists; the impossibility verdict — with the channel repairs that were
    searched for, if any were — when none does."""

    repair: Optional[RepairOutcome] = None

    def to_text(self) -> str:
        lines = [self.system.describe(), ""]
        if self.exists:
            lines += ["A generalized quorum system exists:", self.result.quorum_system.describe()]
        else:
            lines.append(_NO_GQS_TEXT)
            if self.repair is not None:
                lines.append("")
                lines += self.repair.suggestion_lines(
                    "Hardening any of the following channel sets would make the system tolerable:"
                )
        return "\n".join(lines)


@dataclass
class WatchReport(JsonDocument):
    """A :class:`~repro.quorums.WatchOutcome` with its display/JSON projections."""

    outcome: WatchOutcome

    @property
    def all_exist(self) -> bool:
        return self.outcome.all_exist

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One row per delta: verdict, search effort and reuse accounting."""
        rows = []
        for verdict in self.outcome.verdicts:
            rows.append(
                {
                    "delta": verdict.delta.describe(),
                    "exists": verdict.result.exists,
                    "nodes": verdict.result.nodes_explored,
                    "reused": "{}/{}".format(
                        verdict.candidates_reused, verdict.patterns_total
                    ),
                    "reuse": "{:.1%}".format(verdict.reuse_fraction),
                }
            )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON payload (byte-identical across hash seeds)."""
        initial = self.outcome.initial_result
        return {
            "system": _system_summary(self.outcome.initial),
            "algorithm": self.outcome.algorithm,
            "initial_exists": None if initial is None else initial.exists,
            "all_exist": self.outcome.all_exist,
            "final_num_processes": len(self.outcome.final.processes),
            "deltas": [verdict.to_dict() for verdict in self.outcome.verdicts],
        }

    def to_text(self) -> str:
        from .analysis.metrics import ResultTable

        table = ResultTable(
            "Recertification under membership churn",
            ["delta", "exists", "nodes", "reused", "reuse"],
            self.rows,
        )
        return "\n".join([
            self.outcome.initial.describe(), "", table.to_text(), "",
            "all deltas tolerable: {}".format(self.all_exist),
        ])


def watch_quorums(
    system: FailProneSystem,
    deltas: Union[str, Sequence[MembershipDelta]],
    algorithm: str = "pruned",
) -> WatchReport:
    """Recertify GQS existence after each membership delta in ``deltas``.

    ``deltas`` is either a path to a JSONL membership-delta stream (see
    :mod:`repro.quorums.incremental` for the format) or a sequence of
    :class:`~repro.quorums.MembershipDelta` objects.  Each delta's
    recertification reuses every per-pattern structure the delta preserved,
    which is what makes watching a large deployment cheap.
    """
    from .quorums import load_deltas, watch_deltas

    if isinstance(deltas, str):
        deltas = load_deltas(deltas)
    return WatchReport(watch_deltas(system, deltas, algorithm=algorithm))


# ---------------------------------------------------------------------- #
# Protocol simulation
# ---------------------------------------------------------------------- #
def protocol_safety_label(kind: str, verdict: bool) -> str:
    """The human-readable safety verdict line for one protocol kind."""
    descriptor = PROTOCOLS.get(kind)
    label = descriptor.extras.get("safety_label")
    if label is None:
        return "safe={}".format(verdict)
    return label(verdict)


def _simulate_run(
    scenario: ScenarioSpec,
    gqs: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
    root_seed: int,
    record_dir: Optional[str],
    item: Tuple[int, int],
) -> Dict[str, Any]:
    """:func:`~repro.scenarios.run_built_scenario` on ``item = (run_index, seed)``,
    last so ``simulate(runs=N, jobs=M)`` can map seeded runs over workers."""
    from .scenarios import run_built_scenario

    run_index, seed = item
    return run_built_scenario(
        scenario, gqs, pattern, seed, run_index=run_index, root_seed=root_seed, record_dir=record_dir
    )


@dataclass
class SimulateReport(RunAggregates, JsonDocument):
    """The aggregate of one ``simulate`` call (single run or a seeded batch):
    one :func:`~repro.scenarios.run_built_scenario` row per run."""

    protocol: str
    pattern: Optional[str]
    root_seed: int
    invokers: List[ProcessId]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def gates_on_safety(self) -> bool:
        """Whether a failed verdict should fail the invocation.

        Protocols tagged ``no-safety-claim`` (the Paxos baseline) report their
        verdict but never gate on it.
        """
        return not PROTOCOLS.get(self.protocol).has_tag("no-safety-claim")

    @property
    def exit_ok(self) -> bool:
        return self.ok or not self.gates_on_safety

    def safety_label(self, verdict: bool) -> str:
        return protocol_safety_label(self.protocol, verdict)

    def to_dict(self) -> Dict[str, Any]:
        return dict(asdict(self), runs=self.runs)

    def to_text(self) -> str:
        """The aggregates over the batch, each with a note saying over what; a
        single run is a batch of one printed without the notes."""
        from .analysis.metrics import field_lines

        def noted(value: Any, note: str) -> str:
            return str(value) if self.runs == 1 else "{} ({})".format(value, note)

        if self.runs == 1:
            batch = ("invoked at", self.invokers)
        else:
            batch = ("runs", "{} (seeds spawned from {})".format(self.runs, self.root_seed))
        return "\n".join(field_lines(
            18,
            ("object", self.protocol),
            ("failure pattern", self.pattern if self.pattern is not None else "none"),
            batch,
            ("all ops completed",
             noted(self.all_completed, "{}/{} runs".format(self.completed_runs, self.runs))),
            ("safety", noted(
                self.safety_label(self.all_safe), "{}/{} runs".format(self.safe_runs, self.runs))),
            ("mean latency", noted("{:.2f}".format(self.mean_latency), "avg over runs")),
            ("max latency", noted("{:.2f}".format(self.max_latency), "max over runs")),
            ("messages sent", noted(self.total_messages, "total")),
        ))


def simulate(
    system: FailProneSystem,
    protocol: str = "register",
    pattern: Optional[str] = None,
    ops: int = 2,
    seed: int = 0,
    runs: int = 1,
    jobs: int = 1,
    record_traces: Optional[str] = None,
) -> SimulateReport:
    """Run a registered protocol on the simulated network under a failure pattern.

    The GQS the protocol runs over is discovered from ``system`` first; a
    system admitting none raises :class:`NoQuorumSystemExistsError`.  Each run
    is :func:`~repro.scenarios.run_built_scenario` on the protocol's
    :func:`~repro.scenarios.workload_scenario`.  With ``runs > 1`` the seeded
    repetitions are spawned deterministically from ``seed`` and fanned out
    over ``jobs`` workers — the aggregate depends only on ``(seed, runs)``,
    never on the job count.
    """
    from .engine import ParallelRunner, spawn_seeds
    from .experiments import default_invokers
    from .scenarios import workload_scenario
    from .traces import ensure_trace_directory

    PROTOCOLS.get(protocol)  # fail fast (rich error) on an unknown protocol
    if ops < 1 or runs < 1:
        raise ReproError(
            "simulate needs at least 1 operation per process and at least 1 run "
            "(got ops={}, runs={}); an empty run would report vacuous "
            "liveness/safety".format(ops, runs)
        )
    failure = system.pattern_named(pattern)  # a misnamed pattern fails before discovery
    result = discover(system)
    if not result.exists or result.quorum_system is None:
        raise NoQuorumSystemExistsError(
            "the fail-prone system admits no generalized quorum system; nothing to simulate"
        )
    gqs = result.quorum_system
    ensure_trace_directory(record_traces)

    scenario = workload_scenario(system, protocol, pattern, ops)
    task = functools.partial(_simulate_run, scenario, gqs, failure, seed, record_traces)
    # One run's seed is the root seed itself: nothing is spawned.
    seeds = [seed] if runs == 1 else spawn_seeds(seed, runs, "simulate", protocol)
    runner = ParallelRunner(jobs=jobs if runs > 1 else 1)
    return SimulateReport(
        protocol=protocol, pattern=pattern, root_seed=seed,
        invokers=default_invokers(gqs, failure), rows=runner.map(task, enumerate(seeds)),
    )


# ---------------------------------------------------------------------- #
# Monte Carlo studies
# ---------------------------------------------------------------------- #
@dataclass
class MonteCarloSweep(JsonDocument):
    """The outcome of the Monte Carlo studies ``repro sweep`` runs."""

    admissibility: Optional[List[AdmissibilityPoint]] = None
    reliability: Optional[List[ReliabilityEstimate]] = None

    def to_text(self) -> str:
        """The table of each study that ran, admissibility first."""
        from .montecarlo import admissibility_table, reliability_table

        lines = []
        if self.admissibility is not None:  # a blank line follows it, study or no study after
            lines += [admissibility_table(self.admissibility).to_text(), ""]
        if self.reliability is not None:
            lines.append(reliability_table(self.reliability).to_text())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view: raw counters plus the derived fractions."""
        data: Dict[str, Any] = {}
        if self.admissibility is not None:
            data["admissibility"] = [
                dict(
                    asdict(point),
                    generalized_fraction=point.generalized_fraction,
                    strong_fraction=point.strong_fraction,
                    classical_fraction=point.classical_fraction,
                )
                for point in self.admissibility
            ]
        if self.reliability is not None:
            data["reliability"] = [
                dict(
                    asdict(estimate),
                    gqs_availability=estimate.gqs_availability,
                    strong_availability=estimate.strong_availability,
                    classical_availability=estimate.classical_availability,
                )
                for estimate in self.reliability
            ]
        return data


def sweep(
    kind: str = "all",
    probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.5),
    n: int = 5,
    patterns: int = 3,
    samples: int = 40,
    seed: int = 0,
    jobs: int = 1,
    progress_factory: Optional[Callable[[str], ProgressCallback]] = None,
) -> MonteCarloSweep:
    """Run the Monte Carlo studies: quorum-condition admissibility and/or the
    availability of the Figure 1 quorums.

    ``kind`` is ``"admissibility"``, ``"reliability"`` or ``"all"``;
    ``progress_factory(label)`` supplies an optional per-study progress
    callback.  Results depend only on ``seed`` — never on ``jobs``.
    """
    from .analysis import figure1_quorum_system
    from .montecarlo import admissibility_sweep, reliability_sweep

    if kind not in ("admissibility", "reliability", "all"):
        raise ReproError(
            "unknown sweep kind {!r}; expected one of {}".format(
                kind, ["admissibility", "all", "reliability"]
            )
        )
    for name, value in (("samples", samples), ("n", n), ("patterns", patterns)):
        if value < 1:
            raise ReproError("sweep needs {} >= 1 (got {})".format(name, value))
    if not all(0.0 <= p <= 1.0 for p in probs):  # nan fails both comparisons
        raise ReproError("sweep probabilities must lie in [0, 1] (got {})".format(list(probs)))
    outcome = MonteCarloSweep()
    if kind in ("admissibility", "all"):
        outcome.admissibility = admissibility_sweep(
            disconnect_probs=tuple(probs),
            n=n,
            num_patterns=patterns,
            samples=samples,
            seed=seed,
            jobs=jobs,
            progress=progress_factory("admissibility") if progress_factory else None,
        )
    if kind in ("reliability", "all"):
        outcome.reliability = reliability_sweep(
            figure1_quorum_system(),
            disconnect_probs=tuple(probs),
            samples=samples,
            seed=seed,
            jobs=jobs,
            progress=progress_factory("reliability") if progress_factory else None,
        )
    return outcome


# ---------------------------------------------------------------------- #
# Plugin introspection (``repro plugins list``)
# ---------------------------------------------------------------------- #
def plugin_rows() -> List[Dict[str, str]]:
    """One row per plugin-contributed descriptor, in load then registry order."""
    rows = []
    for module in loaded_plugins():
        contributions = plugin_contributions(module)
        for descriptor in contributions:
            rows.append(
                {
                    "plugin": module,
                    "kind": descriptor.kind,
                    "name": descriptor.name,
                    "description": descriptor.doc,
                }
            )
        if not contributions:
            rows.append(
                {"plugin": module, "kind": "-", "name": "-", "description": "(no registrations)"}
            )
    return rows


def plugin_table() -> ResultTable:
    """The ``repro plugins list`` table."""
    from .analysis import ResultTable

    return ResultTable(
        "loaded plugins: {}".format(len(loaded_plugins())),
        ("plugin", "kind", "name", "description"),
        plugin_rows(),
    )
