"""The nemesis hunt: generation loop, report, and corpus persistence.

:func:`hunt_scenario` searches a scenario's schedule space for badness:

1. **Seed.**  ``seeds`` identity schedules are built from the scenario's own
   per-run seed stream (the exact seeds ``repro scenario run`` would use, so
   seed schedules *are* recorded runs) — or, with ``from_traces``, from the
   runs recorded in an existing trace directory.  All are evaluated first as
   the baseline.
2. **Search.**  Generations of a fixed ``batch`` size: for each slot the
   strategy picks a parent, :func:`~repro.nemesis.mutate.mutate_schedule`
   derives a child with a per-candidate seed
   (``derive_seed(root, "nemesis", generation, slot, …)``), and the batch is
   evaluated over the engine's worker pool.  Observations are folded back in
   slot order, so the search trajectory — and hence the report and corpus —
   is a pure function of ``(scenario, strategy, budget, seeds, batch, seed)``,
   byte-identical for every ``--jobs`` count and hash seed.
3. **Persist.**  With a corpus directory, every surviving schedule is re-run
   with recording on (deterministic replay — identical history, identical
   verdict) and lands as an ordinary trace-store file plus a schedule file
   and an incident report; ``report.json`` summarises the hunt.  The corpus
   is a plain trace directory: ``repro check DIR`` re-verifies it unchanged.

Batch size is deliberately decoupled from ``jobs``: the worker pool only ever
sees one already-determined batch at a time, so parallelism changes wall
clock, never the trajectory.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import egress, ingress
from ..analysis.metrics import ResultTable, field_lines
from ..engine import ParallelRunner, ProgressCallback, derive_seed
from ..errors import ReproError
from ..failures import FailurePattern
from ..quorums import GeneralizedQuorumSystem
from ..scenarios import ScenarioSpec, get_scenario
from ..scenarios.builders import build_quorum_system, build_topology
from ..scenarios.runner import scenario_batch
from ..traces import (
    INCIDENT_SUFFIX,
    build_incident,
    ensure_trace_directory,
    incident_file_name,
    list_trace_files,
    load_trace,
)
from .mutate import mutate_schedule
from .schedule import (
    SCHEDULE_SUFFIX,
    Schedule,
    evaluate_schedule,
    identity_schedule,
)
from .strategies import Evaluation, HuntState, build_strategy

__all__ = [
    "CORPUS_COLUMNS",
    "DEFAULT_BATCH",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED_SCHEDULES",
    "HUNT_COLUMNS",
    "HuntReport",
    "corpus_rows",
    "corpus_table",
    "hunt_scenario",
    "replay_schedule_file",
]

#: Mutant evaluations per hunt unless overridden.
DEFAULT_BUDGET = 32

#: Identity (seed) schedules evaluated as the baseline.
DEFAULT_SEED_SCHEDULES = 2

#: Candidates per generation — fixed, and deliberately *not* derived from the
#: worker count, so the search trajectory is jobs-independent.
DEFAULT_BATCH = 4

#: Columns of the hunt's candidate table.
HUNT_COLUMNS = (
    "candidate",
    "kind",
    "gen",
    "parent",
    "mutation",
    "score",
    "explored",
    "stalled",
    "violation",
    "admitted",
)


def _evaluation_row(evaluation: Evaluation, admitted: bool) -> Dict[str, Any]:
    """One report/table row per evaluated candidate."""
    lineage = evaluation.schedule.lineage
    return {
        "candidate": evaluation.candidate,
        "kind": "seed" if evaluation.generation < 0 else "mutant",
        "gen": evaluation.generation if evaluation.generation >= 0 else "-",
        "parent": evaluation.parent if evaluation.parent >= 0 else "-",
        "mutation": lineage[-1] if lineage else "-",
        "score": evaluation.score,
        "explored": evaluation.fitness["explored_states"],
        "stalled": evaluation.fitness["stalled"],
        "violation": evaluation.fitness["violation"],
        "admitted": admitted,
    }


@dataclass
class HuntReport(egress.JsonDocument):
    """Everything one ``repro nemesis hunt`` produced.

    ``rows`` has one entry per evaluation (seeds first, then mutants in
    candidate order); ``corpus`` lists the surviving candidates with their
    corpus file stems (empty when no corpus directory was given — survival
    is decided either way).
    """

    scenario: str
    strategy: str
    budget: int
    seed_schedules: int
    batch: int
    root_seed: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    corpus: List[Dict[str, Any]] = field(default_factory=list)
    corpus_dir: Optional[str] = None

    @property
    def evaluations(self) -> int:
        return len(self.rows)

    @property
    def admitted(self) -> int:
        return sum(1 for row in self.rows if row["admitted"])

    @property
    def best_row(self) -> Dict[str, Any]:
        return max(self.rows, key=lambda row: row["score"])

    @property
    def best_score(self) -> int:
        return self.best_row["score"]

    @property
    def baseline_score(self) -> int:
        """The best score among the seed (unmutated) schedules."""
        return max(row["score"] for row in self.rows if row["kind"] == "seed")

    @property
    def improved(self) -> bool:
        """Did the search beat every unmutated baseline run?"""
        return self.best_score > self.baseline_score

    @property
    def violations(self) -> int:
        """Within-budget safety violations found (the paper's bounds falsified)."""
        return sum(1 for row in self.rows if row["violation"])

    @property
    def stalls(self) -> int:
        return sum(1 for row in self.rows if row["stalled"])

    @property
    def found_violation(self) -> bool:
        return self.violations > 0

    def summary(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "admitted": self.admitted,
            "baseline_score": self.baseline_score,
            "best_score": self.best_score,
            "best_candidate": self.best_row["candidate"],
            "improved": self.improved,
            "stalls": self.stalls,
            "violations": self.violations,
        }

    def table(self) -> ResultTable:
        """The candidate table (byte-identical for every job count)."""
        return ResultTable(
            "nemesis hunt: {} over {} ({} evaluations)".format(
                self.strategy, self.scenario, self.evaluations
            ),
            HUNT_COLUMNS,
            self.rows,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed_schedules": self.seed_schedules,
            "batch": self.batch,
            "root_seed": self.root_seed,
            "rows": [dict(row) for row in self.rows],
            "corpus": [dict(entry) for entry in self.corpus],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        """The candidate table and the totals under it (``repro nemesis hunt``)."""
        best = self.best_row
        fields = [
            ("evaluations", "{} ({} seed + {} mutant)".format(
                self.evaluations, self.seed_schedules, self.budget)),
            ("admitted", self.admitted),
            ("baseline score", self.baseline_score),
            ("best score", "{} (candidate {}, improved={})".format(
                best["score"], best["candidate"], self.improved)),
            ("stalls", self.stalls),
            ("violations", "{} (within the fail-prone budget)".format(self.violations)),
        ]
        if self.corpus_dir is not None:
            fields.append(
                ("corpus", "{} survivor(s) in {}".format(len(self.corpus), self.corpus_dir))
            )
        return "\n".join([self.table().to_text(), ""] + field_lines(19, *fields))


# ---------------------------------------------------------------------- #
# Worker tasks (module-level: they cross the process boundary)
# ---------------------------------------------------------------------- #
def _evaluate_task(
    quorum_system: GeneralizedQuorumSystem,
    declared: Tuple[FailurePattern, ...],
    schedule: Schedule,
) -> Dict[str, Any]:
    """Evaluate one schedule inside a worker (no recording)."""
    return evaluate_schedule(schedule, quorum_system, declared)


def _record_task(
    quorum_system: GeneralizedQuorumSystem,
    declared: Tuple[FailurePattern, ...],
    corpus_dir: str,
    root_seed: int,
    item: Tuple[int, Schedule],
) -> Dict[str, Any]:
    """Deterministically re-run one survivor with trace recording on."""
    candidate, schedule = item
    return evaluate_schedule(
        schedule,
        quorum_system,
        declared,
        run_index=candidate,
        root_seed=root_seed,
        record_dir=corpus_dir,
    )


# ---------------------------------------------------------------------- #
# Seeding
# ---------------------------------------------------------------------- #
def _seeds_from_traces(spec: ScenarioSpec, directory: str) -> List[Schedule]:
    """Seed schedules from an existing trace directory's recorded runs.

    Only traces of this scenario (or of an earlier hunt over it) qualify; the
    file listing is sorted, so the seed order is deterministic.
    """
    accepted_names = (spec.name, "nemesis-{}".format(spec.name))
    schedules: List[Schedule] = []
    for path in list_trace_files(directory):
        trace = load_trace(path)
        if trace.scenario is None:
            continue
        base = ingress.attributed(path, ScenarioSpec.from_dict, trace.scenario)
        if base.name not in accepted_names:
            continue
        schedules.append(identity_schedule(base, trace.seed))
    if not schedules:
        raise ReproError(
            "no traces of scenario {!r} found in {!r} (traces must embed their "
            "scenario spec to seed a hunt)".format(spec.name, directory)
        )
    return schedules


# ---------------------------------------------------------------------- #
# The hunt
# ---------------------------------------------------------------------- #
def hunt_scenario(
    scenario: Union[str, ScenarioSpec],
    strategy: str = "hill-climb",
    budget: int = DEFAULT_BUDGET,
    seeds: int = DEFAULT_SEED_SCHEDULES,
    batch: int = DEFAULT_BATCH,
    seed: int = 0,
    jobs: int = 1,
    corpus_dir: Optional[str] = None,
    from_traces: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> HuntReport:
    """Search ``scenario``'s schedule space for the adversary's best case.

    This is :func:`repro.api.hunt`; the module doc has the loop.  ``scenario``
    is a registered name or a spec.  Seed schedules replay the scenario's own
    recorded runs (or, with ``from_traces``, runs from an existing trace
    directory); ``budget`` mutants (seed baselines come on top) are then
    derived, evaluated over ``jobs`` workers and admitted by ``strategy`` (a
    ``nemesis`` registry name).  ``corpus_dir`` persists survivors as traces
    + schedules + incidents plus a ``report.json``.  The report and corpus
    bytes depend only on ``(scenario, strategy, budget, seeds, batch, seed)``,
    never on ``jobs``.
    """
    if budget < 1:
        raise ReproError("hunt budget must be at least 1 mutant evaluation")
    if seeds < 1 or batch < 1:
        raise ReproError("hunt needs at least 1 seed schedule and a batch of at least 1")
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    search = build_strategy(strategy)
    ensure_trace_directory(corpus_dir)
    system = build_topology(spec)
    quorum_system = build_quorum_system(spec, system)
    declared = tuple(system.patterns)
    runner = ParallelRunner(jobs=jobs, progress=progress)
    evaluate = functools.partial(_evaluate_task, quorum_system, declared)

    if from_traces is not None:
        seed_schedules = _seeds_from_traces(spec, from_traces)
    else:
        # Seed schedule ``i`` replays run ``i`` of ``repro scenario run --seed S``.
        runs = scenario_batch(spec, seeds, seed).shards()
        seed_schedules = [identity_schedule(spec, run.seed) for run in runs]

    state = HuntState()
    rows: List[Dict[str, Any]] = []
    survivors: List[Tuple[int, Schedule]] = []
    candidate = 0
    for schedule, outcome in zip(seed_schedules, runner.map(evaluate, seed_schedules)):
        evaluation = Evaluation(candidate, schedule, **outcome)  # outcome keys are its fields
        state.add_seed(evaluation)
        rows.append(_evaluation_row(evaluation, admitted=True))
        survivors.append((candidate, schedule))
        candidate += 1

    evaluated = 0
    generation = 0
    while evaluated < budget:
        size = min(batch, budget - evaluated)
        parents: List[Evaluation] = []
        children: List[Schedule] = []
        for slot in range(size):
            parent_rng = random.Random(
                derive_seed(seed, "nemesis", generation, slot, "parent")
            )
            parent = search.select_parent(state, parent_rng)
            child = mutate_schedule(
                parent.schedule,
                quorum_system.processes,
                declared,
                derive_seed(seed, "nemesis", generation, slot, "mutate"),
            )
            parents.append(parent)
            children.append(child)
        outcomes = runner.map(evaluate, children)
        for slot, (child, outcome) in enumerate(zip(children, outcomes)):
            evaluation = Evaluation(
                candidate, child, generation=generation, parent=parents[slot].candidate, **outcome
            )
            admitted = search.admit(state, evaluation)
            state.observe(evaluation, admitted)
            rows.append(_evaluation_row(evaluation, admitted))
            if admitted:
                survivors.append((candidate, child))
            candidate += 1
            evaluated += 1
        generation += 1

    report = HuntReport(
        scenario=spec.name,
        strategy=strategy,
        budget=budget,
        seed_schedules=len(seed_schedules),
        batch=batch,
        root_seed=seed,
        rows=rows,
        corpus_dir=corpus_dir,
    )
    evaluations_by_candidate = {e.candidate: e for e in state.corpus}
    if corpus_dir is not None:
        record = functools.partial(_record_task, quorum_system, declared, corpus_dir, seed)
        recorded = runner.map(record, survivors)
        for (ordinal, schedule), outcome in zip(survivors, recorded):
            incident_name = incident_file_name("nemesis-{}".format(spec.name), seed, ordinal)
            stem = incident_name[: -len(INCIDENT_SUFFIX)]
            egress.write_json(os.path.join(corpus_dir, stem + SCHEDULE_SUFFIX), schedule.to_dict())
            evaluation = evaluations_by_candidate[ordinal]
            incident = build_incident(
                scenario=spec.name,
                candidate=ordinal,
                seed=schedule.seed,
                declared=declared,
                pattern=system.pattern_named(schedule.pattern),
                inject_at=schedule.inject_at,
                stretches=[list(row) for row in schedule.stretches],
                nudges=[list(row) for row in schedule.nudges],
                lineage=schedule.lineage,
                verdict=dict(outcome["row"]),
                strategy=strategy,
                fitness=dict(evaluation.fitness),
            )
            egress.write_json(os.path.join(corpus_dir, incident_name), incident)
            report.corpus.append(
                {
                    "candidate": ordinal,
                    "file": stem,
                    "score": evaluation.score,
                    "flags": incident["flags"],
                }
            )
        egress.write_json(os.path.join(corpus_dir, "report.json"), report.to_dict())
    else:
        report.corpus = [
            {
                "candidate": ordinal,
                "file": None,
                "score": evaluations_by_candidate[ordinal].score,
                "flags": [],
            }
            for ordinal, _ in survivors
        ]
    return report


# ---------------------------------------------------------------------- #
# Replay and corpus inspection
# ---------------------------------------------------------------------- #
def replay_schedule_file(path: str) -> Dict[str, Any]:
    """Replay one persisted schedule and diff it against its incident record.

    This is :func:`repro.api.replay_schedule`.  The schedule's base scenario
    is rebuilt from scratch (topology, GQS discovery, simulation) — nothing
    is taken from the original hunt — and the fresh verdict row is compared
    field by field against the verdict the sibling ``.incident.json``
    recorded at hunt time: ``"match"`` is ``None`` when there is none to
    compare with, and ``False`` means the hunt-time evaluation and the replay
    have drifted.
    """
    from .schedule import load_schedule  # local import avoids a cycle at module load

    schedule = load_schedule(path)
    system = ingress.attributed(path, build_topology, schedule.base)
    quorum_system = ingress.attributed(path, build_quorum_system, schedule.base, system)
    declared = tuple(system.patterns)
    outcome = evaluate_schedule(schedule, quorum_system, declared)
    replayed = {
        "schedule": path,
        "scenario": schedule.base.name,
        "lineage": list(schedule.lineage),
        "row": outcome["row"],
        "fitness": outcome["fitness"],
        "within_budget": outcome["within_budget"],
        "recorded": None,
        "match": None,
    }
    incident_path = path[: -len(SCHEDULE_SUFFIX)] + ".incident.json"
    if os.path.exists(incident_path):
        from ..traces import load_incident

        incident = load_incident(incident_path)
        recorded = incident["verdict"]
        compared = ("completed", "safe", "explored_states", "operations", "messages")
        replayed["recorded"] = recorded
        replayed["match"] = incident["fitness"] == outcome["fitness"] and all(
            recorded.get(key) == outcome["row"].get(key) for key in compared
        )
    return replayed


#: Columns of the ``repro nemesis corpus`` table.
CORPUS_COLUMNS = (
    "candidate",
    "scenario",
    "strategy",
    "pattern",
    "within-budget",
    "score",
    "explored",
    "flags",
    "mutation",
)


def corpus_rows(directory: str) -> List[Dict[str, Any]]:
    """One row per incident report in ``directory`` (sorted file order)."""
    from ..traces import list_incident_files, load_incident

    rows = []
    for path in list_incident_files(directory):
        incident = load_incident(path)
        lineage, fitness = incident["lineage"], incident["fitness"]
        rows.append(
            {
                "candidate": incident["candidate"],
                "scenario": incident["scenario"],
                "strategy": incident["strategy"] or "-",
                "pattern": incident["pattern"] or "-",
                "within-budget": incident["within_budget"]["ok"],
                "score": int(fitness["score"]),
                "explored": int(fitness["explored_states"]),
                "flags": ",".join(incident["flags"]) or "-",
                "mutation": lineage[-1] if lineage else "-",
            }
        )
    return rows


def corpus_table(directory: str, rows: Sequence[Dict[str, Any]]) -> ResultTable:
    """The ``repro nemesis corpus`` summary table of ``corpus_rows(directory)``."""
    return ResultTable(
        "nemesis corpus: {} incident(s) in {}".format(len(rows), directory), CORPUS_COLUMNS, rows
    )
