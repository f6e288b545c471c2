"""Adversarial schedules: the search points of the nemesis subsystem.

A :class:`Schedule` is one point of the nemesis search space: a base scenario
plus a run seed (together naming one recorded, perfectly replayable run) and a
set of deterministic perturbations on top of it —

* which failure pattern is injected (``pattern``, a sibling from the declared
  fail-prone system, or ``None`` for failure-free);
* when it is injected (``inject_at``);
* per-channel delay stretches and per-message delivery nudges (the canonical
  list encodings of :mod:`repro.sim.override`).

An unmutated schedule (:func:`identity_schedule`) evaluates to exactly the
run the scenario runner would record for that seed.  A mutated one derives an
ordinary :class:`~repro.scenarios.ScenarioSpec` whose delay model is the
``schedule-override`` wrapper, so evaluation, trace recording and later
``repro check`` re-verification all flow through the existing deterministic
machinery — a mutant is just another declarative scenario.

Fitness: :func:`fitness_of` scores a run's verdict row for *badness*,
lexicographically — a within-budget safety violation dominates everything, a
stalled ``U_f`` (liveness loss) dominates checker work, and checker
``explored_states`` breaks the remaining ties.  The composite is one integer
so strategies can compare candidates with plain ``>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .. import ingress
from ..errors import ReproError
from ..failures import FailurePattern
from ..quorums import GeneralizedQuorumSystem
from ..registry import PROTOCOLS
from ..scenarios import ScenarioSpec
from ..scenarios.builders import run_built_scenario
from ..scenarios.spec import DelaySpec, FailureSpec
from ..sim import build_delay_model
from ..traces import budget_check

__all__ = [
    "SCHEDULE_SCHEMA_VERSION",
    "SCHEDULE_SUFFIX",
    "STALL_WEIGHT",
    "VIOLATION_WEIGHT",
    "Schedule",
    "evaluate_schedule",
    "fitness_of",
    "identity_schedule",
    "load_schedule",
]

#: Bumped whenever the schedule layout changes; readers reject newer schemas.
SCHEDULE_SCHEMA_VERSION = 1

#: File-name suffix identifying schedule files inside a corpus directory.
SCHEDULE_SUFFIX = ".schedule.json"

#: Fitness weight of a stalled run (liveness loss dominates checker work; no
#: realistic history explores this many states).
STALL_WEIGHT = 1_000_000

#: Fitness weight of a within-budget safety violation (dominates everything).
VIOLATION_WEIGHT = 1_000_000_000


@dataclass(frozen=True)
class Schedule:
    """One adversarial schedule: a seeded base run plus its perturbations.

    ``stretches`` rows are ``(src, dst, factor)`` and ``nudges`` rows are
    ``(src, dst, index, extra)`` — the canonical encodings of
    :mod:`repro.sim.override`, kept sorted so equal schedules have equal
    serializations.  ``lineage`` records the mutation operators that produced
    the schedule, oldest first.
    """

    base: ScenarioSpec
    seed: int
    pattern: Optional[str] = None
    inject_at: Optional[float] = None
    stretches: Tuple[Tuple[Any, Any, float], ...] = ()
    nudges: Tuple[Tuple[Any, Any, int, float], ...] = ()
    lineage: Tuple[str, ...] = ()

    def derived_spec(self) -> ScenarioSpec:
        """The mutant as an ordinary declarative scenario.

        The failure spec carries the (possibly swapped) pattern and injection
        time; the delay spec wraps the base model in ``schedule-override``.
        An identity schedule keeps the base delay spec untouched, so its
        evaluation — and its recorded trace bytes — match the scenario
        runner's exactly.
        """
        perturbed = bool(self.stretches or self.nudges)
        delay = (
            DelaySpec(
                "schedule-override",
                {
                    "base": self.base.delay.to_dict(),
                    "stretches": [list(row) for row in self.stretches],
                    "nudges": [list(row) for row in self.nudges],
                },
            )
            if perturbed
            else self.base.delay
        )
        return ScenarioSpec(
            name="nemesis-{}".format(self.base.name),
            description="adversarial mutant of scenario {!r}".format(self.base.name),
            paper_section=self.base.paper_section,
            topology=self.base.topology,
            failure=FailureSpec(pattern=self.pattern, at_time=self.inject_at),
            delay=delay,
            protocol=self.base.protocol,
            workload=self.base.workload,
            default_runs=1,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEDULE_SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "seed": self.seed,
            "pattern": self.pattern,
            "inject_at": self.inject_at,
            "stretches": [list(row) for row in self.stretches],
            "nudges": [list(row) for row in self.nudges],
            "lineage": list(self.lineage),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        data = ingress.mapping(data, "a schedule")
        ingress.schema(data, SCHEDULE_SCHEMA_VERSION, "schedule")
        rows = ingress.channel_rows
        schedule = cls(
            base=ScenarioSpec.from_dict(ingress.required(data, "base", "a schedule")),
            seed=ingress.numeric_field(data, "seed", int, default=0),
            pattern=ingress.text(data.get("pattern"), "field 'pattern'", optional=True),
            inject_at=ingress.numeric_field(data, "inject_at", finite=True),
            stretches=rows(data.get("stretches", []), "field 'stretches'", (float,)),
            nudges=rows(data.get("nudges", []), "field 'nudges'", (int, float)),
            lineage=tuple(ingress.names(data.get("lineage", []), "field 'lineage'")),
        )
        # Build the mutant's delay model once: a delay, stretch or nudge the
        # model refuses (NaN, negative) is refused here, where the file is
        # still named, instead of corrupting the replayed run.
        delay = schedule.derived_spec().delay
        build_delay_model(delay.kind, delay.params, seed=schedule.seed)
        return schedule


def identity_schedule(base: ScenarioSpec, seed: int) -> Schedule:
    """The unmutated schedule of one recorded run: base scenario + run seed."""
    return Schedule(
        base=base,
        seed=seed,
        pattern=base.failure.pattern,
        inject_at=base.failure.at_time,
    )


def load_schedule(path: str) -> Schedule:
    """Parse one schedule file; what is wrong with it is reported against ``path``."""
    return ingress.read_json(path, Schedule.from_dict)


# ---------------------------------------------------------------------- #
# Evaluation and fitness
# ---------------------------------------------------------------------- #
def fitness_of(
    row: Mapping[str, Any], within_budget: bool, effort: Optional[int] = None
) -> Dict[str, Any]:
    """Score a run's verdict row for badness (higher = worse for the protocol).

    The composite is lexicographic via weighting: a *within-budget* safety
    violation (the paper's bounds falsified) dominates a stall (``U_f``
    liveness lost) dominates checker ``explored_states`` (how hard the
    history made the linearizability search work).  An unsafe history from an
    out-of-budget schedule scores as an ordinary run — it falsifies nothing.

    ``effort`` overrides the row's ``explored_states`` as the checker-work
    component.  Protocols whose judge short-circuits (the register's
    witness-first path reports the constant complete-operation count) supply
    an ``effort_probe`` registry extra measuring genuine verification effort;
    :func:`evaluate_schedule` threads its value through here.
    """
    stalled = not row["completed"]
    violation = (not row["safe"]) and within_budget
    explored = int(effort if effort is not None else row["explored_states"])
    score = (
        explored
        + STALL_WEIGHT * int(stalled)
        + VIOLATION_WEIGHT * int(violation)
    )
    return {
        "score": score,
        "explored_states": explored,
        "stalled": stalled,
        "violation": violation,
    }


def evaluate_schedule(
    schedule: Schedule,
    quorum_system: GeneralizedQuorumSystem,
    declared: Sequence[FailurePattern],
    run_index: int = 0,
    root_seed: int = 0,
    record_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Replay one schedule through the deterministic simulator and score it.

    Returns ``{"row", "fitness", "within_budget", "budget_witness"}``; the
    row is the inline verdict row of :func:`repro.scenarios.run_built_scenario`
    (the exact same judgement path every scenario run takes, so hunt-time
    verdicts can never drift from replay-time ones).  With ``record_dir`` the
    run is persisted as an ordinary trace-store file.
    """
    try:
        pattern = quorum_system.fail_prone.pattern_named(schedule.pattern)
    except ReproError as error:
        raise ReproError("schedule injects {}".format(error)) from error
    within_budget, witness = budget_check(declared, pattern)
    row, result = run_built_scenario(
        schedule.derived_spec(),
        quorum_system,
        pattern,
        schedule.seed,
        run_index=run_index,
        root_seed=root_seed,
        record_dir=record_dir,
        return_result=True,
    )
    probe = PROTOCOLS.get(schedule.base.protocol.kind).extras.get("effort_probe")
    effort = probe(result.history, quorum_system, pattern) if probe is not None else None
    return {
        "row": row,
        "fitness": fitness_of(row, within_budget, effort=effort),
        "within_budget": within_budget,
        "budget_witness": witness,
    }
