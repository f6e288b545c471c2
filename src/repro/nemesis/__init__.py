"""Guided nemesis: search-based adversarial schedule exploration.

The paper's bounds are statements about the *adversary's best case*; the
scenario catalogue samples failures and delays from fixed distributions.
This subsystem closes the gap: it treats (failure-pattern choice, injection
timing, per-channel delays) as a search space over the deterministic
simulator and *optimizes for badness* — maximize checker ``explored_states``,
stall ``U_f`` termination, or find a violating history outright.

The moving parts:

* :mod:`~repro.nemesis.schedule` — the search points (a seeded base run plus
  deterministic perturbations), their fitness, and their evaluation through
  the ordinary scenario machinery;
* :mod:`~repro.nemesis.mutate` — the four deterministic mutation operators;
* :mod:`~repro.nemesis.strategies` — ``random``, ``hill-climb`` and
  ``coverage-guided``, registered as the ``nemesis`` registry kind so plugins
  can add their own;
* :mod:`~repro.nemesis.hunt` — the generation loop, the report, and corpus
  persistence (traces + schedules + incident reports).

Everything is driven from :func:`repro.api.hunt` and the ``repro nemesis
hunt|replay|corpus`` CLI group; see ``docs/nemesis.md``.
"""

from .hunt import (
    CORPUS_COLUMNS,
    DEFAULT_BATCH,
    DEFAULT_BUDGET,
    DEFAULT_SEED_SCHEDULES,
    HuntReport,
    corpus_rows,
    corpus_table,
    hunt_scenario,
    replay_schedule_file,
)
from .mutate import MUTATION_OPERATORS, mutate_schedule
from .schedule import (
    SCHEDULE_SCHEMA_VERSION,
    SCHEDULE_SUFFIX,
    Schedule,
    evaluate_schedule,
    fitness_of,
    identity_schedule,
    load_schedule,
    save_schedule,
)
from .strategies import (
    CoverageGuidedStrategy,
    Evaluation,
    HillClimbStrategy,
    HuntState,
    NemesisStrategy,
    RandomStrategy,
    build_strategy,
)

__all__ = [
    "CORPUS_COLUMNS",
    "DEFAULT_BATCH",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED_SCHEDULES",
    "CoverageGuidedStrategy",
    "Evaluation",
    "HillClimbStrategy",
    "HuntReport",
    "HuntState",
    "MUTATION_OPERATORS",
    "NemesisStrategy",
    "RandomStrategy",
    "SCHEDULE_SCHEMA_VERSION",
    "SCHEDULE_SUFFIX",
    "Schedule",
    "build_strategy",
    "corpus_rows",
    "corpus_table",
    "evaluate_schedule",
    "fitness_of",
    "hunt_scenario",
    "identity_schedule",
    "load_schedule",
    "mutate_schedule",
    "replay_schedule_file",
    "save_schedule",
]
