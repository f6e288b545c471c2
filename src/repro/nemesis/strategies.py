"""Search strategies of the nemesis hunt (the ``nemesis`` registry kind).

A strategy answers two questions the generation loop asks:

* :meth:`~NemesisStrategy.select_parent` — which known schedule should the
  next mutant descend from?
* :meth:`~NemesisStrategy.admit` — should an evaluated mutant survive into
  the corpus?

Three built-ins span the classic search spectrum:

``random``
    The equal-budget baseline: every mutant descends from a seed schedule,
    so candidates are independent single-step perturbations of the recorded
    runs.  Survivors are strict fitness improvements.
``hill-climb``
    Greedy local search: every mutant descends from the best schedule seen so
    far, so improvements compound (a stretched channel gets stretched again).
    Survivors are strict improvements over the incumbent.
``coverage-guided``
    Corpus-style (fuzzer-like) search: parents are drawn uniformly from the
    whole surviving corpus, and a mutant survives either by improving on the
    best score or by landing in a *new coverage bucket* — a new combination
    of (violation, stalled, coarse explored-states band) — which keeps
    diverse behaviours alive as mutation fodder.

Strategies hold no RNG of their own: the hunt loop hands
:meth:`select_parent` a ``random.Random`` derived per candidate from the root
seed, which is what makes a hunt a pure function of ``(scenario, strategy,
budget, seed)`` — independent of ``--jobs`` and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..registry import NEMESIS, register_nemesis_strategy
from .schedule import Schedule

__all__ = [
    "COVERAGE_BUCKET",
    "Evaluation",
    "HuntState",
    "NemesisStrategy",
    "build_strategy",
]

#: Width of the explored-states bands of ``coverage-guided``'s signature.
COVERAGE_BUCKET = 25


@dataclass(frozen=True)
class Evaluation:
    """One evaluated schedule: its ordinal, verdict row and fitness."""

    candidate: int
    schedule: Schedule
    row: Dict[str, Any]
    fitness: Dict[str, Any]
    within_budget: bool
    budget_witness: Optional[str]
    generation: int = -1
    parent: int = -1

    @property
    def score(self) -> int:
        return self.fitness["score"]

    @property
    def signature(self) -> Tuple[bool, bool, int]:
        """The coverage bucket: (violation, stalled, explored-states band)."""
        return (
            self.fitness["violation"],
            self.fitness["stalled"],
            self.fitness["explored_states"] // COVERAGE_BUCKET,
        )


@dataclass
class HuntState:
    """The generation loop's bookkeeping, shared with the strategy.

    ``best`` tracks the maximum score over *everything* evaluated (seeds and
    mutants, admitted or not); ``corpus`` holds the seeds plus every admitted
    mutant, in evaluation order; ``signatures`` the coverage buckets seen.
    """

    seeds: List[Evaluation] = field(default_factory=list)
    corpus: List[Evaluation] = field(default_factory=list)
    best: Optional[Evaluation] = None
    signatures: Set[Tuple[bool, bool, int]] = field(default_factory=set)

    @property
    def best_score(self) -> int:
        return self.best.score if self.best is not None else 0

    def observe(self, evaluation: Evaluation, admitted: bool) -> None:
        """Fold one evaluation into the state (after the admit decision)."""
        if self.best is None or evaluation.score > self.best.score:
            self.best = evaluation
        self.signatures.add(evaluation.signature)
        if admitted:
            self.corpus.append(evaluation)

    def add_seed(self, evaluation: Evaluation) -> None:
        self.seeds.append(evaluation)
        self.observe(evaluation, admitted=True)


class NemesisStrategy:
    """Base class: parent selection plus the survival rule."""

    name = "?"

    def select_parent(self, state: HuntState, rng: random.Random) -> Evaluation:
        raise NotImplementedError

    def admit(self, state: HuntState, evaluation: Evaluation) -> bool:
        raise NotImplementedError


class RandomStrategy(NemesisStrategy):
    """Independent single-step mutants of the seed schedules."""

    name = "random"

    def select_parent(self, state: HuntState, rng: random.Random) -> Evaluation:
        return state.seeds[rng.randrange(len(state.seeds))]

    def admit(self, state: HuntState, evaluation: Evaluation) -> bool:
        return evaluation.score > state.best_score


class HillClimbStrategy(NemesisStrategy):
    """Greedy: always mutate the incumbent, keep strict improvements."""

    name = "hill-climb"

    def select_parent(self, state: HuntState, rng: random.Random) -> Evaluation:
        del rng  # greedy selection draws nothing
        assert state.best is not None
        return state.best

    def admit(self, state: HuntState, evaluation: Evaluation) -> bool:
        return evaluation.score > state.best_score


class CoverageGuidedStrategy(NemesisStrategy):
    """Corpus-style: mutate any survivor, keep improvements *or* new coverage."""

    name = "coverage-guided"

    def select_parent(self, state: HuntState, rng: random.Random) -> Evaluation:
        return state.corpus[rng.randrange(len(state.corpus))]

    def admit(self, state: HuntState, evaluation: Evaluation) -> bool:
        if evaluation.score > state.best_score:
            return True
        return evaluation.signature not in state.signatures


register_nemesis_strategy(
    "random",
    builder=RandomStrategy,
    doc="equal-budget baseline: independent single-step mutants of the seed runs",
)
register_nemesis_strategy(
    "hill-climb",
    builder=HillClimbStrategy,
    doc="greedy local search: mutate the best schedule so far, keep strict improvements",
)
register_nemesis_strategy(
    "coverage-guided",
    builder=CoverageGuidedStrategy,
    doc="corpus-style search: mutate any survivor, keep improvements or new coverage buckets",
)

def build_strategy(name: str) -> NemesisStrategy:
    """A fresh strategy instance by registry name (rich unknown-name errors)."""
    return NEMESIS.build(name)
