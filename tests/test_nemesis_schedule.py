"""Unit coverage of the nemesis building blocks.

The pieces under test: the ``schedule-override`` delay wrapper (the sim-layer
hook mutated schedules replay through), the :class:`~repro.nemesis.Schedule`
search points and their serialization, the deterministic mutation operators,
the fitness composite, and the three built-in search strategies' parent
selection and survival rules.
"""

from __future__ import annotations

import random

import pytest

from repro import egress
from repro.errors import ReproError
from repro.nemesis import (
    MUTATION_OPERATORS,
    Schedule,
    build_strategy,
    fitness_of,
    identity_schedule,
    load_schedule,
    mutate_schedule,
)
from repro.nemesis.mutate import MAX_STRETCH
from repro.nemesis.schedule import STALL_WEIGHT, VIOLATION_WEIGHT
from repro.nemesis.strategies import Evaluation, HuntState
from repro.registry import NEMESIS
from repro.scenarios import get_scenario
from repro.scenarios.builders import build_topology
from repro.sim import FixedDelay, ScheduleOverride, build_delay_model
from repro.sim.override import build_schedule_override


# ---------------------------------------------------------------------- #
# ScheduleOverride: the sim-layer replay hook
# ---------------------------------------------------------------------- #
def test_override_identity_replays_base_model_exactly():
    base = FixedDelay(2.0)
    override = ScheduleOverride(base)
    assert override.delay(("a", "b"), 0.0) == 2.0
    assert override.delay(("b", "a"), 1.0) == 2.0


def test_override_stretch_multiplies_one_channel_only():
    override = ScheduleOverride(FixedDelay(2.0), stretches={("a", "b"): 4.0})
    assert override.delay(("a", "b"), 0.0) == 8.0
    assert override.delay(("b", "a"), 0.0) == 2.0  # other direction untouched


def test_override_nudge_hits_exactly_the_indexed_message():
    override = ScheduleOverride(FixedDelay(1.0), nudges={(("a", "b"), 1): 5.0})
    assert override.delay(("a", "b"), 0.0) == 1.0  # send index 0
    assert override.delay(("a", "b"), 0.0) == 6.0  # send index 1: nudged
    assert override.delay(("a", "b"), 0.0) == 1.0  # send index 2


def test_override_replays_from_the_same_seed():
    draws = []
    for _ in range(2):
        base = build_delay_model("uniform", {"min_delay": 0.5, "max_delay": 2.0}, seed=9)
        override = ScheduleOverride(base, nudges={(("a", "b"), 0): 3.0})
        draws.append([override.delay(("a", "b"), 0.0) for _ in range(3)])
    assert draws[0] == draws[1]  # replay: same draws, same nudge application


def test_override_preserves_base_draw_sequence():
    """The base RNG consumes identical draws with and without perturbations."""
    plain = build_delay_model("uniform", {}, seed=5)
    wrapped_base = build_delay_model("uniform", {}, seed=5)
    override = ScheduleOverride(wrapped_base, stretches={("a", "b"): 2.0})
    raw = [plain.delay(("a", "b"), 0.0) for _ in range(4)]
    perturbed = [override.delay(("a", "b"), 0.0) for _ in range(4)]
    assert perturbed == [2.0 * value for value in raw]


def test_override_equals_the_formula_message_for_message_on_a_mixed_stream():
    """``max(base * stretch(channel) + nudge(channel, index), 0)`` with the
    index counted per channel, over interleaved channels: some stretched,
    some nudged (one into the past), some neither."""
    channels = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")]
    stretches = {("a", "b"): 3.0, ("c", "a"): 0.25}
    nudges = {(("a", "b"), 2): 1.5, (("b", "a"), 0): -50.0, (("b", "a"), 5): 0.75}
    override = ScheduleOverride(
        build_delay_model("uniform", {}, seed=3), stretches=stretches, nudges=nudges
    )
    base = build_delay_model("uniform", {}, seed=3)
    rng = random.Random(0)
    sent = {}
    for _ in range(400):
        channel = rng.choice(channels)
        index = sent.get(channel, 0)
        sent[channel] = index + 1
        expected = max(
            base.delay(channel, 0.0) * stretches.get(channel, 1.0)
            + nudges.get((channel, index), 0.0),
            0.0,
        )
        assert override.delay(channel, 0.0) == expected
    assert override.delay(("b", "a"), 0.0) > 0.0  # only index 0 was clamped


def test_override_rejects_negative_stretch():
    with pytest.raises(ReproError):
        ScheduleOverride(FixedDelay(1.0), stretches={("a", "b"): -1.0})


@pytest.mark.parametrize(
    "perturbation, complaint",
    [
        ({"stretches": {("a", "b"): float("nan")}}, r"stretches: factor for channel \('a', 'b'\)"),
        ({"stretches": {("a", "b"): float("inf")}}, r"stretches: factor for channel \('a', 'b'\)"),
        ({"nudges": {(("a", "b"), 3): float("nan")}}, r"nudges: extra latency of message 3 on"),
        ({"nudges": {(("a", "b"), 3): float("-inf")}}, r"nudges: extra latency of message 3 on"),
    ],
    ids=["nan-stretch", "inf-stretch", "nan-nudge", "minus-inf-nudge"],
)
def test_override_rejects_non_finite_perturbations(perturbation, complaint):
    """A NaN stretch used to turn into zero latency (``latency > 0.0`` is false)."""
    with pytest.raises(ReproError, match=complaint):
        ScheduleOverride(FixedDelay(1.0), **perturbation)


def stretches_to_lists(stretches):
    """Channel stretches as canonical JSON rows ``[src, dst, factor]``, sorted by channel."""
    return [
        [src, dst, float(factor)]
        for (src, dst), factor in sorted(
            stretches.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        )
    ]


def nudges_to_lists(nudges):
    """Delivery nudges as canonical JSON rows ``[src, dst, index, extra]``."""
    return [
        [src, dst, int(index), float(extra)]
        for ((src, dst), index), extra in sorted(
            nudges.items(), key=lambda item: (str(item[0][0][0]), str(item[0][0][1]), item[0][1])
        )
    ]


def test_override_list_encodings_round_trip_with_types():
    stretches = {("p0", "p1"): 2.0, ("p1", "p0"): 0.5}
    nudges = {(("p0", "p1"), 3): 4.0}
    model = build_schedule_override(
        0, stretches=stretches_to_lists(stretches), nudges=nudges_to_lists(nudges)
    )
    assert model.stretches == stretches and model.nudges == nudges


def test_override_registered_as_delay_model_kind():
    model = build_delay_model(
        "schedule-override",
        {
            "base": {"kind": "fixed", "params": {"latency": 3.0}},
            "stretches": [["a", "b", 2.0]],
            "nudges": [],
        },
        seed=0,
    )
    assert model.delay(("a", "b"), 0.0) == 6.0
    assert model.delay(("b", "c"), 0.0) == 3.0


# ---------------------------------------------------------------------- #
# Schedule: search points and serialization
# ---------------------------------------------------------------------- #
def test_identity_schedule_keeps_base_delay_spec():
    spec = get_scenario("unidirectional-ring")
    schedule = identity_schedule(spec, seed=42)
    derived = schedule.derived_spec()
    assert derived.delay == spec.delay  # unperturbed: no override wrapper
    assert derived.name == "nemesis-unidirectional-ring"
    assert derived.default_runs == 1


def test_perturbed_schedule_wraps_base_delay_in_override():
    spec = get_scenario("unidirectional-ring")
    schedule = Schedule(base=spec, seed=1, stretches=(("p0", "p1", 2.0),))
    derived = schedule.derived_spec()
    assert derived.delay.kind == "schedule-override"
    assert derived.delay.params["base"] == spec.delay.to_dict()
    assert derived.delay.params["stretches"] == [["p0", "p1", 2.0]]


def test_schedule_save_load_round_trip(tmp_path):
    spec = get_scenario("unidirectional-ring")
    schedule = Schedule(
        base=spec,
        seed=7,
        pattern="f1",
        inject_at=4.0,
        stretches=(("p0", "p1", 2.0),),
        nudges=(("p1", "p2", 3, 1.5),),
        lineage=("stretch p0->p1 x2", "nudge p1->p2#3 +1.5"),
    )
    path = str(tmp_path / "one.schedule.json")
    egress.write_json(path, schedule.to_dict())
    assert load_schedule(path) == schedule


def test_schedule_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.schedule.json"
    path.write_text('{"schema": 999, "base": {}}')
    with pytest.raises(ReproError):
        load_schedule(str(path))


# ---------------------------------------------------------------------- #
# Mutation operators
# ---------------------------------------------------------------------- #
def _ring_schedule():
    spec = get_scenario("unidirectional-ring")
    return spec, identity_schedule(spec, seed=0), build_topology(spec)


def test_mutation_is_a_pure_function_of_parent_and_seed():
    spec, schedule, system = _ring_schedule()
    processes = system.processes
    declared = tuple(system.patterns)
    children = [mutate_schedule(schedule, processes, declared, seed=s) for s in range(24)]
    again = [mutate_schedule(schedule, processes, declared, seed=s) for s in range(24)]
    assert children == again


def test_mutation_appends_exactly_one_lineage_tag():
    spec, schedule, system = _ring_schedule()
    for seed in range(24):
        child = mutate_schedule(schedule, system.processes, tuple(system.patterns), seed)
        assert len(child.lineage) == len(schedule.lineage) + 1
        assert child.base is schedule.base
        assert child.seed == schedule.seed


def test_mutation_operators_cover_the_documented_set():
    spec, schedule, system = _ring_schedule()
    declared = tuple(system.patterns)
    prefixes = set()
    for seed in range(64):
        child = mutate_schedule(schedule, system.processes, declared, seed)
        prefixes.add(child.lineage[-1].split(" ")[0])
    # The identity ring schedule injects a pattern, so all four operators
    # (stretch/nudge/inject/pattern) are available and a modest seed sweep
    # exercises each.
    assert prefixes == {"stretch", "nudge", "inject", "pattern"}
    assert len(MUTATION_OPERATORS) == 4


def test_swapped_patterns_stay_inside_the_declared_system():
    spec, schedule, system = _ring_schedule()
    declared = tuple(system.patterns)
    names = {pattern.name for pattern in declared} | {None}
    for seed in range(64):
        child = mutate_schedule(schedule, system.processes, declared, seed)
        assert child.pattern in names


def test_stretch_factors_are_clamped():
    spec, schedule, system = _ring_schedule()
    declared = tuple(system.patterns)
    current = schedule
    rng = random.Random(0)
    for _ in range(200):
        current = mutate_schedule(current, system.processes, declared, rng.randrange(1 << 30))
    for _, _, factor in current.stretches:
        assert 1.0 / MAX_STRETCH <= factor <= MAX_STRETCH


# ---------------------------------------------------------------------- #
# Fitness
# ---------------------------------------------------------------------- #
def _row(completed=True, safe=True, explored=10):
    return {"completed": completed, "safe": safe, "explored_states": explored}


def test_fitness_is_lexicographic_violation_over_stall_over_explored():
    plain = fitness_of(_row(), within_budget=True)
    stall = fitness_of(_row(completed=False), within_budget=True)
    violation = fitness_of(_row(safe=False), within_budget=True)
    assert plain["score"] == 10
    assert stall["score"] == 10 + STALL_WEIGHT
    assert violation["score"] == 10 + VIOLATION_WEIGHT
    assert violation["score"] > stall["score"] > plain["score"]


def test_out_of_budget_unsafe_run_scores_as_ordinary():
    fitness = fitness_of(_row(safe=False), within_budget=False)
    assert fitness["violation"] is False
    assert fitness["score"] == 10


def test_effort_override_replaces_the_explored_component():
    fitness = fitness_of(_row(explored=10), within_budget=True, effort=500)
    assert fitness["explored_states"] == 500
    assert fitness["score"] == 500


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
def _evaluation(candidate, score, explored=None):
    explored = score if explored is None else explored
    return Evaluation(
        candidate=candidate,
        schedule=None,
        row={},
        fitness={
            "score": score,
            "explored_states": explored,
            "stalled": False,
            "violation": False,
        },
        within_budget=True,
        budget_witness=None,
    )


def test_nemesis_registry_has_the_three_builtin_strategies():
    assert set(NEMESIS.names()) >= {"random", "hill-climb", "coverage-guided"}


def test_random_strategy_parents_are_always_seeds():
    strategy = build_strategy("random")
    state = HuntState()
    state.add_seed(_evaluation(0, 5))
    state.add_seed(_evaluation(1, 7))
    state.observe(_evaluation(2, 9), admitted=True)  # an admitted mutant
    rng = random.Random(3)
    for _ in range(20):
        assert strategy.select_parent(state, rng).candidate in (0, 1)


def test_hill_climb_parent_is_the_incumbent_best():
    strategy = build_strategy("hill-climb")
    state = HuntState()
    state.add_seed(_evaluation(0, 5))
    state.observe(_evaluation(1, 9), admitted=True)
    assert strategy.select_parent(state, random.Random(0)).candidate == 1
    # Strict improvement only: a tie is not admitted.
    assert strategy.admit(state, _evaluation(2, 9)) is False
    assert strategy.admit(state, _evaluation(2, 10)) is True


def test_coverage_guided_admits_new_signature_buckets():
    strategy = build_strategy("coverage-guided")
    state = HuntState()
    state.add_seed(_evaluation(0, 5))
    # Same bucket, lower score: rejected.
    assert strategy.admit(state, _evaluation(1, 4, explored=4)) is False
    # New explored-states band (different bucket): admitted despite the score.
    assert strategy.admit(state, _evaluation(1, 30, explored=30)) is True


def test_unknown_strategy_gets_a_rich_error():
    with pytest.raises(ReproError):
        build_strategy("gradient-descent")
