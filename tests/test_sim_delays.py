"""Tests for message delay models (:mod:`repro.sim.delays`)."""

import random

import pytest

from repro.errors import ReproError
from repro.sim import FixedDelay, PartialSynchronyDelay, UniformDelay, build_delay_model


def test_fixed_delay_constant():
    model = FixedDelay(2.5)
    assert model.delay(("a", "b"), 0.0) == 2.5
    assert model.delay(("b", "a"), 100.0) == 2.5


def test_fixed_delay_rejects_negative():
    with pytest.raises(ValueError):
        FixedDelay(-1.0)


def test_uniform_delay_within_bounds_and_deterministic():
    model = UniformDelay(1.0, 3.0, seed=42)
    values = [model.delay(("a", "b"), 0.0) for _ in range(50)]
    assert all(1.0 <= v <= 3.0 for v in values)
    replay = UniformDelay(1.0, 3.0, seed=42)
    assert values == [replay.delay(("a", "b"), 0.0) for _ in range(50)]


def test_uniform_delay_rejects_bad_bounds():
    with pytest.raises(ValueError):
        UniformDelay(3.0, 1.0)
    with pytest.raises(ValueError):
        UniformDelay(-1.0, 1.0)


def test_partial_synchrony_respects_delta_after_gst():
    model = PartialSynchronyDelay(gst=10.0, delta=1.0, pre_gst_max=20.0, seed=1)
    post = [model.delay(("a", "b"), 10.0 + i) for i in range(50)]
    assert all(v <= 1.0 for v in post)


def test_partial_synchrony_pre_gst_can_exceed_delta():
    model = PartialSynchronyDelay(gst=100.0, delta=1.0, pre_gst_max=20.0, seed=1)
    pre = [model.delay(("a", "b"), float(i)) for i in range(50)]
    assert all(1.0 <= v <= 20.0 for v in pre)
    assert any(v > 1.0 for v in pre)


def test_partial_synchrony_parameter_validation():
    with pytest.raises(ValueError):
        PartialSynchronyDelay(delta=0.0)
    with pytest.raises(ValueError):
        PartialSynchronyDelay(delta=2.0, pre_gst_max=1.0)
    with pytest.raises(ValueError):
        PartialSynchronyDelay(gst=-1.0)


def test_partial_synchrony_same_seed_replays():
    first, second = PartialSynchronyDelay(seed=7), PartialSynchronyDelay(seed=7)
    assert [first.delay(("a", "b"), 0.0) for _ in range(10)] == [
        second.delay(("a", "b"), 0.0) for _ in range(10)
    ]


def test_delay_streams_equal_random_uniform_float_for_float():
    """The models inline ``a + (b - a) * random()``; every recorded trace and
    golden file depends on that being the very float ``uniform(a, b)`` returns."""
    for low, high, seed in ((0.5, 2.0, 0), (0.0, 1.0, 7), (0.1, 0.1, 3), (1e-9, 1e9, 11)):
        model = UniformDelay(low, high, seed=seed)
        reference = random.Random(seed)
        for _ in range(1000):
            assert model.delay(("a", "b"), 0.0) == reference.uniform(low, high)
    model = PartialSynchronyDelay(gst=30.0, delta=0.7, pre_gst_max=13.0, seed=5)
    reference = random.Random(5)
    for index in range(1000):
        # Alternate sides of GST (and sit exactly on it) within one stream.
        send_time = (29.9, 30.0, 31.5)[index % 3]
        expected = (
            reference.uniform(0.1 * 0.7, 0.7) if send_time >= 30.0 else reference.uniform(0.7, 13.0)
        )
        assert model.delay(("a", "b"), send_time) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, "1.0"])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: FixedDelay(v), "latency"),
        (lambda v: UniformDelay(v, 2.0), "min_delay"),
        (lambda v: UniformDelay(0.5, v), "max_delay"),
        (lambda v: PartialSynchronyDelay(gst=v), "gst"),
        (lambda v: PartialSynchronyDelay(delta=v), "delta"),
        (lambda v: PartialSynchronyDelay(pre_gst_max=v), "pre_gst_max"),
    ],
    ids=["fixed-latency", "uniform-min", "uniform-max", "ps-gst", "ps-delta", "ps-pre-gst-max"],
)
def test_non_finite_and_negative_parameters_are_refused_by_name(build, name, value):
    """A NaN delay used to reach the event queue, where it compares false with
    every time and corrupts the heap order."""
    with pytest.raises(ValueError, match="^{} must be a finite".format(name)):
        build(value)


def test_declarative_construction_names_the_kind_and_the_parameter():
    with pytest.raises(ReproError, match="^delay model 'uniform': min_delay must be a finite"):
        build_delay_model("uniform", {"min_delay": float("nan")})
