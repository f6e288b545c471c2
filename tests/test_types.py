"""Tests for the basic value types in :mod:`repro.types`."""

from repro.types import (
    channel_set,
    process_set,
    sort_key,
    sorted_channels,
    sorted_processes,
)


def test_process_set_is_frozen():
    ps = process_set(["a", "b", "a"])
    assert ps == frozenset({"a", "b"})
    assert isinstance(ps, frozenset)


def test_channel_set_normalises_pairs():
    cs = channel_set([["a", "b"], ("b", "c")])
    assert ("a", "b") in cs
    assert ("b", "c") in cs
    assert len(cs) == 2


def test_sorted_processes_deterministic_with_mixed_types():
    mixed = [3, "a", 1, "b"]
    once = sorted_processes(mixed)
    twice = sorted_processes(reversed(mixed))
    assert once == twice
    assert set(once) == set(mixed)


def test_sorted_channels_orders_pairs():
    channels = [("b", "a"), ("a", "b"), ("a", "a")]
    ordered = sorted_channels(channels)
    assert ordered[0] == ("a", "a")
    assert ordered[-1] == ("b", "a")


def test_sort_key_separates_types():
    assert sort_key(1) != sort_key("1")
