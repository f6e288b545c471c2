"""Tests for failure patterns (:mod:`repro.failures.pattern`)."""

import pytest

from repro.errors import InvalidFailurePatternError
from repro.failures import NO_FAILURES, FailurePattern


def test_basic_pattern_accessors():
    f = FailurePattern(["d"], [("a", "c"), ("b", "c")], name="f1")
    assert f.crash_prone == frozenset({"d"})
    assert ("a", "c") in f.disconnect_prone
    assert f.name == "f1"


def test_channel_incident_to_crash_prone_process_rejected():
    with pytest.raises(InvalidFailurePatternError):
        FailurePattern(["a"], [("a", "b")])
    with pytest.raises(InvalidFailurePatternError):
        FailurePattern(["b"], [("a", "b")])


def test_self_loop_channel_rejected():
    with pytest.raises(InvalidFailurePatternError):
        FailurePattern([], [("a", "a")])


def test_correct_processes():
    f = FailurePattern(["b"])
    assert f.correct_processes(["a", "b", "c"]) == frozenset({"a", "c"})


def test_faulty_channel_includes_crash_incident_channels():
    f = FailurePattern(["b"], [("a", "c")])
    assert f.is_faulty_channel(("a", "b"))
    assert f.is_faulty_channel(("b", "a"))
    assert f.is_faulty_channel(("a", "c"))
    assert not f.is_faulty_channel(("c", "a"))


def test_subsumption():
    small = FailurePattern(["a"])
    bigger = FailurePattern(["a", "b"])
    with_channels = FailurePattern(["a"], [("b", "c")])
    assert small.is_subsumed_by(bigger)
    assert not bigger.is_subsumed_by(small)
    assert small.is_subsumed_by(with_channels)
    # Channel (b, c) failing is covered by b crashing in `bigger`.
    assert with_channels.is_subsumed_by(bigger)


def test_equality_and_hash_ignore_name():
    first = FailurePattern(["a"], [("b", "c")], name="x")
    second = FailurePattern(["a"], [("b", "c")], name="y")
    assert first == second
    assert hash(first) == hash(second)


def test_factories():
    assert FailurePattern.crash_only(["a"]).disconnect_prone == frozenset()
    assert NO_FAILURES.crash_prone == frozenset()
    assert NO_FAILURES.disconnect_prone == frozenset()


def test_repr_contains_name_and_members():
    f = FailurePattern(["a"], [("b", "c")], name="f9")
    text = repr(f)
    assert "f9" in text and "a" in text and "b" in text
