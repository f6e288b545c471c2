"""Tests for the analysis helpers: Figure 1 objects, worked examples, metrics."""

import pytest

from repro.analysis import (
    FIGURE1_PROCESSES,
    ResultTable,
    figure1_fail_prone_system,
    figure1_modified_fail_prone_system,
    figure1_patterns,
    figure1_quorum_system,
    figure1_read_quorums,
    figure1_write_quorums,
    mean,
    percentile,
    run_all_examples,
)
from repro.quorums import gqs_exists


# --------------------------------------------------------------------------- #
# Figure 1
# --------------------------------------------------------------------------- #
def test_figure1_patterns_have_expected_shape():
    patterns = figure1_patterns()
    assert len(patterns) == 4
    assert [f.name for f in patterns] == ["f1", "f2", "f3", "f4"]
    for pattern in patterns:
        assert len(pattern.crash_prone) == 1
        assert len(pattern.disconnect_prone) == 3


def test_figure1_f1_details():
    f1 = figure1_patterns()[0]
    assert f1.crash_prone == frozenset({"d"})
    # Correct channels under f1 are (c,a), (a,b), (b,a); the other
    # survivor-to-survivor channels may disconnect.
    assert f1.disconnect_prone == frozenset({("a", "c"), ("b", "c"), ("c", "b")})


def test_figure1_quorums_match_paper():
    reads = figure1_read_quorums()
    writes = figure1_write_quorums()
    assert frozenset({"a", "c"}) in reads
    assert frozenset({"b", "d"}) in reads
    assert writes == [
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"c", "d"}),
        frozenset({"d", "a"}),
    ]


def test_figure1_quorum_system_valid_and_components():
    gqs = figure1_quorum_system()
    assert gqs.is_valid()
    f1, _, f3, _ = gqs.fail_prone.patterns
    assert gqs.termination_component(f1) == frozenset({"a", "b"})
    assert gqs.termination_component(f3) == frozenset({"c", "d"})


def test_figure1_modified_system_admits_no_gqs():
    assert gqs_exists(figure1_fail_prone_system())
    assert not gqs_exists(figure1_modified_fail_prone_system())


def test_figure1_modified_only_changes_f1():
    modified = figure1_modified_fail_prone_system()
    names = [f.name for f in modified]
    assert names[0] == "f1'"
    assert ("a", "b") in modified.patterns[0].disconnect_prone
    assert names[1:] == ["f2", "f3", "f4"]


def test_figure1_process_constant():
    assert FIGURE1_PROCESSES == ("a", "b", "c", "d")


# --------------------------------------------------------------------------- #
# Worked examples
# --------------------------------------------------------------------------- #
def test_all_worked_examples_hold():
    outcomes = run_all_examples()
    assert len(outcomes) == 6
    for outcome in outcomes:
        assert outcome.holds, "{} failed: {}".format(outcome.example, outcome.details)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def test_result_table_formatting():
    table = ResultTable(title="demo", columns=["x", "value"])
    table.add_row(x=1, value=0.5)
    table.add_row(x=2, value=1.0)
    text = table.to_text()
    assert "demo" in text
    assert "0.500" in text
    assert [row["x"] for row in table.rows] == [1, 2]


def test_result_table_missing_column_rejected():
    table = ResultTable(title="demo", columns=["x", "y"])
    with pytest.raises(ValueError):
        table.add_row(x=1)


def test_mean_and_percentile():
    assert mean([]) == 0.0
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert percentile([], 0.5) == 0.0
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([1, 2, 3, 4], 1.0) == 4
    with pytest.raises(ValueError):
        percentile([1], 1.5)
    with pytest.raises(ValueError):
        percentile([], 2.0)
