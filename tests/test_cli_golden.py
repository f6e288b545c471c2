"""Byte-identity of CLI output across the facade/registry redesign.

The golden files under ``tests/golden/`` were captured from the CLI *before*
:mod:`repro.api` and :mod:`repro.registry` existed; these tests pin the
redesigned CLI to the exact same bytes, so the refactor (and any future one)
cannot silently change user-visible output of the existing commands.
"""

import json
import os

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_scenario_list_markdown_is_byte_identical(capsys):
    assert main(["scenario", "list", "--format", "markdown"]) == 0
    assert capsys.readouterr().out == _golden("scenario_list_markdown.txt")


def test_scenario_run_with_jobs_is_byte_identical(capsys):
    argv = ["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7", "--jobs", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _golden("scenario_run_ring.txt")


def test_quorums_discover_json_is_byte_identical(capsys):
    assert main(["quorums", "discover", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _golden("quorums_discover_figure1.json")
    json.loads(out)  # and it stays well-formed JSON


def test_sweep_json_is_byte_identical(capsys):
    """Captured at the commit before the sampled-residual kernel: the Monte
    Carlo shards may get faster, never different (same draws, same counters)."""
    assert main(["sweep", "--seed", "7", "--samples", "64", "--format", "json"]) == 0
    assert capsys.readouterr().out == _golden("sweep_seed7.json")
