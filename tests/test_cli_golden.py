"""Byte-identity of CLI output across the facade/registry redesign.

The golden files under ``tests/golden/`` were captured from the CLI *before*
:mod:`repro.api` and :mod:`repro.registry` existed; these tests pin the
redesigned CLI to the exact same bytes, so the refactor (and any future one)
cannot silently change user-visible output of the existing commands.
"""

import json
import os
import shutil

import pytest

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


# --------------------------------------------------------------------- #
# The whole command surface: one table and one JSON invocation per command
# and per exit path, against ``tests/golden/cli/<id>.out``
# --------------------------------------------------------------------- #
#: ``(id, argv, exit status)``.  Every case runs with the ``evidence``
#: directory as its working directory, so the paths that appear in output
#: (``traces``, ``corpus/…schedule.json``) are the same bytes on every machine.
#: The files were captured at the commit *before* result types rendered
#: themselves; ``REPRO_UPDATE_GOLDEN=1`` re-captures after an intended change.
_RING = ["unidirectional-ring", "--runs", "2", "--seed", "7"]
_MC = ["--seed", "7", "--samples", "8", "--probs", "0.0", "0.3"]
_SCHEDULE = "corpus/nemesis-adversarial-partition-seed7-run0000.schedule.json"
_JSON = ["--format", "json"]
#: The six-delta script of the ``discover-churn`` benchmark workload (seed 0),
#: committed beside the goldens as an input.
_CHURN = "churn-deltas.jsonl"
CLI_CASES = [
    ("check-yes", ["check"], 0),
    ("check-no", ["check", "--builtin", "figure1-modified"], 2),
    ("check-suggest-found", ["check", "--builtin", "figure1-modified", "--suggest-repairs"], 2),
    ("check-suggest-none", ["check", "--spec", "norepair.json", "--suggest-repairs"], 2),
    ("discover-yes", ["quorums", "discover", "--builtin", "ring-5"], 0),
    ("discover-yes-json", ["quorums", "discover", "--builtin", "ring-5"] + _JSON, 0),
    ("discover-no", ["quorums", "discover", "--builtin", "figure1-modified"], 2),
    ("discover-no-json", ["quorums", "discover", "--builtin", "figure1-modified"] + _JSON, 2),
    ("watch", ["quorums", "watch", "--builtin", "multiregion-4x3", "deltas.jsonl"], 0),
    ("watch-json", ["quorums", "watch", "--builtin", "multiregion-4x3", "deltas.jsonl"] + _JSON, 0),
    ("watch-lost", ["quorums", "watch", "lost.jsonl"], 2),
    ("watch-churn", ["quorums", "watch", "--builtin", "large-threshold-24x2", _CHURN], 0),
    ("watch-churn-json",
     ["quorums", "watch", "--builtin", "large-threshold-24x2", _CHURN] + _JSON, 0),
    ("classify", ["quorums", "classify"], 0),
    ("classify-json", ["quorums", "classify", "--builtin", "figure1-modified"] + _JSON, 0),
    ("repair-found", ["quorums", "repair", "--builtin", "figure1-modified"], 0),
    ("repair-found-json", ["quorums", "repair", "--builtin", "figure1-modified"] + _JSON, 0),
    ("repair-none", ["quorums", "repair", "--spec", "norepair.json"], 2),
    ("repair-none-json", ["quorums", "repair", "--spec", "norepair.json"] + _JSON, 2),
    ("repair-tolerable", ["quorums", "repair"], 0),
    ("repair-tolerable-json", ["quorums", "repair"] + _JSON, 0),
    ("simulate-1run", ["simulate", "--pattern", "f1", "--ops", "1"], 0),
    ("simulate-3runs", ["simulate", "--object", "snapshot", "--runs", "3", "--seed", "7"], 0),
    ("simulate-paxos", ["simulate", "--builtin", "minority-5", "--object", "paxos"], 0),
    ("simulate-no-gqs", ["simulate", "--builtin", "figure1-modified"], 2),
    ("sweep-all", ["sweep"] + _MC, 0),
    ("sweep-all-json", ["sweep"] + _MC + _JSON, 0),
    ("sweep-admissibility", ["sweep", "admissibility"] + _MC, 0),
    ("sweep-admissibility-json", ["sweep", "admissibility"] + _MC + _JSON, 0),
    ("scenario-list", ["scenario", "list"], 0),
    ("scenario-list-json", ["scenario", "list"] + _JSON, 0),
    ("scenario-list-markdown", ["scenario", "list", "--format", "markdown"], 0),
    ("scenario-show", ["scenario", "show", "churn-at-gst"], 0),
    ("scenario-show-json", ["scenario", "show", "churn-at-gst"] + _JSON, 0),
    ("scenario-run", ["scenario", "run"] + _RING + ["--record-traces", "recorded"], 0),
    ("scenario-run-json", ["scenario", "run"] + _RING + _JSON, 0),
    ("scenario-sweep", ["scenario", "sweep", "lattice-fan-in", "paxos-baseline", "--runs", "1"], 0),
    ("scenario-sweep-json",
     ["scenario", "sweep", "lattice-fan-in", "paxos-baseline", "--runs", "1"] + _JSON, 0),
    ("check-dir", ["check", "traces"], 0),
    ("check-dir-json", ["check", "traces", "--checker", "wing-gong"] + _JSON, 0),
    ("check-dir-mismatch", ["check", "tampered"], 1),
    ("check-dir-mismatch-json", ["check", "tampered"] + _JSON, 1),
    ("hunt", ["nemesis", "hunt", "adversarial-partition", "--budget", "4", "--seed", "7",
              "--corpus", "hunted"], 0),
    ("hunt-json", ["nemesis", "hunt", "adversarial-partition", "--budget", "4", "--seed", "7"]
     + _JSON, 0),
    ("corpus", ["nemesis", "corpus", "corpus"], 0),
    ("corpus-json", ["nemesis", "corpus", "corpus"] + _JSON, 0),
    ("replay", ["nemesis", "replay", _SCHEDULE], 0),
    ("replay-json", ["nemesis", "replay", _SCHEDULE] + _JSON, 0),
    ("replay-no-incident", ["nemesis", "replay", "lonely.schedule.json"], 0),
    ("replay-diverged", ["nemesis", "replay", "diverged/" + os.path.basename(_SCHEDULE)], 1),
    ("plugins", ["plugins", "list"], 0),
    ("plugins-json", ["plugins", "list"] + _JSON, 0),
    ("examples", ["examples"], 0),
    ("version", ["--version"], 0),
]


@pytest.fixture(scope="module")
def evidence(tmp_path_factory):
    """The files the cases point at, under relative names: a recorded trace
    directory (and a copy whose recorded verdicts were flipped), a hunt corpus
    (plus a schedule with no incident beside it and one whose incident was
    tampered), two delta streams and a system no channel hardening repairs."""
    from repro import api

    root = tmp_path_factory.mktemp("cli-golden")
    api.run_scenario("unidirectional-ring", runs=2, seed=7, record_traces=str(root / "traces"))
    (root / "tampered").mkdir()
    for trace in sorted((root / "traces").iterdir()):
        text = trace.read_text()
        assert '"safe":true' in text
        (root / "tampered" / trace.name).write_text(text.replace('"safe":true', '"safe":false'))
    api.hunt("adversarial-partition", budget=4, seed=7, corpus_dir=str(root / "corpus"))
    schedule = root / _SCHEDULE
    shutil.copy(str(schedule), str(root / "lonely.schedule.json"))
    (root / "diverged").mkdir()
    shutil.copy(str(schedule), str(root / "diverged"))
    incident = str(schedule)[: -len(".schedule.json")] + ".incident.json"
    with open(incident, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    record["verdict"]["messages"] += 1
    (root / "diverged" / os.path.basename(incident)).write_text(json.dumps(record))
    (root / "deltas.jsonl").write_text(
        '{"op": "join", "process": "g1m7"}\n'
        '{"op": "suspect-channel", "src": "g1m0", "dst": "g2m0"}\n'
        '{"op": "leave", "process": "g3m2"}\n'
    )
    shutil.copy(os.path.join(GOLDEN_DIR, "cli", _CHURN), str(root))
    (root / "lost.jsonl").write_text(
        '{"op": "suspect", "process": "a"}\n{"op": "suspect", "process": "b"}\n'
    )
    (root / "norepair.json").write_text(json.dumps({
        "name": "two-crashes",
        "processes": ["a", "b"],
        "patterns": [{"name": "ca", "crash": ["a"], "disconnect": []},
                     {"name": "cb", "crash": ["b"], "disconnect": []}],
    }))
    return root


def run_cli(argv, capsys):
    """``(exit status, stdout, stderr)`` of ``main(argv)``, usage errors included."""
    try:
        status = main(argv)
    except SystemExit as stop:
        status = stop.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("name, argv, status", CLI_CASES, ids=[case[0] for case in CLI_CASES])
def test_cli_output_is_byte_identical(name, argv, status, evidence, monkeypatch, capsys):
    monkeypatch.chdir(evidence)
    got = run_cli(argv, capsys)
    path = os.path.join(GOLDEN_DIR, "cli", name + ".out")
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(got[1])
    assert got == (status, _golden(os.path.join("cli", name + ".out")), "")


def test_every_golden_cli_file_has_a_case():
    """Every ``.out`` file is a case's output; every other file is a case's input."""
    assert sorted(os.listdir(os.path.join(GOLDEN_DIR, "cli"))) == sorted(
        [case[0] + ".out" for case in CLI_CASES] + [_CHURN]
    )
