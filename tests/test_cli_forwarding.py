"""The CLI forwards what was typed — and nothing else — to ``repro.api``.

Every command runs against a recording stand-in for :mod:`repro.api` (each
call is recorded with its arguments bound to parameter names, then made for
real, so the command prints as usual).  With no optional flag on the command
line only the positionals may arrive: every default then comes from the one
place that declares it, the ``api`` (or layer) signature.  With flags typed,
exactly those arrive, under the ``api`` parameter names.
"""

import functools
import inspect

import pytest

import repro
from repro import api
from repro.cli import main


class RecordingApi:
    """``repro.api`` with every function call recorded as ``(name, {parameter: value})``."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        real = getattr(api, name)
        if not inspect.isfunction(real):
            return real

        @functools.wraps(real)
        def recorded(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            self.calls.append((name, dict(bound.arguments)))
            return real(*args, **kwargs)

        return recorded


@pytest.fixture(scope="module")
def evidence(tmp_path_factory):
    """A recorded trace directory, a hunt corpus and a delta stream to point commands at."""
    root = tmp_path_factory.mktemp("forwarding")
    traces, corpus, deltas = root / "traces", root / "corpus", root / "deltas.jsonl"
    api.run_scenario("unidirectional-ring", runs=1, record_traces=str(traces))
    report = api.hunt("adversarial-partition", budget=1, seeds=1, corpus_dir=str(corpus))
    schedule = corpus / (report.corpus[0]["file"] + ".schedule.json")
    deltas.write_text('{"op": "suspect", "process": "a"}\n')
    return {"traces": str(traces), "corpus": str(corpus), "schedule": str(schedule),
            "deltas": str(deltas), "out": str(root / "recorded")}


#: ``(argv, [(api function, names of the arguments that may arrive), ...])``;
#: ``{key}`` tokens are filled in from the ``evidence`` fixture.
NOTHING_TYPED = [
    (["check"], [("resolve_system", set()), ("discover", {"system"})]),
    (["check", "{traces}"], [("check_traces", {"directory"})]),
    (["quorums", "discover"], [("resolve_system", set()), ("discovery_report", {"system"})]),
    (["quorums", "watch", "{deltas}"],
     [("resolve_system", set()), ("watch_quorums", {"system", "deltas"})]),
    (["quorums", "classify"], [("resolve_system", set()), ("classify", {"system"})]),
    (["quorums", "repair"], [("resolve_system", set()), ("repair", {"system"})]),
    (["simulate"], [("resolve_system", set()), ("simulate", {"system"})]),
    (["sweep"], [("sweep", set())]),
    (["scenario", "list"], []),
    (["scenario", "show", "churn-at-gst"], []),
    (["scenario", "run", "unidirectional-ring"], [("run_scenario", {"scenario"})]),
    (["scenario", "sweep"], [("sweep_scenarios", {"scenarios"})]),
    (["nemesis", "hunt", "adversarial-partition"], [("hunt", {"scenario"})]),
    (["nemesis", "replay", "{schedule}"], [("replay_schedule", {"path"})]),
    (["nemesis", "corpus", "{corpus}"],
     [("nemesis_corpus", {"directory"}), ("nemesis_corpus_table", {"directory", "rows"})]),
    (["plugins", "list"], []),
    (["examples"], [("run_examples", set())]),
]

FLAGS_TYPED = [
    (["check", "{traces}", "--checker", "wing-gong", "--jobs", "2", "--progress"],
     [("check_traces", {"directory", "checker", "jobs", "progress"})]),
    (["check", "--builtin", "figure1-modified", "--suggest-repairs", "--max-repair-channels", "1"],
     [("resolve_system", {"builtin"}), ("discover", {"system"}),
      ("repair", {"system", "max_channels"})]),
    (["quorums", "discover", "--builtin", "ring-5", "--progress", "--format", "json"],
     [("resolve_system", {"builtin"}), ("discovery_report", {"system", "progress"})]),
    (["quorums", "repair", "--builtin", "figure1-modified", "--max-channels", "1",
      "--max-suggestions", "1"],
     [("resolve_system", {"builtin"}), ("repair", {"system", "max_channels", "max_suggestions"})]),
    (["simulate", "--object", "register", "--pattern", "f1", "--ops", "1", "--seed", "3",
      "--runs", "2", "--jobs", "1", "--record-traces", "{out}"],
     [("resolve_system", set()),
      ("simulate", {"system", "protocol", "pattern", "ops", "seed", "runs", "jobs",
                    "record_traces"})]),
    (["sweep", "admissibility", "--probs", "0.1", "--samples", "2", "--n", "4", "--patterns", "2",
      "--seed", "1", "--jobs", "1", "--progress"],
     [("sweep", {"kind", "probs", "samples", "n", "patterns", "seed", "jobs",
                 "progress_factory"})]),
    (["scenario", "run", "unidirectional-ring", "--runs", "1", "--seed", "2", "--jobs", "1",
      "--progress", "--record-traces", "{out}"],
     [("run_scenario", {"scenario", "runs", "seed", "jobs", "progress", "record_traces"})]),
    (["scenario", "sweep", "paxos-baseline", "--runs", "1", "--progress"],
     [("sweep_scenarios", {"scenarios", "runs", "progress"})]),
    (["nemesis", "hunt", "adversarial-partition", "--strategy", "random", "--budget", "1",
      "--seeds", "1", "--batch", "1", "--seed", "2", "--jobs", "1", "--corpus", "{out}",
      "--from-traces", "{corpus}", "--progress"],
     [("hunt", {"scenario", "strategy", "budget", "seeds", "batch", "seed", "jobs", "corpus_dir",
                "from_traces", "progress"})]),
]


CASES = NOTHING_TYPED + FLAGS_TYPED


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(argv[:6]) for argv, _ in CASES])
def test_cli_forwards_exactly_what_was_typed(monkeypatch, capsys, evidence, argv, expected):
    recorder = RecordingApi()
    monkeypatch.setattr(repro, "api", recorder)
    main([token.format(**evidence) for token in argv])
    capsys.readouterr()
    assert [(name, set(arguments)) for name, arguments in recorder.calls] == expected
