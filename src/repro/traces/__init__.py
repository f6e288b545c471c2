"""Trace capture & replay verification: record simulated runs, re-check later.

The trace subsystem decouples *simulate* from *verify*.  Recording
(``--record-traces DIR`` on ``repro scenario run``, ``repro scenario sweep``
and ``repro simulate``) persists every run's operation history, system,
failure/delay description and inline verdict as one schema-versioned JSONL
file; ``repro check DIR`` fans the recorded histories out over the parallel
experiment engine and re-judges them with a chosen checker — the evidence
behind a safety verdict becomes a first-class, independently re-verifiable
artifact, and verification scales separately from simulation.

See ``docs/traces.md`` for the schema and worked examples.

Corpus directories produced by ``repro nemesis hunt`` are ordinary trace
directories whose runs additionally carry *incident reports*
(:mod:`repro.traces.incidents`): accountability records naming the
processes/channels an adversarial schedule abused, cross-checked against the
declared fail-prone budget.  ``repro check`` re-verifies such a corpus
unchanged — it only reads the ``*.trace.jsonl`` files.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".check": ("TraceCheckReport", "check_trace", "check_traces"),
    ".incidents": (
        "INCIDENT_KEYS", "INCIDENT_SCHEMA_VERSION", "INCIDENT_SUFFIX", "budget_check",
        "build_incident", "incident_file_name", "list_incident_files", "load_incident",
        "write_incident",
    ),
    ".store": (
        "TRACE_SCHEMA_VERSION", "TRACE_SUFFIX", "Trace", "ensure_trace_directory",
        "list_trace_files", "load_trace", "trace_file_name", "write_run_trace",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
