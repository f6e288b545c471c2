"""The JSONL trace store: persisted evidence behind safety verdicts.

A *trace* is one simulated run flattened into a JSON-lines file: a
schema-versioned metadata record, the system the run executed over (quorum
system, injected failure pattern, delay model), every operation of the
recorded history, and the verdict row the inline checker produced.  Traces
are the decoupling point between *simulate* and *verify*: a scenario batch
records its evidence once, and ``repro check <dir>`` can re-verify it later —
with a different checker, a different job count, or a checker that did not
exist when the trace was written.

File format (one JSON object per line, first field ``"type"``):

``meta``
    ``schema`` (:data:`TRACE_SCHEMA_VERSION`), ``name`` (scenario name or
    workload label), ``protocol``, ``root_seed``, ``run`` (index within its
    batch), ``seed`` (the run's spawned seed), and optionally the full
    declarative ``scenario`` dictionary.
``system``
    The serialized generalized quorum system the protocols ran over.
``failure``
    The injected failure pattern and its injection time (absent on
    failure-free runs).
``delay``
    The delay-model description: the registered kind, its parameters and the
    run's seed.
``op``
    One operation record (see :func:`repro.serialization.operation_record_to_dict`);
    arguments/results use the tagged value codec so non-JSON values such as
    lattice ``frozenset`` proposals round-trip exactly.
``verdict``
    The inline run row: ``completed``, ``safe``, ``checker``,
    ``explored_states`` and the metric columns.

Every line is written with sorted keys and fixed separators, and operations
are written in history order, so a trace's bytes are a pure function of the
run that produced it — recording under ``--jobs 8`` yields byte-identical
files to recording serially.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..errors import ReproError, numeric_field
from ..failures import FailurePattern
from ..history import History
from ..quorums import GeneralizedQuorumSystem
from ..serialization import (
    failure_pattern_from_dict,
    failure_pattern_to_dict,
    history_from_dicts,
    history_to_dicts,
    quorum_system_from_dict,
    quorum_system_to_dict,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_SUFFIX",
    "Trace",
    "ensure_trace_directory",
    "list_trace_files",
    "load_trace",
    "trace_file_name",
    "write_run_trace",
]

#: Bumped whenever the record layout changes; readers reject newer schemas.
TRACE_SCHEMA_VERSION = 1

#: File-name suffix identifying trace files inside a trace directory.
TRACE_SUFFIX = ".trace.jsonl"


def _dumps(record: Dict[str, Any]) -> str:
    """One canonical JSONL line (sorted keys, fixed separators)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """One fully parsed trace file."""

    schema: int
    name: str
    protocol: str
    root_seed: int
    run: int
    seed: int
    history: History
    quorum_system: Optional[GeneralizedQuorumSystem] = None
    pattern: Optional[FailurePattern] = None
    inject_at: Optional[float] = None
    delay: Dict[str, Any] = field(default_factory=dict)
    scenario: Optional[Dict[str, Any]] = None
    verdict: Dict[str, Any] = field(default_factory=dict)
    path: str = ""

    @property
    def recorded_safe(self) -> Optional[bool]:
        """The inline checker's verdict at record time (``None`` if absent)."""
        value = self.verdict.get("safe")
        return bool(value) if value is not None else None


def run_stem(name: str, root_seed: int, run_index: int) -> str:
    """``<name>-seed<S>-run<NNNN>``: the file stem all evidence of one run shares."""
    return "{}-seed{}-run{:04d}".format(name, root_seed, run_index)


def trace_file_name(name: str, root_seed: int, run_index: int) -> str:
    """The canonical trace file name for one run of a seeded batch."""
    return run_stem(name, root_seed, run_index) + TRACE_SUFFIX


def write_evidence(path: str, text: str) -> None:
    """Write ``text`` and a final newline to ``path``, all or nothing.

    Write-then-rename, so a killed worker (or a full disk) can never leave a
    partial file behind that would later parse as a valid shorter trace,
    incident, schedule or report: evidence must be all-or-nothing.
    """
    partial = "{}.tmp".format(path)
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    os.replace(partial, path)


def ensure_trace_directory(directory: Optional[str]) -> None:
    """Create ``directory`` (``None``: nothing is recorded), or say why evidence cannot go there.

    Recording entry points call this once, in the parent, before any run starts —
    not a worker's traceback after the work is done.
    """
    if directory is None:
        return
    try:
        os.makedirs(directory, exist_ok=True)
        if not os.access(directory, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as error:
        raise ReproError(
            "cannot write traces to {!r}: {}".format(directory, error.strerror or error)
        ) from error


def write_run_trace(
    directory: str,
    *,
    name: str,
    protocol: str,
    root_seed: int,
    run_index: int,
    seed: int,
    history: History,
    verdict: Dict[str, Any],
    quorum_system: Optional[GeneralizedQuorumSystem] = None,
    pattern: Optional[FailurePattern] = None,
    inject_at: Optional[float] = None,
    delay: Optional[Dict[str, Any]] = None,
    scenario: Optional[Dict[str, Any]] = None,
) -> str:
    """Write one run's trace file into ``directory`` and return its path.

    Safe to call concurrently from engine worker processes: each run owns one
    deterministically named file, so recording parallelism never races.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, trace_file_name(name, root_seed, run_index))
    meta: Dict[str, Any] = {
        "type": "meta",
        "schema": TRACE_SCHEMA_VERSION,
        "name": name,
        "protocol": protocol,
        "root_seed": root_seed,
        "run": run_index,
        "seed": seed,
    }
    if scenario is not None:
        meta["scenario"] = scenario
    lines: List[str] = [_dumps(meta)]
    if quorum_system is not None:
        lines.append(_dumps({"type": "system", "quorum_system": quorum_system_to_dict(quorum_system)}))
    if pattern is not None:
        lines.append(
            _dumps(
                {
                    "type": "failure",
                    "pattern": failure_pattern_to_dict(pattern),
                    "at_time": inject_at,
                }
            )
        )
    if delay is not None:
        lines.append(_dumps(dict({"type": "delay"}, **delay)))
    for record in history_to_dicts(history):
        lines.append(_dumps(dict({"type": "op"}, **record)))
    lines.append(_dumps(dict({"type": "verdict"}, **verdict)))
    write_evidence(path, "\n".join(lines))
    return path


def _parse_lines(path: str) -> Iterator[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # RecursionError: nested past the decoder's depth
                raise ReproError("{}:{}: not valid JSON".format(path, number))
            if not isinstance(record, dict) or "type" not in record:
                raise ReproError("{}:{}: trace records must be objects with a 'type'".format(path, number))
            yield record


def load_trace(path: str) -> Trace:
    """Parse one trace file (validating the schema version)."""
    meta: Optional[Dict[str, Any]] = None
    quorum_system: Optional[GeneralizedQuorumSystem] = None
    pattern: Optional[FailurePattern] = None
    inject_at: Optional[float] = None
    delay: Dict[str, Any] = {}
    operations: List[Dict[str, Any]] = []
    verdict: Dict[str, Any] = {}
    for record in _parse_lines(path):
        kind = record["type"]
        if kind == "meta":
            schema = record.get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                raise ReproError(
                    "{}: unsupported trace schema {!r} (this build reads schema {})".format(
                        path, schema, TRACE_SCHEMA_VERSION
                    )
                )
            meta = record
        elif kind == "system":
            # Recorded systems are trusted artifacts of a validated run, so
            # skip re-running the (possibly expensive) GQS validity checks.
            quorum_system = quorum_system_from_dict(record["quorum_system"], validate=False)
        elif kind == "failure":
            pattern = failure_pattern_from_dict(record["pattern"])
            inject_at = record.get("at_time")
        elif kind == "delay":
            delay = {key: value for key, value in record.items() if key != "type"}
        elif kind == "op":
            operations.append(record)
        elif kind == "verdict":
            verdict = {key: value for key, value in record.items() if key != "type"}
        # Unknown record types are skipped: minor schema additions stay readable.
    if meta is None:
        raise ReproError("{}: trace has no 'meta' record".format(path))
    if not verdict:
        # Every writer ends a trace with its verdict line, so its absence
        # means truncation — refuse rather than vacuously re-verify a stub.
        raise ReproError(
            "{}: trace has no 'verdict' record (truncated or corrupt file)".format(path)
        )
    try:
        counters = {
            key: numeric_field(meta, key, int, default=0) for key in ("root_seed", "run", "seed")
        }
    except ReproError as error:
        raise ReproError("{}: 'meta' record {}".format(path, error)) from error
    return Trace(
        schema=meta["schema"],
        name=meta.get("name", ""),
        protocol=meta.get("protocol", ""),
        **counters,
        history=history_from_dicts(operations),
        quorum_system=quorum_system,
        pattern=pattern,
        inject_at=inject_at,
        delay=delay,
        scenario=meta.get("scenario"),
        verdict=verdict,
        path=path,
    )


def list_trace_files(directory: str) -> List[str]:
    """All trace files under ``directory``, sorted by name (deterministic).

    The sorted listing is what makes ``repro check``'s verdict table a pure
    function of the directory contents, independent of filesystem order and
    of the job count used to produce or consume it.
    """
    if not os.path.isdir(directory):
        raise ReproError("trace directory {!r} does not exist".format(directory))
    names = sorted(entry for entry in os.listdir(directory) if entry.endswith(TRACE_SUFFIX))
    if not names:
        raise ReproError("no {} files found in {!r}".format(TRACE_SUFFIX, directory))
    return [os.path.join(directory, name) for name in names]
