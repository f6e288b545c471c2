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

Every line is :func:`repro.egress.canonical` JSON (sorted keys, fixed
separators), and operations are written in history order, so a trace's bytes
are a pure function of the run that produced it — recording under ``--jobs 8``
yields byte-identical files to recording serially.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import egress, ingress
from ..errors import ReproError
from ..failures import FailurePattern
from ..history import History, OperationRecord
from ..quorums import GeneralizedQuorumSystem
from ..serialization import (
    failure_pattern_from_dict,
    failure_pattern_to_dict,
    history_to_dicts,
    operation_record_from_dict,
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

#: Operation kinds whose argument and result the checkers hash (not a snapshot
#: scan's mapping); a consensus trace's ``propose`` too (see :func:`load_trace`).
_HASHED_KINDS = frozenset({"read", "write", "snapshot_write"})


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
    records: List[Dict[str, Any]] = [meta]
    if quorum_system is not None:
        records.append({"type": "system", "quorum_system": quorum_system_to_dict(quorum_system)})
    if pattern is not None:
        records.append(
            {"type": "failure", "pattern": failure_pattern_to_dict(pattern), "at_time": inject_at}
        )
    if delay is not None:
        records.append(dict({"type": "delay"}, **delay))
    for record in history_to_dicts(history):
        records.append(dict({"type": "op"}, **record))
    records.append(dict({"type": "verdict"}, **verdict))
    egress.write_json_lines(path, records)
    return path


def _record(record: Any) -> Tuple[str, Any]:
    """One trace line as ``(type, what it says)``, checked as far as its type says.

    An ``op`` line says its operation record; every other type the
    :class:`Trace` fields it sets.
    """
    record = ingress.mapping(record, "a trace record")
    kind = ingress.required(record, "type", "a trace record")
    if kind == "meta":
        ingress.schema(record, TRACE_SCHEMA_VERSION, "trace")
        scenario = record.get("scenario")
        if scenario is not None:
            ingress.mapping(scenario, "field 'scenario'")
        fields = {
            "name": ingress.text(record.get("name", ""), "field 'name'"),
            "protocol": ingress.text(record.get("protocol", ""), "field 'protocol'"),
            "scenario": scenario,
        }
        for key in ("root_seed", "run", "seed"):
            fields[key] = ingress.numeric_field(record, key, int, default=0)
        return kind, fields
    if kind == "system":
        # Recorded systems are trusted artifacts of a validated run, so
        # skip re-running the (possibly expensive) GQS validity checks.
        system = ingress.required(record, "quorum_system", "a 'system' record")
        return kind, {"quorum_system": quorum_system_from_dict(system, validate=False)}
    if kind == "failure":
        pattern = ingress.required(record, "pattern", "a 'failure' record")
        return kind, {
            "pattern": failure_pattern_from_dict(pattern),
            "inject_at": ingress.numeric_field(record, "at_time", finite=True),
        }
    if kind == "op":
        operation = operation_record_from_dict(record)
        return kind, _hashable(operation) if operation.kind in _HASHED_KINDS else operation
    if kind in ("delay", "verdict"):
        return kind, {kind: {key: value for key, value in record.items() if key != "type"}}
    return "unknown", {}  # skipped: minor schema additions stay readable


def _hashable(operation: OperationRecord) -> OperationRecord:
    """``operation``, refused if a checker could not hash its argument and result."""
    try:
        hash((operation.argument, operation.result))
    except TypeError:
        raise ReproError("a {!r} operation's argument and result must be scalars, tuples "
                         "or frozensets".format(operation.kind)) from None
    return operation


def load_trace(path: str) -> Trace:
    """Parse one trace file (validating the schema version)."""
    lines = ingress.read_json_lines(path, _record)
    records = [record for _, record in lines]
    if not any(kind == "meta" for kind, _ in records):
        raise ReproError("{}: trace has no 'meta' record".format(path))
    fields: Dict[str, Any] = {"delay": {}, "verdict": {}}
    for kind, value in records:
        if kind != "op":
            fields.update(value)
    if fields["protocol"] == "consensus":
        # Lattice agreement writes ``propose`` lines too: only the meta record
        # says that the consensus checker hashes their values.
        for where, (kind, value) in lines:
            if kind == "op":
                ingress.attributed(where, _hashable, value)
    if not fields["verdict"]:
        # Every writer ends a trace with its verdict line, so its absence
        # means truncation — refuse rather than vacuously re-verify a stub.
        raise ReproError(
            "{}: trace has no 'verdict' record (truncated or corrupt file)".format(path)
        )
    history = History(value for kind, value in records if kind == "op")
    return Trace(schema=TRACE_SCHEMA_VERSION, history=history, path=path, **fields)


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
