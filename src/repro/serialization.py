"""JSON-friendly (de)serialization of failure models, quorum systems, histories.

The command-line tools and downstream users need a way to describe *their*
deployment's failure assumptions in a file, feed it to the GQS decision
procedure and store the witness.  The format is deliberately plain JSON:

.. code-block:: json

    {
      "processes": ["a", "b", "c"],
      "patterns": [
        {"name": "partition",
         "crash": [],
         "disconnect": [["a", "c"], ["b", "c"], ["c", "b"]]},
        {"name": "crash-b", "crash": ["b"], "disconnect": []}
      ]
    }

Channels are ``[sender, receiver]`` pairs.  A network graph sparser than the
complete one (the default) adds a top-level ``"channels"`` list of the channels
it has.  Quorum systems serialize to
``{"read_quorums": [...], "write_quorums": [...]}`` plus the fail-prone system.

Operation histories (:mod:`repro.history`) round-trip as well, which is what
the trace store (:mod:`repro.traces`) builds on.  Operation arguments and
results are not always JSON-native — lattice agreement proposes ``frozenset``
values, snapshot scans return dictionaries whose keys are process identifiers
of arbitrary hashable type — so they are encoded with a small tagged codec
(:func:`value_to_jsonable` / :func:`value_from_jsonable`) that preserves the
exact Python value through a JSON round-trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from .errors import ReproError
from .failures import FailProneSystem, FailurePattern
from .graph import BitsetDiGraph, DiGraph
from .history import History, OperationRecord
from .quorums import GeneralizedQuorumSystem
from .types import is_process_id


# ---------------------------------------------------------------------- #
# Failure patterns and fail-prone systems
# ---------------------------------------------------------------------- #
def failure_pattern_to_dict(pattern: FailurePattern) -> Dict[str, Any]:
    """Serialize a failure pattern to a JSON-compatible dictionary."""
    crash, channels = pattern.sorted_parts()
    return {
        "name": pattern.name,
        "crash": crash,
        "disconnect": [list(channel) for channel in channels],
    }


def _process_ids(value: Any, what: str) -> List[Any]:
    """``value`` checked to be a list of scalar (JSON string or number) process ids."""
    if not isinstance(value, (list, tuple)) or not all(map(is_process_id, value)):
        raise ReproError(
            "{} must be a list of process ids (strings or numbers), got {!r}".format(what, value)
        )
    return value


def _channels(value: Any, what: str) -> List[Tuple[Any, Any]]:
    """``value`` checked to be a list of ``[sender, receiver]`` process-id pairs."""
    if not isinstance(value, (list, tuple)):
        raise ReproError("{} must be a list of channels, got {!r}".format(what, value))
    channels = []
    for channel in value:
        if len(_process_ids(channel, "a channel")) != 2:
            raise ReproError(
                "a channel must be a [sender, receiver] pair, got {!r}".format(channel)
            )
        channels.append(tuple(channel))
    return channels


def failure_pattern_from_dict(data: Dict[str, Any]) -> FailurePattern:
    """Deserialize a failure pattern from a dictionary."""
    if not isinstance(data, dict):
        raise ReproError("failure pattern must be an object, got {!r}".format(data))
    crash = _process_ids(data.get("crash", []), "'crash'")
    disconnect = _channels(data.get("disconnect", []), "'disconnect'")
    return FailurePattern(crash, disconnect, name=data.get("name"))


def fail_prone_system_to_dict(system: FailProneSystem) -> Dict[str, Any]:
    """Serialize a fail-prone system.

    The network graph is written as a ``"channels"`` list only when it is not
    the complete graph (the paper's default, which needs no listing).
    Processes and channels are listed in index order, which is sorted order.
    """
    index = system.process_index
    data: Dict[str, Any] = {
        "name": system.name,
        "processes": list(index.processes),
    }
    network = system.bitset_graph
    if network != BitsetDiGraph.complete(index):
        channels = index.channel_list([network.successor_mask(i) for i in range(len(index))])
        data["channels"] = [list(channel) for channel in channels]
    data["patterns"] = [failure_pattern_to_dict(pattern) for pattern in system.patterns]
    return data


def fail_prone_system_from_dict(data: Dict[str, Any]) -> FailProneSystem:
    """Deserialize a fail-prone system from a dictionary."""
    if not isinstance(data, dict):
        raise ReproError("fail-prone system must be an object, got {!r}".format(data))
    if "processes" not in data:
        raise ReproError("fail-prone system description must list 'processes'")
    processes = _process_ids(data["processes"], "'processes'")
    entries = data.get("patterns", [])
    if not isinstance(entries, (list, tuple)):
        raise ReproError("'patterns' must be a list of failure patterns, got {!r}".format(entries))
    patterns = [failure_pattern_from_dict(entry) for entry in entries]
    graph = None
    if "channels" in data:
        graph = DiGraph(processes, _channels(data["channels"], "'channels'"))
    return FailProneSystem(processes, patterns, graph=graph, name=data.get("name"))


# ---------------------------------------------------------------------- #
# Generalized quorum systems
# ---------------------------------------------------------------------- #
def quorum_system_to_dict(quorum_system: GeneralizedQuorumSystem) -> Dict[str, Any]:
    """Serialize a generalized quorum system (families + fail-prone system)."""
    reads, writes = quorum_system.sorted_families()
    return {
        "fail_prone": fail_prone_system_to_dict(quorum_system.fail_prone),
        "read_quorums": reads,
        "write_quorums": writes,
    }


def quorum_system_from_dict(data: Dict[str, Any], validate: bool = True) -> GeneralizedQuorumSystem:
    """Deserialize a generalized quorum system from a dictionary."""
    if not isinstance(data, dict):
        raise ReproError("quorum system must be an object, got {!r}".format(data))
    for key in ("fail_prone", "read_quorums", "write_quorums"):
        if key not in data:
            raise ReproError("quorum system description is missing {!r}".format(key))
    fail_prone = fail_prone_system_from_dict(data["fail_prone"])
    return GeneralizedQuorumSystem(
        fail_prone, data["read_quorums"], data["write_quorums"], validate=validate
    )


# ---------------------------------------------------------------------- #
# Operation values and histories
# ---------------------------------------------------------------------- #
def value_to_jsonable(value: Any) -> Any:
    """Encode an operation argument/result as a JSON-compatible structure.

    Scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through;
    containers become single-key tagged objects (``{"$tuple": [...]}``,
    ``{"$frozenset": [...]}``, ``{"$set": [...]}``, ``{"$list": [...]}``,
    ``{"$dict": [[key, value], ...]}``) so that element types — including
    non-string dictionary keys — survive the round-trip.  Unordered
    collections are sorted by their encoded JSON text, so encoding is
    deterministic.  Unsupported types raise :class:`ReproError` rather than
    degrade silently: a trace must replay to the exact recorded values.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"$tuple": [value_to_jsonable(item) for item in value]}
    if isinstance(value, list):
        return {"$list": [value_to_jsonable(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        tag = "$frozenset" if isinstance(value, frozenset) else "$set"
        encoded = [value_to_jsonable(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {tag: encoded}
    if isinstance(value, dict):
        pairs = [[value_to_jsonable(k), value_to_jsonable(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"$dict": pairs}
    raise ReproError(
        "cannot serialize operation value of type {}: {!r}".format(type(value).__name__, value)
    )


def value_from_jsonable(data: Any) -> Any:
    """Decode a value encoded by :func:`value_to_jsonable`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict):
        if len(data) != 1:
            raise ReproError("malformed encoded value: {!r}".format(data))
        tag, payload = next(iter(data.items()))
        if tag == "$tuple":
            return tuple(value_from_jsonable(item) for item in payload)
        if tag == "$list":
            return [value_from_jsonable(item) for item in payload]
        if tag == "$frozenset":
            return frozenset(value_from_jsonable(item) for item in payload)
        if tag == "$set":
            return set(value_from_jsonable(item) for item in payload)
        if tag == "$dict":
            return {value_from_jsonable(k): value_from_jsonable(v) for k, v in payload}
        raise ReproError("unknown value tag {!r}".format(tag))
    raise ReproError("malformed encoded value: {!r}".format(data))


def operation_record_to_dict(record: OperationRecord) -> Dict[str, Any]:
    """Serialize one :class:`~repro.history.OperationRecord`."""
    return {
        "process": value_to_jsonable(record.process_id),
        "kind": record.kind,
        "argument": value_to_jsonable(record.argument),
        "result": value_to_jsonable(record.result),
        "invoked_at": record.invoked_at,
        "completed_at": record.completed_at,
        "op_id": record.op_id,
    }


def operation_record_from_dict(data: Dict[str, Any]) -> OperationRecord:
    """Deserialize one operation record."""
    if not isinstance(data, dict):
        raise ReproError("operation record must be an object, got {!r}".format(data))
    for key in ("process", "kind", "invoked_at"):
        if key not in data:
            raise ReproError("operation record is missing {!r}".format(key))
    return OperationRecord(
        process_id=value_from_jsonable(data["process"]),
        kind=data["kind"],
        argument=value_from_jsonable(data.get("argument")),
        result=value_from_jsonable(data.get("result")),
        invoked_at=float(data["invoked_at"]),
        completed_at=(
            float(data["completed_at"]) if data.get("completed_at") is not None else None
        ),
        op_id=int(data.get("op_id", 0)),
    )


def history_to_dicts(history: History) -> List[Dict[str, Any]]:
    """Serialize a history as a list of operation-record dictionaries."""
    return [operation_record_to_dict(record) for record in history]


def history_from_dicts(data: Iterable[Dict[str, Any]]) -> History:
    """Deserialize a history from operation-record dictionaries."""
    return History(operation_record_from_dict(entry) for entry in data)


# ---------------------------------------------------------------------- #
# JSON file helpers
# ---------------------------------------------------------------------- #
def _read_json(path: str) -> Any:
    """Parse the JSON file at ``path``; an unreadable or malformed file is a named error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise ReproError("{}: {}".format(path, error.strerror or error))
    except (ValueError, RecursionError) as error:
        # JSONDecodeError, UnicodeDecodeError on a binary file, or nesting past the decoder's depth
        raise ReproError("{}: invalid JSON: {}".format(path, error))


def load_fail_prone_system(path: str) -> FailProneSystem:
    """Load a fail-prone system from a JSON file."""
    return fail_prone_system_from_dict(_read_json(path))
