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

from typing import Any, Dict, List

from .errors import ReproError
from .failures import FailProneSystem, FailurePattern
from .graph import BitsetDiGraph, DiGraph
from .history import History, OperationRecord
from . import egress, ingress
from .quorums import GeneralizedQuorumSystem


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


def failure_pattern_from_dict(data: Dict[str, Any]) -> FailurePattern:
    """Deserialize a failure pattern from a dictionary."""
    data = ingress.mapping(data, "failure pattern")
    crash = ingress.process_ids(data.get("crash", []), "'crash'")
    disconnect = ingress.channel_rows(data.get("disconnect", []), "'disconnect'")
    name = ingress.text(data.get("name"), "'name'", optional=True)
    return FailurePattern(crash, disconnect, name=name)


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
    data = ingress.mapping(data, "fail-prone system")
    processes = ingress.required(data, "processes", "fail-prone system")
    processes = ingress.process_ids(processes, "'processes'")
    entries = data.get("patterns", [])
    if not isinstance(entries, (list, tuple)):
        raise ReproError("'patterns' must be a list of failure patterns, got {!r}".format(entries))
    patterns = [failure_pattern_from_dict(entry) for entry in entries]
    graph = None
    if "channels" in data:
        graph = DiGraph(processes, ingress.channel_rows(data["channels"], "'channels'"))
    name = ingress.text(data.get("name"), "'name'", optional=True)
    return FailProneSystem(processes, patterns, graph=graph, name=name)


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
    data = ingress.mapping(data, "quorum system")
    fail_prone = fail_prone_system_from_dict(ingress.required(data, "fail_prone", "quorum system"))
    reads, writes = (
        _family(ingress.required(data, key, "quorum system"), repr(key))
        for key in ("read_quorums", "write_quorums")
    )
    return GeneralizedQuorumSystem(fail_prone, reads, writes, validate=validate)


def _family(value: Any, what: str) -> List[List[Any]]:
    """``value`` checked to be a list of quorums, each a list of process ids."""
    if not isinstance(value, (list, tuple)):
        raise ReproError("{} must be a list of quorums, got {!r}".format(what, value))
    return [ingress.process_ids(quorum, "a quorum in {}".format(what)) for quorum in value]


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
    collections are sorted by their :func:`~repro.egress.canonical` text, so
    encoding is deterministic.  Unsupported types raise :class:`ReproError`
    rather than degrade silently: a trace must replay to the exact recorded
    values.
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
        encoded.sort(key=egress.canonical)
        return {tag: encoded}
    if isinstance(value, dict):
        pairs = [[value_to_jsonable(k), value_to_jsonable(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: egress.canonical(pair[0]))
        return {"$dict": pairs}
    raise ReproError(
        "cannot serialize operation value of type {}: {!r}".format(type(value).__name__, value)
    )


def value_from_jsonable(data: Any) -> Any:
    """Decode a value encoded by :func:`value_to_jsonable`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict) and len(data) == 1:
        tag, payload = next(iter(data.items()))
        decode = _VALUE_TAGS.get(tag)
        if decode is None:
            raise ReproError("unknown value tag {!r}".format(tag))
        if not isinstance(payload, list):
            raise ReproError("value tag {!r} needs a list, got {!r}".format(tag, payload))
        try:
            return decode(payload)
        except (TypeError, ValueError):  # an unhashable member or key, a pair of the wrong size
            raise ReproError("malformed encoded value: {!r}".format(data)) from None
    raise ReproError("malformed encoded value: {!r}".format(data))


_VALUE_TAGS = {
    "$tuple": lambda items: tuple(map(value_from_jsonable, items)),
    "$list": lambda items: list(map(value_from_jsonable, items)),
    "$frozenset": lambda items: frozenset(map(value_from_jsonable, items)),
    "$set": lambda items: set(map(value_from_jsonable, items)),
    "$dict": lambda pairs: {value_from_jsonable(k): value_from_jsonable(v) for k, v in pairs},
}


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
    data = ingress.mapping(data, "operation record")
    for key in ("process", "kind", "invoked_at"):
        ingress.required(data, key, "operation record")
    return OperationRecord(
        process_id=value_from_jsonable(data["process"]),
        kind=ingress.text(data["kind"], "field 'kind'"),
        argument=value_from_jsonable(data.get("argument")),
        result=value_from_jsonable(data.get("result")),
        invoked_at=ingress.number(data["invoked_at"], "field 'invoked_at'", finite=True),
        completed_at=ingress.numeric_field(data, "completed_at", finite=True),
        op_id=ingress.numeric_field(data, "op_id", int, default=0),
    )


def history_to_dicts(history: History) -> List[Dict[str, Any]]:
    """Serialize a history as a list of operation-record dictionaries."""
    return [operation_record_to_dict(record) for record in history]


def load_fail_prone_system(path: str) -> FailProneSystem:
    """Load a fail-prone system from a JSON file."""
    return ingress.read_json(path, fail_prone_system_from_dict)
