"""Linearizability checking for SWMR atomic-snapshot histories.

The sequential specification: the object holds one segment per writer process;
``write`` (kind ``"snapshot_write"``, argument = value) sets the caller's
segment; ``scan`` (kind ``"snapshot_scan"``, result = ``{segment: value}``
mapping) returns the current contents of every segment.

The checker is a client of the register checker's Wing–Gong search
(:func:`~repro.checkers.linearizability.search_linearization`), with the
abstract state being the whole segment vector.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..errors import HistoryError
from ..history import History, OperationRecord
from ..types import ProcessId
from .linearizability import (
    REJECT,
    LinearizabilityResult,
    SequentialSpec,
    partition_history,
    search_linearization,
)

WRITE_KIND = "snapshot_write"
SCAN_KIND = "snapshot_scan"

SNAPSHOT = SequentialSpec(
    update_kind=WRITE_KIND,
    query_kind=SCAN_KIND,
    foreign_kind="snapshot histories may only contain {}/{} operations, got {{!r}}".format(
        WRITE_KIND, SCAN_KIND
    ),
    exhausted="snapshot linearizability search exceeded {} states",
    no_order="no valid snapshot linearization exists",
)


def check_snapshot_linearizability(
    history: History,
    segment_ids: Sequence[ProcessId],
    initial_value: Any = None,
    max_states: int = 2_000_000,
) -> LinearizabilityResult:
    """Decide whether a snapshot history is linearizable.

    Incomplete writes may or may not take effect; incomplete scans impose no
    constraint.
    """
    segments = tuple(sorted(segment_ids, key=repr))
    segment_index = {segment: k for k, segment in enumerate(segments)}

    def apply(state: Tuple[Any, ...], op: OperationRecord) -> Any:
        if op.kind == WRITE_KIND:
            if op.process_id not in segment_index:
                raise HistoryError("write by unknown segment owner {!r}".format(op.process_id))
            as_list = list(state)
            as_list[segment_index[op.process_id]] = op.argument
            return tuple(as_list)
        result = op.result
        if not isinstance(result, dict) or result.keys() != segment_index.keys():
            return REJECT
        if all(result[segment] == state[k] for segment, k in segment_index.items()):
            return state
        return REJECT

    return search_linearization(
        partition_history(history, SNAPSHOT),
        SNAPSHOT,
        tuple(initial_value for _ in segments),
        apply,
        max_states,
    )
