"""Parallel re-verification of recorded traces (``repro check <dir>``).

Recorded histories are re-judged from scratch — nothing is taken from the
trace's ``verdict`` line except for the *match* comparison — and the work fans
out over the existing :class:`~repro.engine.ParallelRunner`: one task per
trace file, results collected in sorted-file order, so the verdict table is
byte-identical for every ``--jobs`` value.

Checker selection (``--checker``):

``auto``
    The same judgement the simulation applied inline, per protocol: the
    witness-first register path (dependency-graph witness with Wing–Gong
    fallback), the snapshot search, the lattice/consensus property checkers,
    and no claim for the Paxos baseline.
``wing-gong``
    Force the complete Wing–Gong search for register traces (the slow,
    trusted path — useful to cross-examine the witness checker).

Non-register protocols have a single decision procedure each, so both
choices route them through their ``auto`` path.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import ingress
from ..analysis.metrics import ResultTable, field_lines
from ..egress import JsonDocument
from ..engine import ParallelRunner, ProgressCallback
from ..errors import ReproError
from ..registry import CHECKERS, register_checker
from .store import Trace, list_trace_files, load_trace

__all__ = [
    "TraceCheckReport",
    "check_trace",
    "check_traces",
]

#: Columns of the verdict table, one row per trace file.
CHECK_COLUMNS = (
    "trace",
    "name",
    "run",
    "protocol",
    "operations",
    "safe",
    "recorded",
    "match",
    "explored",
    "checker",
)


def _check_auto(trace: Trace) -> Dict[str, Any]:
    """Judge a trace exactly the way the simulation judged it inline.

    Delegates to :func:`repro.experiments.judge_history` — the one shared
    protocol→checker dispatch — so the re-check can never drift from the
    recorded verdict's semantics.  (Imported here: listing the ``--checker``
    choices, which imports this module, must not import the protocol stack.)
    """
    from ..experiments import judge_history

    if trace.protocol in ("snapshot", "consensus") and trace.quorum_system is None:
        raise ReproError(
            "{} trace carries no quorum system (needed to re-judge it)".format(trace.protocol)
        )
    report = judge_history(trace.protocol, trace.history, trace.quorum_system, trace.pattern)
    return {
        "safe": report["safe"],
        "explored": report["explored_states"],
        "checker": report["checker"],
    }


def _check_wing_gong(trace: Trace) -> Dict[str, Any]:
    """Force the complete search on register traces; other protocols have a
    single decision procedure each and route through ``auto``."""
    if trace.protocol != "register":
        return _check_auto(trace)
    from ..checkers import check_register_linearizability
    from ..protocols.register import INITIAL_VALUE

    outcome = check_register_linearizability(trace.history, initial_value=INITIAL_VALUE)
    return {"safe": outcome.is_linearizable, "explored": outcome.explored_states,
            "checker": "wing-gong"}


register_checker(
    "auto",
    judge=_check_auto,
    doc="the per-protocol inline judgement (witness-first register path)",
)
register_checker(
    "wing-gong",
    judge=_check_wing_gong,
    doc="force the complete Wing-Gong search for register traces",
)


def check_trace(trace: Trace, checker: str = "auto") -> Dict[str, Any]:
    """Re-verify one parsed trace; returns a verdict-table row."""
    # A history no checker can judge (a foreign operation kind, a search past
    # its state bound) is reported against the file it came from.
    outcome = ingress.attributed(trace.path, CHECKERS.build, checker, trace)
    recorded = trace.recorded_safe
    return {
        "trace": os.path.basename(trace.path),
        "name": trace.name,
        "run": trace.run,
        "protocol": trace.protocol,
        "operations": len(trace.history),
        "safe": outcome["safe"],
        "recorded": recorded if recorded is not None else "-",
        # A trace without a recorded verdict can never "match": agreement with
        # absent evidence is not agreement.
        "match": recorded is not None and outcome["safe"] == recorded,
        "explored": outcome["explored"],
        "checker": outcome["checker"],
    }


def _check_trace_task(checker: str, path: str) -> Dict[str, Any]:
    """Load + re-verify one trace file (runs inside a worker process)."""
    return check_trace(load_trace(path), checker)


@dataclass
class TraceCheckReport(JsonDocument):
    """All verdict rows of one ``repro check`` invocation."""

    json_in_order = True

    directory: str
    checker: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def traces(self) -> int:
        return len(self.rows)

    @property
    def safe_traces(self) -> int:
        return sum(1 for row in self.rows if row["safe"])

    @property
    def matching_traces(self) -> int:
        return sum(1 for row in self.rows if row["match"])

    @property
    def all_match(self) -> bool:
        """Whether every re-checked verdict equals the recorded inline one."""
        return self.matching_traces == self.traces

    @property
    def ok(self) -> bool:
        return self.all_match

    def table(self) -> ResultTable:
        """The verdict table (byte-identical for every job count)."""
        return ResultTable(
            "trace check: {} trace(s), checker={}".format(self.traces, self.checker),
            CHECK_COLUMNS,
            self.rows,
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "traces": self.traces,
            "safe_traces": self.safe_traces,
            "matching_traces": self.matching_traces,
            "all_match": self.all_match,
            "explored_states": sum(row["explored"] for row in self.rows),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "checker": self.checker,
            "rows": [dict(row) for row in self.rows],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        """The verdict table and the totals under it, as ``repro check DIR`` prints them."""
        totals = field_lines(
            19,
            ("traces checked", self.traces),
            ("safe", "{}/{}".format(self.safe_traces, self.traces)),
            ("match recorded", "{} ({}/{})".format(
                self.all_match, self.matching_traces, self.traces)),
            ("explored states", "{} (total)".format(self.summary()["explored_states"])),
        )
        return "\n".join([self.table().to_text(), ""] + totals)


def check_traces(
    directory: str,
    checker: str = "auto",
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> TraceCheckReport:
    """Re-verify every trace in ``directory`` across ``jobs`` workers.

    Each worker loads and judges whole trace files independently (verification
    scales without touching the simulator), and rows come back in sorted-file
    order via the runner's ordered map — the report depends only on the
    directory contents and the checker, never on ``jobs``.
    """
    CHECKERS.get(checker)  # fail fast on an unknown checker, before any work
    paths = list_trace_files(directory)
    runner = ParallelRunner(jobs=jobs, progress=progress)
    rows = runner.map(functools.partial(_check_trace_task, checker), paths)
    return TraceCheckReport(directory=directory, checker=checker, rows=rows)
