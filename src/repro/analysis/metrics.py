"""Lightweight metric collection and table formatting for the experiments.

Experiments report their results as :class:`ResultTable` objects — ordered rows
of named columns — which print as aligned ASCII tables.  The benchmark
harnesses and ``docs/experiments.md`` use these to present the same
"rows/series" a paper evaluation section would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple


@dataclass
class ResultTable:
    """An ordered collection of result rows with a fixed column set."""

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        given, self.rows = self.rows, []
        for row in given:  # rows given up front are checked and projected like added ones
            self.add_row(**row)

    def add_row(self, **values: Any) -> None:
        """Append a row; every column must be provided."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError("missing columns {} for table {!r}".format(missing, self.title))
        self.rows.append({c: values[c] for c in self.columns})

    def to_text(self) -> str:
        """Render the table as aligned ASCII text."""
        header = list(self.columns)
        body = [[_format_cell(row[c]) for c in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in body:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "{:.3f}".format(value)
    return str(value)


def field_lines(width: int, *fields: Tuple[str, Any]) -> List[str]:
    """One ``label : value`` line per field, the colon in column ``width`` (or
    right behind a longer label): the label blocks under the result tables."""
    return ["{}: {}".format(label.ljust(width), value) for label, value in fields]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty collection)."""
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """The ``fraction``-quantile (nearest-rank) of ``values`` (0.0 when empty)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    data = sorted(values)
    if not data:
        return 0.0
    index = min(len(data) - 1, max(0, int(math.ceil(fraction * len(data))) - 1))
    return data[index]


@dataclass
class OperationMetrics:
    """Latency and message-count summary of one protocol run."""

    operations: int = 0
    completed: int = 0
    mean_latency: float = 0.0
    max_latency: float = 0.0
    messages_sent: int = 0
    messages_delivered: int = 0


class RunAggregates:
    """The aggregates of a batch of seeded runs over its per-run ``rows``, as
    :func:`repro.scenarios.run_built_scenario` returns them: what
    ``repro simulate`` and ``repro scenario run`` both report."""

    rows: List[Dict[str, Any]]

    @property
    def runs(self) -> int:
        return len(self.rows)

    @property
    def completed_runs(self) -> int:
        return sum(1 for row in self.rows if row["completed"])

    @property
    def safe_runs(self) -> int:
        return sum(1 for row in self.rows if row["safe"])

    @property
    def all_completed(self) -> bool:
        return self.completed_runs == self.runs

    @property
    def all_safe(self) -> bool:
        return self.safe_runs == self.runs

    @property
    def ok(self) -> bool:
        """Liveness + safety across all runs (the Paxos baseline is exempt
        from the safety claim, see :func:`repro.experiments.judge_baseline_history`)."""
        return self.all_completed and self.all_safe

    @property
    def mean_latency(self) -> float:
        """Average of the per-run mean latencies."""
        return mean(row["mean_latency"] for row in self.rows)

    @property
    def max_latency(self) -> float:
        return max((row["max_latency"] for row in self.rows), default=0.0)

    @property
    def total_messages(self) -> int:
        return sum(row["messages"] for row in self.rows)

    @property
    def explored_states(self) -> int:
        """Total states the safety checkers explored across all runs."""
        return sum(row["explored_states"] for row in self.rows)
