"""Sort-based renderers: the witness and system outputs, sorted the way they used to be.

Every report once decoded a mask into a set and sorted it again with
:func:`repro.types.sorted_processes` / :func:`repro.types.sorted_channels`,
which ``repr`` every member.  The library now reads members off the process
index in bit order, which is the same order; the renderers here keep the
sets-then-sort path as the reference those bytes are compared with.  They
read only set-valued accessors (``read_quorum``, ``available_pair``,
``disconnect_prone``, ``graph``) and never a mask.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.metrics import ResultTable, field_lines
from repro.api import _NO_GQS_TEXT, DiscoveryReport, WatchReport
from repro.failures import FailProneSystem, FailurePattern
from repro.quorums import GeneralizedQuorumSystem
from repro.types import sorted_channels, sorted_processes

from .graph import network


def pattern_repr(pattern: FailurePattern) -> str:
    """``repr(pattern)``: the crash set and the channel set, each sorted."""
    return "{}(crash={}, disconnect={})".format(
        pattern.name or "FailurePattern",
        sorted_processes(pattern.crash_prone),
        sorted_channels(pattern.disconnect_prone),
    )


def fail_prone_describe(system: FailProneSystem) -> str:
    """``system.describe()``."""
    lines = [
        "FailProneSystem {}: n={} processes, {} patterns".format(
            system.name or "<anonymous>", len(system.processes), len(system.patterns)
        ),
        "  processes: {}".format(sorted_processes(system.processes)),
    ]
    for i, f in enumerate(system.patterns):
        lines.append("  [{}] {}".format(i, pattern_repr(f)))
    return "\n".join(lines)


def quorum_system_describe(gqs: GeneralizedQuorumSystem) -> str:
    """``gqs.describe()``."""
    lines = [repr(gqs)]
    for i, f in enumerate(gqs.fail_prone):
        pair = gqs.available_pair(f)
        u = gqs.termination_component(f)
        if pair is None:
            lines.append("  [{}] {}: UNAVAILABLE".format(i, pattern_repr(f)))
        else:
            r, w = pair
            lines.append(
                "  [{}] {}: R={}, W={}, U_f={}".format(
                    i, pattern_repr(f), sorted_processes(r), sorted_processes(w),
                    sorted_processes(u),
                )
            )
    return "\n".join(lines)


def system_summary(system: FailProneSystem) -> Dict[str, Any]:
    return {
        "name": system.name,
        "num_processes": len(system.processes),
        "num_patterns": len(system.patterns),
        "processes": sorted_processes(system.processes),
    }


def discovery_rows(report: DiscoveryReport) -> List[Dict[str, Any]]:
    """``report.rows``: the chosen quorums decoded into sets, then sorted."""
    rows = []
    for position, pattern in enumerate(report.system.patterns):
        chosen = report.result.choices.get(pattern)
        rows.append(
            {
                "pattern": pattern.label(position),
                "candidates": report.result.candidates_per_pattern.get(pattern, 0),
                "read_quorum": sorted_processes(chosen.read_quorum) if chosen else None,
                "write_quorum": sorted_processes(chosen.write_quorum) if chosen else None,
            }
        )
    return rows


def discovery_json(report: DiscoveryReport) -> str:
    """``report.to_json()``."""
    payload = {
        "system": system_summary(report.system),
        "algorithm": report.result.algorithm,
        "exists": report.result.exists,
        "nodes_explored": report.result.nodes_explored,
        "patterns": discovery_rows(report),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def discovery_text(report: DiscoveryReport) -> str:
    """``report.to_text()``."""
    lines = [fail_prone_describe(report.system), ""]
    effort = field_lines(
        18, ("algorithm", report.result.algorithm), ("nodes explored", report.result.nodes_explored)
    )
    if not report.exists:
        return "\n".join(lines + [_NO_GQS_TEXT, ""] + effort)
    table = ResultTable(
        "GQS witness (one candidate per failure pattern)",
        ["pattern", "candidates", "read quorum", "write quorum"],
    )
    for row in discovery_rows(report):
        table.add_row(**{
            "pattern": row["pattern"],
            "candidates": row["candidates"],
            "read quorum": ",".join(str(p) for p in row["read_quorum"]),
            "write quorum": ",".join(str(p) for p in row["write_quorum"]),
        })
    exists = field_lines(18, ("GQS exists", True))
    return "\n".join(lines + [table.to_text(), ""] + exists + effort)


def watch_text(report: WatchReport) -> str:
    """``report.to_text()``: the initial system's description, then the delta table."""
    table = ResultTable(
        "Recertification under membership churn",
        ["delta", "exists", "nodes", "reused", "reuse"],
        report.rows,
    )
    return "\n".join([
        fail_prone_describe(report.outcome.initial), "", table.to_text(), "",
        "all deltas tolerable: {}".format(report.all_exist),
    ])


def failure_pattern_to_dict(pattern: FailurePattern) -> Dict[str, Any]:
    return {
        "name": pattern.name,
        "crash": sorted_processes(pattern.crash_prone),
        "disconnect": [list(channel) for channel in sorted_channels(pattern.disconnect_prone)],
    }


def fail_prone_system_to_dict(system: FailProneSystem) -> Dict[str, Any]:
    """The system with its channels listed only when the network is not complete."""
    data: Dict[str, Any] = {
        "name": system.name,
        "processes": sorted_processes(system.processes),
    }
    edges = list(network(system).edges())
    n = len(system.processes)
    if len(edges) != n * (n - 1):
        data["channels"] = [list(channel) for channel in sorted_channels(edges)]
    data["patterns"] = [failure_pattern_to_dict(pattern) for pattern in system.patterns]
    return data


def quorum_system_to_dict(gqs: GeneralizedQuorumSystem) -> Dict[str, Any]:
    return {
        "fail_prone": fail_prone_system_to_dict(gqs.fail_prone),
        "read_quorums": [sorted_processes(q) for q in gqs.read_quorums],
        "write_quorums": [sorted_processes(q) for q in gqs.write_quorums],
    }
