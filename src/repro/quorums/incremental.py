"""Incremental recertification of GQS existence under membership churn.

A deployed system's failure assumptions drift: replicas join and leave,
operators mark processes or channels as suspect after incidents and trust them
again after repair.  Re-running the full decision procedure from scratch after
every such *membership delta* wastes exactly the work the
:class:`~repro.failures.FailProneSystem` caches hold — most patterns' residual
graphs and candidate structures are untouched by a single delta.

This module applies a stream of deltas to a fail-prone system, carrying the
memoized residual bitmask views — and with them each pattern's discovery
candidates — across each step via
:meth:`~repro.failures.FailProneSystem.adopt_residuals` (re-keying them
through an order-preserving :class:`~repro.graph.MaskReindex` when the
process set changes), recertifies after each delta with
:func:`discover_gqs` — witness validation included — and reports per-delta
verdicts with reuse accounting.  A delta never copies the network graph:
suspect/trust ops share it with the previous system, join/leave derive the
bitmask rows from the previous ones.

Delta semantics (one JSON object per line in the watch-mode stream):

``{"op": "join", "process": p}``
    ``p`` enters the system *quarantined*: it is added to every pattern's
    crash-prone set (and connected to every existing process in the network
    graph).  Quorums may not rely on it until an explicit ``trust``.  Every
    pattern's residual structure is unchanged modulo re-indexing, so
    recertification reuses all of it.
``{"op": "leave", "process": p}``
    ``p`` is removed from the system.  Patterns that listed ``p`` as
    crash-prone keep their residual structures (``p`` was already absent);
    patterns in which ``p`` was correct are recomputed.
``{"op": "suspect", "process": p}`` / ``{"op": "trust", "process": p}``
    ``p`` is added to (removed from) every pattern's crash-prone set.
    Patterns already matching the new status are value-identical and reuse
    their structures.
``{"op": "suspect-channel", "src": s, "dst": d}`` / ``{"op": "trust-channel", ...}``
    The channel ``(s, d)`` is added to (removed from) the disconnect-prone
    set of every pattern in which both endpoints are correct.  Unaffected
    patterns reuse their structures.

All processing is deterministic: pattern order is preserved, processes are
handled in sorted order and no output depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .. import ingress
from ..errors import ReproError
from ..failures import FailProneSystem, FailurePattern
from ..graph import MaskReindex, ProcessIndex
from ..types import ProcessId
from .discovery import DiscoveryResult, discover_gqs

#: The membership-delta operations understood by :func:`apply_delta`.
DELTA_OPS = ("join", "leave", "suspect", "trust", "suspect-channel", "trust-channel")


@dataclass(frozen=True)
class MembershipDelta:
    """One membership delta: a process join/leave/suspect/trust or a channel op."""

    op: str
    process: Optional[ProcessId] = None
    src: Optional[ProcessId] = None
    dst: Optional[ProcessId] = None
    #: ``path:line`` of the stream line it was read from, named in its errors.
    origin: Optional[str] = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``join(p9)`` or ``suspect-channel(a->b)``."""
        if self.op in ("suspect-channel", "trust-channel"):
            return "{}({}->{})".format(self.op, self.src, self.dst)
        return "{}({})".format(self.op, self.process)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": self.op}
        if self.process is not None:
            payload["process"] = self.process
        if self.src is not None:
            payload["src"] = self.src
            payload["dst"] = self.dst
        return payload


def parse_delta(obj: Any) -> MembershipDelta:
    """Validate one JSON delta object into a :class:`MembershipDelta`."""
    op = ingress.mapping(obj, "a delta").get("op")
    if op not in DELTA_OPS:
        raise ReproError(
            "unknown delta op {!r}; expected one of {}".format(op, list(DELTA_OPS))
        )
    what = "delta op {!r}: field {!r}".format
    if op in ("suspect-channel", "trust-channel"):
        src, dst = (ingress.process_id(obj.get(key), what(op, key)) for key in ("src", "dst"))
        if src == dst:
            raise ReproError("delta op {!r} got a self-loop channel {!r}".format(op, src))
        return MembershipDelta(op=op, src=src, dst=dst)
    process = ingress.process_id(obj.get("process"), what(op, "process"))
    return MembershipDelta(op=op, process=process)


def load_deltas(path: str) -> List[MembershipDelta]:
    """Load a JSONL membership-delta stream (blank lines and ``#`` comments skipped)."""
    return [
        replace(delta, origin=where)
        for where, delta in ingress.read_json_lines(path, parse_delta, comments=True)
    ]


def _require_known(system: FailProneSystem, process: ProcessId) -> None:
    if process not in system.processes:
        raise ReproError("{!r} is not in the system".format(process))


def apply_delta(
    system: FailProneSystem, delta: MembershipDelta
) -> Tuple[FailProneSystem, Dict[FailurePattern, FailurePattern], Optional[MaskReindex]]:
    """Apply one membership delta, returning the new system plus reuse metadata.

    The returned ``pattern_map`` sends each new pattern whose residual
    structure is *identical* to an old pattern's (modulo re-indexing) to that
    old pattern; the returned re-index carries old bit positions onto the new
    system's :class:`~repro.graph.ProcessIndex` (``None`` when the process set
    — and with it the shared network graph — is unchanged).  Patterns outside
    the map must be recomputed.
    """
    patterns = list(system.patterns)
    pattern_map: Dict[FailurePattern, FailurePattern] = {}
    reindex = network = None
    new_patterns = []
    op = delta.op

    if op == "join":
        p = delta.process
        if p in system.processes:
            raise ReproError("{!r} duplicates an existing process".format(p))
        index = ProcessIndex(system.processes | {p})
        reindex = MaskReindex(system.process_index, index)
        network = system.bitset_graph.reindexed(reindex).with_hub(index.position(p))
        for f in patterns:
            image = FailurePattern(
                set(f.crash_prone) | {p}, f.disconnect_prone, name=f.name
            )
            new_patterns.append(image)
            pattern_map[image] = f

    elif op == "leave":
        p = delta.process
        _require_known(system, p)
        if len(system.processes) == 1:
            raise ReproError("removing {!r} would empty the system".format(p))
        reindex = MaskReindex(system.process_index, ProcessIndex(system.processes - {p}))
        departed = 1 << system.process_index.position(p)
        network = system.bitset_graph.residual_masks(departed).reindexed(reindex)
        for f in patterns:
            if p in f.crash_prone:
                image = FailurePattern(
                    set(f.crash_prone) - {p}, f.disconnect_prone, name=f.name
                )
                pattern_map[image] = f
            else:
                image = FailurePattern(
                    f.crash_prone,
                    [ch for ch in f.disconnect_prone if p not in ch],
                    name=f.name,
                )
            new_patterns.append(image)

    elif op == "suspect":
        p = delta.process
        _require_known(system, p)
        for f in patterns:
            if p in f.crash_prone:
                new_patterns.append(f)
                pattern_map[f] = f
            else:
                new_patterns.append(
                    FailurePattern(
                        set(f.crash_prone) | {p},
                        [ch for ch in f.disconnect_prone if p not in ch],
                        name=f.name,
                    )
                )

    elif op == "trust":
        p = delta.process
        _require_known(system, p)
        for f in patterns:
            if p in f.crash_prone:
                new_patterns.append(
                    FailurePattern(set(f.crash_prone) - {p}, f.disconnect_prone, name=f.name)
                )
            else:
                new_patterns.append(f)
                pattern_map[f] = f

    else:  # suspect-channel / trust-channel
        src, dst = delta.src, delta.dst
        _require_known(system, src)
        _require_known(system, dst)
        channel = (src, dst)
        for f in patterns:
            crashed_endpoint = src in f.crash_prone or dst in f.crash_prone
            present = channel in f.disconnect_prone
            if op == "suspect-channel" and not crashed_endpoint and not present:
                new_patterns.append(
                    FailurePattern(
                        f.crash_prone,
                        list(f.disconnect_prone) + [channel],
                        name=f.name,
                    )
                )
            elif op == "trust-channel" and present:
                new_patterns.append(
                    FailurePattern(
                        f.crash_prone,
                        [ch for ch in f.disconnect_prone if ch != channel],
                        name=f.name,
                    )
                )
            else:
                new_patterns.append(f)
                pattern_map[f] = f

    return system._derive(new_patterns, system.name, network), pattern_map, reindex


@dataclass
class DeltaVerdict:
    """Recertification outcome for one membership delta."""

    index: int
    delta: MembershipDelta
    system: FailProneSystem
    result: DiscoveryResult
    #: Distinct pattern values in the post-delta system (patterns compare by
    #: value, so duplicated patterns share one candidate structure).
    patterns_total: int = 0
    #: Distinct patterns whose residual structure survived the delta (the reuse map).
    patterns_reused: int = 0
    #: Distinct patterns whose memoized candidate structures were adopted instead
    #: of recomputed (the watch-mode analogue of ``RepairReport.candidates_reused``).
    candidates_reused: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of distinct patterns whose candidate structures were reused."""
        return self.candidates_reused / self.patterns_total if self.patterns_total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "delta": self.delta.to_dict(),
            "exists": self.result.exists,
            "algorithm": self.result.algorithm,
            "nodes_explored": self.result.nodes_explored,
            "num_processes": len(self.system.processes),
            "num_patterns": len(self.system.patterns),
            "patterns_total": self.patterns_total,
            "patterns_reused": self.patterns_reused,
            "candidates_reused": self.candidates_reused,
            "reuse_fraction": round(self.reuse_fraction, 6),
        }


@dataclass
class WatchOutcome:
    """Outcome of replaying a membership-delta stream against a system."""

    initial: FailProneSystem
    final: FailProneSystem
    algorithm: str
    #: Certification of the system as given, before any delta was applied.
    initial_result: Optional[DiscoveryResult] = None
    verdicts: List[DeltaVerdict] = field(default_factory=list)

    @property
    def all_exist(self) -> bool:
        """Whether every recertification (including the initial one) succeeded."""
        if self.initial_result is not None and not self.initial_result.exists:
            return False
        return all(v.result.exists for v in self.verdicts)


def recertify_delta(
    system: FailProneSystem,
    delta: MembershipDelta,
    index: int = 0,
) -> DeltaVerdict:
    """Apply one delta and recertify, reusing what it preserved; an error names it and its line."""
    try:
        new_system, pattern_map, reindex = apply_delta(system, delta)
    except ReproError as error:
        where = "{}: ".format(delta.origin) if delta.origin else ""
        raise type(error)("{}delta {}: {}".format(where, delta.describe(), error)) from error
    # A certified system's residuals carry their candidates, so each adopted
    # residual is one reused candidate structure.
    adopted = new_system.adopt_residuals(system, pattern_map, reindex)
    result = discover_gqs(new_system)
    return DeltaVerdict(
        index=index,
        delta=delta,
        system=new_system,
        result=result,
        patterns_total=len(set(new_system.patterns)),
        patterns_reused=len(pattern_map),
        candidates_reused=adopted,
    )


def watch_deltas(
    system: FailProneSystem,
    deltas: Iterable[MembershipDelta],
) -> WatchOutcome:
    """Replay ``deltas`` against ``system``, recertifying after each one.

    The initial system is certified first (populating the caches every later
    step reuses); each delta then produces a :class:`DeltaVerdict`.  The
    output is deterministic across hash seeds and identical however the
    caches were pre-warmed.
    """
    initial_result = discover_gqs(system)
    outcome = WatchOutcome(
        initial=system, final=system, algorithm=initial_result.algorithm,
        initial_result=initial_result,
    )
    current = system
    for index, delta in enumerate(deltas):
        verdict = recertify_delta(current, delta, index=index)
        outcome.verdicts.append(verdict)
        current = verdict.system
    outcome.final = current
    return outcome


__all__ = [
    "DELTA_OPS",
    "DeltaVerdict",
    "MembershipDelta",
    "WatchOutcome",
    "apply_delta",
    "load_deltas",
    "parse_delta",
    "recertify_delta",
    "watch_deltas",
]
