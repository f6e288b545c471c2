"""Spec-driven simulated workloads for the paper's protocols.

The module is organised as a small pipeline, so a workload can be described
declaratively (by the scenario subsystem, :mod:`repro.scenarios`) or invoked
directly (by the benchmarks and examples):

* :func:`build_protocol_factory` — protocol kind + parameters → process
  factory over a quorum system;
* :func:`client_schedule` — protocol kind + invoker list → the canonical
  client invocation plan (operations staggered in simulated time);
* :func:`execute_workload` — cluster construction, failure injection (at time
  zero or later), plan execution, history/metric collection;
* :func:`run_workload` — the one-call front-end combining the three;
* :func:`judge_history` — protocol kind → the paper's safety verdict for a
  finished run (linearizability, lattice properties, consensus properties).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.metrics import OperationMetrics
from ..checkers import (
    check_consensus,
    check_lattice_agreement,
    check_register_linearizability,
    check_register_witness_first,
    check_snapshot_linearizability,
)
from ..errors import HistoryError
from ..failures import FailurePattern
from ..history import History
from ..protocols import (
    ClassicalABDRegister,
    ConsensusProcess,
    GQSRegister,
    LatticeAgreementProcess,
    PaxosBaselineProcess,
    SnapshotProcess,
)
from ..protocols.register import INITIAL_VALUE
from ..quorums import GeneralizedQuorumSystem, QuorumSystem
from ..registry import PROTOCOLS, register_protocol
from ..sim import Cluster, DelayModel, build_delay_model
from ..types import ProcessId, sorted_processes


@dataclass
class WorkloadResult:
    """History plus metrics of one simulated protocol run."""

    history: History
    metrics: OperationMetrics
    completed: bool
    cluster: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    """One planned client invocation: ``method(*args)`` on ``pid`` at time ``at``."""

    at: float
    pid: ProcessId
    method: str
    args: Tuple[Any, ...] = ()


def _collect_metrics(cluster: Cluster, history: History) -> OperationMetrics:
    records = history.records
    completed = [r for r in records if r.is_complete]
    return OperationMetrics(
        operations=len(records),
        completed=len(completed),
        mean_latency=history.mean_latency(),
        max_latency=history.max_latency(),
        messages_sent=cluster.network.stats.messages_sent,
        messages_delivered=cluster.network.stats.messages_delivered,
    )


def default_invokers(
    quorum_system: GeneralizedQuorumSystem, pattern: Optional[FailurePattern]
) -> List[ProcessId]:
    """The processes at which operations are invoked: ``U_f`` under a pattern, else all."""
    if pattern is None:
        return sorted_processes(quorum_system.processes)
    return sorted_processes(quorum_system.termination_component(pattern))


# ---------------------------------------------------------------------- #
# Built-in protocol factories (builders of the protocol registry entries)
# ---------------------------------------------------------------------- #
def _process_factory(process_class):
    """The registry's ``factory(quorum_system, params)`` for a protocol whose
    constructor takes the validated ``params`` as keywords: what a scenario
    leaves out is the constructor's own default."""

    def factory(quorum_system: GeneralizedQuorumSystem, params: Mapping[str, Any]):
        return functools.partial(process_class, quorum_system=quorum_system, **params)

    return factory


def _register_protocol_factory(quorum_system: GeneralizedQuorumSystem, params: Mapping[str, Any]):
    params = dict(params)
    if params.pop("classical", False):  # the ABD baseline has no push period and no relay
        if params:
            raise ValueError(
                "classical ABD takes no {}".format(" or ".join(map(repr, sorted(params))))
            )
        return functools.partial(ClassicalABDRegister, quorum_system=quorum_system)
    return functools.partial(GQSRegister, quorum_system=quorum_system, **params)


def _paxos_protocol_factory(quorum_system: GeneralizedQuorumSystem, params: Mapping[str, Any]):
    return functools.partial(PaxosBaselineProcess, process_ids=quorum_system.processes, **params)


# ---------------------------------------------------------------------- #
# Built-in client schedules (reusable by plugin protocols)
# ---------------------------------------------------------------------- #
def alternating_write_read_schedule(
    invoking: Sequence[ProcessId], ops_per_process: int, op_spacing: float
) -> List[Invocation]:
    """Each process issues ``ops_per_process`` operations, alternating writes
    (of unique values) and reads, rounds ``op_spacing`` apart and staggered
    within a round so operations from different processes overlap."""
    stagger = op_spacing / max(len(invoking), 1)
    plan: List[Invocation] = []
    for op_index in range(ops_per_process):
        for proc_index, pid in enumerate(invoking):
            at = 1.0 + op_index * op_spacing + proc_index * stagger
            if op_index % 2 == 0:
                plan.append(Invocation(at, pid, "write", ("{}#{}".format(pid, op_index),)))
            else:
                plan.append(Invocation(at, pid, "read"))
    return plan


def write_then_scan_schedule(
    invoking: Sequence[ProcessId], ops_per_process: int, op_spacing: float
) -> List[Invocation]:
    """``ops_per_process`` writes per process to its own segment, then one scan each."""
    stagger = op_spacing / max(len(invoking), 1)
    plan: List[Invocation] = []
    for op_index in range(ops_per_process):
        for proc_index, pid in enumerate(invoking):
            at = 1.0 + op_index * op_spacing + proc_index * stagger
            plan.append(Invocation(at, pid, "write", ("{}#{}".format(pid, op_index),)))
    scan_start = 1.0 + ops_per_process * op_spacing
    for proc_index, pid in enumerate(invoking):
        plan.append(Invocation(scan_start + proc_index * 2.0, pid, "scan"))
    return plan


def singleton_proposal_schedule(
    invoking: Sequence[ProcessId], ops_per_process: int, op_spacing: float
) -> List[Invocation]:
    """Every process proposes the singleton set of its own id, ``op_spacing`` apart."""
    return [
        Invocation(1.0 + proc_index * op_spacing, pid, "propose", (frozenset({pid}),))
        for proc_index, pid in enumerate(invoking)
    ]


def unique_value_proposal_schedule(
    invoking: Sequence[ProcessId], ops_per_process: int, op_spacing: float
) -> List[Invocation]:
    """Every process proposes a unique value, ``op_spacing`` apart (consensus, Paxos)."""
    return [
        Invocation(1.0 + proc_index * op_spacing, pid, "propose", ("value-from-{}".format(pid),))
        for proc_index, pid in enumerate(invoking)
    ]


# ---------------------------------------------------------------------- #
# Built-in safety judges (reusable by plugin protocols)
# ---------------------------------------------------------------------- #
def judge_register_history(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """Register linearizability via the witness-first path (dep-graph +
    automatic Wing-Gong fallback); the ``checker`` label reports which decided."""
    outcome = check_register_witness_first(history, initial_value=INITIAL_VALUE)
    label = (
        "dep-graph"
        if outcome.reason == "dependency-graph witness accepted"
        else "dep-graph+fallback"
    )
    return {
        "safe": outcome.is_linearizable,
        "checker": label,
        "explored_states": outcome.explored_states,
    }


#: State cap of :func:`register_search_effort`'s complete search.  The probe
#: saturates here instead of raising, so a history gnarly enough to exhaust
#: the search scores maximal badness deterministically.
EFFORT_PROBE_MAX_STATES = 50_000


def register_search_effort(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> int:
    """Verification-effort badness signal of a register history.

    The witness-first judge decides in polynomial time, so its
    ``explored_states`` is just the complete-operation count — constant over
    every schedule of a workload, useless as a search gradient.  This probe
    runs the *complete* Wing–Gong search instead: its state count grows with
    the genuine concurrency structure of the history (overlapping operations
    multiply the linearization orders the search must consider), which is
    exactly the badness the nemesis maximizes.  Saturates at
    :data:`EFFORT_PROBE_MAX_STATES`.
    """
    del quorum_system, pattern  # effort depends only on the history
    try:
        outcome = check_register_linearizability(
            history, initial_value=INITIAL_VALUE, max_states=EFFORT_PROBE_MAX_STATES
        )
    except HistoryError:
        return EFFORT_PROBE_MAX_STATES
    return outcome.explored_states


def judge_snapshot_history(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """Snapshot linearizability through the per-segment Wing-Gong search."""
    outcome = check_snapshot_linearizability(
        history, segment_ids=sorted_processes(quorum_system.processes)
    )
    return {
        "safe": outcome.is_linearizable,
        "checker": "snapshot-wing-gong",
        "explored_states": outcome.explored_states,
    }


def judge_lattice_history(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """Lattice agreement: learned values are comparable joins of proposals."""
    verdict = check_lattice_agreement(history)
    return {"safe": verdict.ok, "checker": "lattice-properties", "explored_states": 0}


def judge_consensus_history(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """Consensus: agreement + validity, termination at the pattern's ``U_f``."""
    required = (
        quorum_system.termination_component(pattern)
        if pattern is not None
        else quorum_system.processes
    )
    verdict = check_consensus(history, required_to_terminate=required)
    return {"safe": verdict.ok, "checker": "consensus-properties", "explored_states": 0}


def judge_baseline_history(
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """The Paxos baseline makes no safety claim under channel failures."""
    return {"safe": True, "checker": "none (baseline)", "explored_states": 0}


def _finalize_consensus(result: "WorkloadResult") -> None:
    result.extra["decided_values"] = sorted(
        {h.result for h in result.cluster.handles if h.done}, key=repr
    )


#: The delay spec of consensus and the Paxos baseline: GST 30, delta 1.  The
#: asynchronous objects keep the registry's uniform default.
_PARTIAL_SYNCHRONY = ("partial-synchrony", {"gst": 30.0, "delta": 1.0})


# ---------------------------------------------------------------------- #
# The built-in protocol registry entries
# ---------------------------------------------------------------------- #
register_protocol(
    "register",
    factory=_register_protocol_factory,
    schedule=alternating_write_read_schedule,
    judge=judge_register_history,
    defaults={"op_spacing": 8.0, "max_time": 4_000.0},
    params=("classical", "push_interval", "relay"),
    safety_label="linearizable={}".format,
    effort_probe=register_search_effort,
    repeat_ops=True,
    doc="the ABD-like MWMR atomic register over GQS access functions (Figure 4)",
)
register_protocol(
    "snapshot",
    factory=_process_factory(SnapshotProcess),
    schedule=write_then_scan_schedule,
    judge=judge_snapshot_history,
    defaults={"op_spacing": 15.0, "max_time": 6_000.0},
    params=("push_interval",),
    safety_label="linearizable={}".format,
    doc="atomic snapshots: per-process segments written and scanned atomically",
)
register_protocol(
    "lattice",
    factory=_process_factory(LatticeAgreementProcess),
    schedule=singleton_proposal_schedule,
    judge=judge_lattice_history,
    defaults={"op_spacing": 3.0, "max_time": 6_000.0},
    params=("push_interval",),
    safety_label="lattice-agreement-properties={}".format,
    doc="generalized lattice agreement: learned values are comparable joins",
)
register_protocol(
    "consensus",
    factory=_process_factory(ConsensusProcess),
    schedule=unique_value_proposal_schedule,
    judge=judge_consensus_history,
    defaults={"op_spacing": 1.5, "max_time": 3_000.0},
    params=("view_duration",),
    default_delay=_PARTIAL_SYNCHRONY,
    safety_label="agreement+validity+termination={}".format,
    finalize=_finalize_consensus,
    doc="the view-based consensus protocol of Figure 6 under partial synchrony",
)
register_protocol(
    "paxos",
    factory=_paxos_protocol_factory,
    schedule=unique_value_proposal_schedule,
    judge=judge_baseline_history,
    defaults={"op_spacing": 1.5, "max_time": 1_500.0},
    params=("retry_timeout",),
    default_delay=_PARTIAL_SYNCHRONY,
    safety_label=lambda verdict: "baseline (no safety check applied)",
    tags=("baseline", "no-safety-claim"),
    doc="the classical request/response Paxos baseline (no channel-failure safety claim)",
)


# ---------------------------------------------------------------------- #
# Declarative building blocks
# ---------------------------------------------------------------------- #
def build_protocol_factory(
    kind: str,
    quorum_system: GeneralizedQuorumSystem,
    params: Optional[Mapping[str, Any]] = None,
):
    """Build a process factory for protocol ``kind`` over ``quorum_system``.

    ``params`` supplies the protocol's tuning knobs, validated against the
    registry descriptor's schema (``PROTOCOLS[kind].params``).
    """
    params = dict(params or {})
    PROTOCOLS.validate_params(kind, params)
    return PROTOCOLS.build(kind, quorum_system, params)


def client_schedule(
    kind: str,
    invoking: Sequence[ProcessId],
    ops_per_process: int = 2,
    op_spacing: Optional[float] = None,
) -> List[Invocation]:
    """The canonical client plan for protocol ``kind`` over ``invoking`` processes.

    Dispatches to the registered protocol's schedule builder:

    * ``register`` — :func:`alternating_write_read_schedule`;
    * ``snapshot`` — :func:`write_then_scan_schedule`;
    * ``lattice`` — :func:`singleton_proposal_schedule`;
    * ``consensus`` / ``paxos`` — :func:`unique_value_proposal_schedule`.
    """
    descriptor = PROTOCOLS.get(kind)
    spacing = (
        op_spacing if op_spacing is not None else descriptor.extras["defaults"]["op_spacing"]
    )
    return descriptor.extras["schedule"](invoking, ops_per_process, spacing)


def execute_workload(
    quorum_system: GeneralizedQuorumSystem,
    factory: Any,
    schedule: Sequence[Invocation],
    delay_model: DelayModel,
    pattern: Optional[FailurePattern] = None,
    inject_at: Optional[float] = None,
    max_time: float = 4_000.0,
    extra: Optional[Dict[str, Any]] = None,
) -> WorkloadResult:
    """Run one simulated workload: build the cluster, inject, execute, collect.

    ``inject_at`` schedules the failure injection for a simulated time instead
    of time zero — churn scenarios use it to let failures arrive mid-run (for
    example exactly at GST).
    """
    cluster = Cluster(sorted_processes(quorum_system.processes), factory, delay_model=delay_model)
    # A channel the network lacks drops every message, like a cut one (a
    # complete network lacks none).
    system = quorum_system.fail_prone
    network, index = system.bitset_graph, system.process_index
    absent = [(index.full_mask ^ 1 << i) & ~network.successor_mask(i) for i in range(len(index))]
    for channel in index.channel_list(absent):
        cluster.network.disconnect_channel(channel)
    if pattern is not None:
        cluster.network.apply_failure_pattern(pattern, at_time=inject_at)
    for inv in schedule:
        cluster.invoke_at(inv.at, inv.pid, inv.method, *inv.args)
    # The cluster counts completions, so the run stops at exactly the event
    # that completes the last planned operation.
    cluster.run(max_time=max_time, until_completed=len(schedule))
    completed = cluster.completed == len(schedule)
    history = cluster.history()
    return WorkloadResult(
        history=history,
        metrics=_collect_metrics(cluster, history),
        completed=completed,
        cluster=cluster,
        extra=dict(extra or {}),
    )


def run_workload(
    kind: str,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern] = None,
    inject_at: Optional[float] = None,
    delay_model: Optional[DelayModel] = None,
    protocol_params: Optional[Mapping[str, Any]] = None,
    ops_per_process: int = 2,
    op_spacing: Optional[float] = None,
    max_time: Optional[float] = None,
    seed: int = 0,
) -> WorkloadResult:
    """Run protocol ``kind``'s canonical workload — the spec-driven front-end.

    Defaults follow the paper's evaluation set-up: operations are invoked at
    the termination component ``U_f`` of ``pattern`` (all processes when
    failure-free), delays follow the protocol's registered delay spec
    (``PROTOCOLS[kind].extras["default_delay"]``: uniform for the asynchronous
    objects, partially synchronous with GST 30 and delta 1 for consensus and
    the Paxos baseline), and the liveness horizon is protocol-specific
    (``PROTOCOLS[kind].extras["defaults"]``).
    """
    descriptor = PROTOCOLS.get(kind)
    if delay_model is None:
        delay_model = build_delay_model(*descriptor.extras["default_delay"], seed=seed)
    factory = build_protocol_factory(kind, quorum_system, protocol_params)
    invoking = default_invokers(quorum_system, pattern)
    schedule = client_schedule(kind, invoking, ops_per_process=ops_per_process, op_spacing=op_spacing)
    horizon = (
        max_time if max_time is not None else descriptor.extras["defaults"]["max_time"]
    )
    result = execute_workload(
        quorum_system,
        factory,
        schedule,
        delay_model=delay_model,
        pattern=pattern,
        inject_at=inject_at,
        max_time=horizon,
        extra={"invokers": invoking, "protocol": kind},
    )
    finalize = descriptor.extras.get("finalize")
    if finalize is not None:
        finalize(result)
    return result


def judge_history(
    kind: str,
    history: History,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
) -> Dict[str, Any]:
    """The paper's safety judgement for one operation history of protocol ``kind``.

    This is the single protocol→checker dispatch shared by the inline path
    (:func:`safety_report`, via the scenario runner) and the trace
    re-verification path (:mod:`repro.traces`): both *must* judge a history
    identically, or ``repro check`` would flag sound runs as mismatches.

    Returns ``{"safe": bool, "checker": str, "explored_states": int}``:
    registers go through the witness-first path
    (:func:`~repro.checkers.check_register_witness_first` — dependency-graph
    witness with automatic Wing–Gong fallback; the ``checker`` label reports
    which of the two decided), snapshots through the snapshot search, lattice
    agreement and consensus through their property checkers, and the Paxos
    baseline makes no claim under channel failures so it always passes.
    ``explored_states`` is the number of states the linearizability search
    (or witness graph) touched — zero for the checkers that do not search.
    """
    return PROTOCOLS.get(kind).extras["judge"](history, quorum_system, pattern)


def safety_report(
    kind: str,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
    result: WorkloadResult,
) -> Dict[str, Any]:
    """:func:`judge_history` applied to a finished run's history."""
    return judge_history(kind, result.history, quorum_system, pattern)


# ---------------------------------------------------------------------- #
# Register overhead (E4)
# ---------------------------------------------------------------------- #
def compare_register_overhead(
    classical_system: QuorumSystem,
    gqs_system: Optional[GeneralizedQuorumSystem] = None,
    ops_per_process: int = 2,
    seed: int = 0,
) -> Dict[str, WorkloadResult]:
    """E4: classical ABD vs the GQS register on a failure-free run of the same system."""
    if gqs_system is None:
        gqs_system = GeneralizedQuorumSystem.from_classical(classical_system)
    classical_run = run_workload(
        "register",
        gqs_system,
        protocol_params={"classical": True},
        ops_per_process=ops_per_process,
        seed=seed,
    )
    gqs_run = run_workload(
        "register",
        gqs_system,
        protocol_params={"relay": False},
        ops_per_process=ops_per_process,
        seed=seed,
    )
    return {"classical_abd": classical_run, "gqs_register": gqs_run}
