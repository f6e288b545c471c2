"""Materialize declarative scenario specs into runnable simulations.

The builders bridge :class:`~repro.scenarios.spec.ScenarioSpec` and the
concrete layers below it: the topology spec becomes a
:class:`~repro.failures.FailProneSystem` (via the generator registry or an
inline description), the GQS decision procedure supplies the quorum system the
protocols run over, and :func:`run_built_scenario` executes one seeded
simulation through the spec-driven workload layer
(:mod:`repro.experiments.workloads`).

``run_built_scenario`` is a module-level function of picklable arguments on
purpose: the engine builds a scenario once, fans its runs out across worker
processes and ships each worker only picklable inputs — nothing
runtime-dependent crosses the process boundary.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ReproError
from ..experiments import run_workload, safety_report
from ..failures import FailProneSystem, FailurePattern, build_fail_prone_system
from ..quorums import GeneralizedQuorumSystem, discover_gqs
from ..registry import PROTOCOLS
from ..serialization import fail_prone_system_from_dict, fail_prone_system_to_dict
from ..sim import build_delay_model
from ..traces import write_run_trace
from .spec import (
    EXPLICIT_TOPOLOGY,
    DelaySpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "build_quorum_system",
    "build_topology",
    "resolve_pattern",
    "run_built_scenario",
    "workload_scenario",
]


def build_topology(scenario: ScenarioSpec) -> FailProneSystem:
    """Build the scenario's fail-prone system from its topology spec."""
    topology = scenario.topology
    if topology.kind == EXPLICIT_TOPOLOGY:
        if "system" not in topology.params:
            raise ReproError(
                "explicit topology of scenario {!r} must carry a 'system' description".format(
                    scenario.name
                )
            )
        return fail_prone_system_from_dict(topology.params["system"])
    return build_fail_prone_system(topology.kind, topology.params)


def build_quorum_system(
    scenario: ScenarioSpec, system: Optional[FailProneSystem] = None
) -> GeneralizedQuorumSystem:
    """Discover the generalized quorum system the scenario's protocols run over."""
    system = system if system is not None else build_topology(scenario)
    result = discover_gqs(system)
    if not result.exists or result.quorum_system is None:
        raise ReproError(
            "scenario {!r}: the fail-prone system admits no generalized quorum system "
            "(by Theorem 2 its failure assumptions are not tolerable)".format(scenario.name)
        )
    return result.quorum_system


def resolve_pattern(
    scenario: ScenarioSpec, system: FailProneSystem
) -> Optional[FailurePattern]:
    """Resolve the scenario's failure-pattern name against the built topology."""
    try:
        return system.pattern_named(scenario.failure.pattern)
    except ReproError as error:
        raise ReproError("scenario {!r} injects {}".format(scenario.name, error)) from error


def workload_scenario(
    system: FailProneSystem, protocol: str, pattern: Optional[str], ops: int
) -> ScenarioSpec:
    """The scenario of ``protocol``'s canonical workload on ``system``: what
    ``repro simulate`` and E8 (:func:`repro.experiments.verify_pattern`) run.

    The topology is ``system`` itself, ``pattern`` (a name) is injected at
    time zero, the delay is the protocol's registered delay spec, and each
    invoker issues ``ops`` operations if the protocol repeats them, else one.
    """
    descriptor = PROTOCOLS.get(protocol)
    kind, params = descriptor.extras["default_delay"]
    return ScenarioSpec(
        name="simulate-{}".format(protocol),
        description="the canonical {} workload".format(protocol),
        paper_section="",
        topology=TopologySpec(EXPLICIT_TOPOLOGY, {"system": fail_prone_system_to_dict(system)}),
        failure=FailureSpec(pattern),
        delay=DelaySpec(kind, dict(params)),
        protocol=ProtocolSpec(protocol),
        workload=WorkloadSpec(ops if descriptor.extras["repeat_ops"] else 1),
        default_runs=1,
    )


def run_built_scenario(
    scenario: ScenarioSpec,
    quorum_system: GeneralizedQuorumSystem,
    pattern: Optional[FailurePattern],
    seed: int,
    run_index: int = 0,
    root_seed: int = 0,
    record_dir: Optional[str] = None,
    return_result: bool = False,
) -> Any:
    """Execute one seeded run of an already-materialized scenario.

    The engine runner builds the topology and runs GQS discovery once per
    scenario in the parent process and ships the (picklable) results to the
    workers, so an N-run batch performs one discovery, not N.
    Returns a flat, picklable row; with ``record_dir`` set, the run's full
    evidence (history, system, failure/delay description, verdict) is also
    persisted as one trace file for later ``repro check`` re-verification.
    With ``return_result`` the (non-picklable) ``(row, WorkloadResult)`` pair
    is returned instead, for callers that need the raw history — the nemesis
    uses it to feed protocol effort probes without re-running the simulation.
    """
    kind = scenario.protocol.kind
    result = run_workload(
        kind,
        quorum_system,
        pattern=pattern,
        inject_at=scenario.failure.at_time,
        delay_model=build_delay_model(scenario.delay.kind, scenario.delay.params, seed=seed),
        protocol_params=scenario.protocol.params,
        ops_per_process=scenario.workload.ops_per_process,
        op_spacing=scenario.workload.op_spacing,
        max_time=scenario.workload.max_time,
        seed=seed,
    )
    safety = safety_report(kind, quorum_system, pattern, result)
    row = {
        "run": run_index,
        "completed": result.completed,
        "safe": safety["safe"],
        "operations": result.metrics.operations,
        "mean_latency": result.metrics.mean_latency,
        "max_latency": result.metrics.max_latency,
        "messages": result.metrics.messages_sent,
        "explored_states": safety["explored_states"],
    }
    if record_dir is not None:
        write_run_trace(
            record_dir,
            name=scenario.name,
            protocol=kind,
            root_seed=root_seed,
            run_index=run_index,
            seed=seed,
            history=result.history,
            verdict=dict(row, checker=safety["checker"]),
            quorum_system=quorum_system,
            pattern=pattern,
            inject_at=scenario.failure.at_time,
            delay={"kind": scenario.delay.kind, "params": scenario.delay.params, "seed": seed},
            scenario=scenario.to_dict(),
        )
    if return_result:
        return row, result
    return row
