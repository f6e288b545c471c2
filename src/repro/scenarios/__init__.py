"""Declarative scenario subsystem: named, serializable evaluation set-ups.

A scenario bundles everything one simulated evaluation needs — topology,
failure selection, delay model, protocol and client workload — into a single
JSON-round-trippable :class:`ScenarioSpec`.  The registry ships a catalogue of
named scenarios covering the paper's regimes (see ``docs/scenarios.md``), the
builders materialize specs into simulations, and the runner executes them
through the parallel experiment engine, so scenario results depend only on
``(scenario, runs, seed)`` — never on the worker count.

CLI front-end: ``python -m repro scenario list|show|run|sweep``.
"""

from .spec import (
    DelaySpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from .builders import (
    build_quorum_system,
    build_topology,
    resolve_pattern,
    run_built_scenario,
    workload_scenario,
)
from .registry import (
    all_scenarios,
    catalogue_markdown,
    catalogue_table,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .runner import (
    ScenarioRunResult,
    run_scenario,
    sweep_scenarios,
    sweep_table,
)

__all__ = [
    "DelaySpec",
    "FailureSpec",
    "ProtocolSpec",
    "ScenarioRunResult",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "all_scenarios",
    "build_quorum_system",
    "build_topology",
    "catalogue_markdown",
    "catalogue_table",
    "get_scenario",
    "register_scenario",
    "resolve_pattern",
    "run_built_scenario",
    "run_scenario",
    "scenario_names",
    "sweep_scenarios",
    "sweep_table",
    "workload_scenario",
]
