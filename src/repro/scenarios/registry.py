"""The named scenario catalogue.

Each entry is a complete, declarative :class:`~repro.scenarios.spec.ScenarioSpec`
— topology, failure selection, delay model, protocol and client workload — that
exercises one regime of the paper's claims, from the Figure 1 style
unidirectional ring to churn arriving exactly at GST.  ``repro scenario list``
renders this registry, ``docs/scenarios.md`` embeds its markdown rendering
(kept in sync by a tier-1 test and a CI check), and downstream users extend the
catalogue with :func:`register_scenario`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis.metrics import ResultTable
from ..registry import SCENARIOS
from ..registry import register_scenario as _register_scenario_descriptor
from .spec import (
    DelaySpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "all_scenarios",
    "catalogue_markdown",
    "catalogue_table",
    "get_scenario",
    "register_scenario",
    "scenario_names",
]

#: Columns of the catalogue (``repro scenario list`` and ``docs/scenarios.md``).
CATALOGUE_COLUMNS = (
    "scenario",
    "topology",
    "failure",
    "delay",
    "protocol",
    "paper section",
)


def register_scenario(scenario: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the catalogue (``replace=True`` overwrites an entry).

    Storage lives in the central :data:`repro.registry.SCENARIOS` registry, so
    plugin-registered scenarios and the built-in catalogue share one ordered
    namespace.
    """
    return _register_scenario_descriptor(scenario, replace=replace)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    return SCENARIOS.get(name).extras["spec"]


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return SCENARIOS.names()


def all_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, in registration order."""
    return [descriptor.extras["spec"] for descriptor in SCENARIOS.descriptors()]


# ---------------------------------------------------------------------- #
# Catalogue rendering
# ---------------------------------------------------------------------- #
def _catalogue_row(scenario: ScenarioSpec) -> Dict[str, Any]:
    row = dict(scenario.component_labels(), scenario=scenario.name)
    row["paper section"] = scenario.paper_section
    return row


def catalogue_table() -> ResultTable:
    """The scenario catalogue as an ASCII :class:`ResultTable`."""
    rows = [_catalogue_row(scenario) for scenario in all_scenarios()]
    return ResultTable("registered scenarios", CATALOGUE_COLUMNS, rows)


def catalogue_markdown() -> str:
    """The scenario catalogue as a GitHub-flavoured markdown table.

    This exact text is embedded in ``docs/scenarios.md``; the docs-consistency
    check regenerates it and diffs, so the documentation cannot drift from the
    registry.
    """
    header = "| " + " | ".join(CATALOGUE_COLUMNS) + " |"
    divider = "|" + "|".join(" --- " for _ in CATALOGUE_COLUMNS) + "|"
    lines = [header, divider]
    for scenario in all_scenarios():
        row = _catalogue_row(scenario)
        lines.append("| " + " | ".join("`{}`".format(row["scenario"]) if c == "scenario" else str(row[c]) for c in CATALOGUE_COLUMNS) + " |")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# The built-in catalogue
# ---------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        name="geo-replication",
        description=(
            "Three sites with two replicas each; an asymmetric WAN partition cuts "
            "all traffic from site 0 to site 1 while the reverse direction stays up "
            "(the partial-partition regime of the study the paper cites [8]). The "
            "MWMR register keeps serving at U_f."
        ),
        paper_section="S2 (model, motivation [8]); S5 (register)",
        topology=TopologySpec("geo", {"sites": 3, "replicas_per_site": 2}),
        failure=FailureSpec(pattern="partition-0to1"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register", {"push_interval": 1.0, "relay": True}),
        workload=WorkloadSpec(ops_per_process=2, op_spacing=8.0, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="unidirectional-ring",
        description=(
            "Five processes on a directed ring, the Figure 1 construction "
            "generalised: each pattern leaves a strongly connected majority write "
            "window plus one upstream reader whose only guaranteed channel points "
            "one way into the window. Read quorums are merely weakly connected."
        ),
        paper_section="S1 (Figure 1); S4 (GQS definition)",
        topology=TopologySpec("ring", {"n": 5}),
        failure=FailureSpec(pattern="f1"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register", {"push_interval": 1.0, "relay": True}),
        workload=WorkloadSpec(ops_per_process=2, op_spacing=8.0, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="adversarial-partition",
        description=(
            "Six processes split into two halves with one-way connectivity across "
            "the cut: the far half is strongly connected and reachable, so a GQS "
            "exists, yet no strongly connected quorum system (QS+) spans the split. "
            "Atomic snapshots must stay linearizable regardless."
        ),
        paper_section="S4 (GQS vs QS+); S6 (snapshots)",
        topology=TopologySpec("adversarial-partition", {"n": 6}),
        failure=FailureSpec(pattern="split3"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("snapshot", {"push_interval": 1.0}),
        workload=WorkloadSpec(ops_per_process=1, op_spacing=15.0, max_time=6_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="churn-at-gst",
        description=(
            "Crash-recovery churn timed adversarially: the network starts clean, "
            "then the Figure 1 pattern f1 is injected exactly at GST=30, so the "
            "failures land at the moment the consensus protocol starts relying on "
            "timely delivery. Proposers in U_f must still decide."
        ),
        paper_section="S7 (consensus under partial synchrony)",
        topology=TopologySpec("figure1"),
        failure=FailureSpec(pattern="f1", at_time=30.0),
        delay=DelaySpec(
            "partial-synchrony", {"gst": 30.0, "delta": 1.0, "pre_gst_max": 20.0}
        ),
        protocol=ProtocolSpec("consensus", {"view_duration": 5.0}),
        workload=WorkloadSpec(ops_per_process=1, op_spacing=1.5, max_time=3_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="partial-synchrony-stress",
        description=(
            "Consensus with a late GST (80) and wild pre-GST delays (up to 40 time "
            "units — 40x delta) under the Figure 1 partition from time zero: a long "
            "asynchronous prefix in which views keep timing out, followed by "
            "convergence shortly after the network stabilises."
        ),
        paper_section="S7 (consensus under partial synchrony)",
        topology=TopologySpec("figure1"),
        failure=FailureSpec(pattern="f1"),
        delay=DelaySpec(
            "partial-synchrony", {"gst": 80.0, "delta": 1.0, "pre_gst_max": 40.0}
        ),
        protocol=ProtocolSpec("consensus", {"view_duration": 5.0}),
        workload=WorkloadSpec(ops_per_process=1, op_spacing=1.5, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="heavy-contention-register",
        description=(
            "Failure-free contention stress on a classical minority-crash system: "
            "five writers issue alternating writes and reads only two time units "
            "apart, so operations from different processes overlap heavily and the "
            "linearizability checker works through dense conflict windows."
        ),
        paper_section="S5 (register); E3/E4 (overhead)",
        topology=TopologySpec("minority", {"n": 5}),
        failure=FailureSpec(pattern=None),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register", {"push_interval": 1.0, "relay": True}),
        workload=WorkloadSpec(ops_per_process=4, op_spacing=2.0, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="lattice-fan-in",
        description=(
            "Generalized lattice agreement fan-in: five processes concurrently "
            "propose singleton sets three time units apart, and every learned "
            "value must be a join of proposals, totally ordered by inclusion."
        ),
        paper_section="S6 (lattice agreement)",
        topology=TopologySpec("minority", {"n": 5}),
        failure=FailureSpec(pattern=None),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("lattice", {"push_interval": 1.0}),
        workload=WorkloadSpec(ops_per_process=1, op_spacing=3.0, max_time=6_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="zoned-threshold",
        description=(
            "A production-shaped threshold family: twelve processes in three "
            "zones, rotating two-process crash windows that also take down the "
            "inter-zone switch fabric, leaving each zone an isolated island. "
            "The MWMR register keeps serving inside the surviving island."
        ),
        paper_section="S2 (arbitrary fail-prone systems); S5 (register)",
        topology=TopologySpec(
            "large-threshold",
            {"n": 12, "max_crashes": 2, "num_patterns": 4, "zones": 3},
        ),
        failure=FailureSpec(pattern="window-0"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register", {"push_interval": 1.0, "relay": True}),
        workload=WorkloadSpec(ops_per_process=2, op_spacing=8.0, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="multi-region-blackout",
        description=(
            "Geo-replication at its worst: three regions whose WAN fails "
            "epoch by epoch, ending in a blackout where every secondary region "
            "is down and the primary's internal network degrades to a one-way "
            "chain of replicas. The register must stay linearizable while "
            "serving from the single chain replica in U_f."
        ),
        paper_section="S2 (model); S4 (GQS under weak connectivity); S5 (register)",
        topology=TopologySpec(
            "multi-region",
            {
                "regions": 3,
                "replicas_per_region": 3,
                "primary_replicas": 2,
                "epochs": 3,
                "catastrophic": True,
            },
        ),
        failure=FailureSpec(pattern="blackout"),
        delay=DelaySpec("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
        protocol=ProtocolSpec("register", {"push_interval": 1.0, "relay": True}),
        workload=WorkloadSpec(ops_per_process=2, op_spacing=8.0, max_time=4_000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="paxos-baseline",
        description=(
            "The classical request/response Paxos baseline on the same "
            "minority-crash system under partial synchrony — the E5 comparison "
            "point for the GQS consensus protocol (no channel-failure safety "
            "claim is made for it)."
        ),
        paper_section="S7 (baseline for E5)",
        topology=TopologySpec("minority", {"n": 5}),
        failure=FailureSpec(pattern=None),
        delay=DelaySpec(
            "partial-synchrony", {"gst": 30.0, "delta": 1.0, "pre_gst_max": 20.0}
        ),
        protocol=ProtocolSpec("paxos", {"retry_timeout": 20.0}),
        workload=WorkloadSpec(ops_per_process=1, op_spacing=1.5, max_time=1_500.0),
    )
)
