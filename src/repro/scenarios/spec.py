"""Serializable scenario specifications.

A :class:`ScenarioSpec` names one complete evaluation set-up declaratively:

* a **topology** (which fail-prone system generator to instantiate, with its
  parameters — or an explicit inline system description);
* a **failure** selection (which of the topology's patterns to inject, and
  when — time zero or mid-run, e.g. exactly at GST);
* a **delay model** (fixed, uniform, or partial synchrony);
* a **protocol** (register, snapshot, lattice agreement, consensus, or the
  Paxos baseline, with tuning knobs);
* a **client workload** (operations per process, spacing, liveness horizon).

Every component is a plain-data dataclass, and the whole spec round-trips
through JSON (via :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`,
building on :mod:`repro.serialization` for inline fail-prone systems), so
scenarios can live in files, be diffed, and be shipped to worker processes.
Run-specific state (seeds, job counts) deliberately never appears in a spec:
a scenario is *what* to run, the engine decides *how*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .. import ingress
from ..egress import JsonDocument
from ..errors import ReproError
from ..registry import DELAY_MODELS, PROTOCOLS, TOPOLOGIES

__all__ = [
    "DelaySpec",
    "FailureSpec",
    "ProtocolSpec",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
]

#: Topology kind for an inline fail-prone system description (see
#: :mod:`repro.serialization`); handled by the scenario builders rather than
#: by :data:`repro.registry.TOPOLOGIES`.
EXPLICIT_TOPOLOGY = "explicit"


def _label_params(params: Dict[str, Any]) -> str:
    """Compact ``key=value`` rendering of a parameter dict, in key order."""
    return ", ".join("{}={}".format(key, params[key]) for key in sorted(params))


@dataclass(frozen=True)
class _KindSpec:
    """A registry ``kind`` plus its ``params``: the one shape the topology,
    delay and protocol specs share.  Each subclass adds its validator
    (``__post_init__``) and says what it is called in error messages."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    #: How :meth:`from_dict` names the spec when the description is malformed,
    #: and the kind of a description that names none (empty: the validator's
    #: unknown-name error).
    WHAT = "spec"
    DEFAULT_KIND = ""

    def label(self) -> str:
        return "{}({})".format(self.kind, _label_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        data = ingress.mapping(data, cls.WHAT)
        kind = ingress.text(data.get("kind", cls.DEFAULT_KIND), "{} 'kind'".format(cls.WHAT))
        params = ingress.mapping(data.get("params", {}), "{} 'params'".format(cls.WHAT))
        return cls(kind=kind, params=dict(params))


@dataclass(frozen=True)
class TopologySpec(_KindSpec):
    """Which fail-prone system to build: a generator kind plus its parameters."""

    WHAT = "topology spec"

    def __post_init__(self) -> None:
        if self.kind != EXPLICIT_TOPOLOGY and self.kind not in TOPOLOGIES:
            raise TOPOLOGIES.unknown_name_error(self.kind, extra=(EXPLICIT_TOPOLOGY,))
        # A scenario's results must depend only on (scenario, runs, seed); a
        # randomly sampled topology without a pinned seed would redraw the
        # fail-prone system on every build and break that contract.
        if self.kind == "random" and self.params.get("seed") is None:
            raise ReproError(
                "topology kind 'random' requires an explicit integer 'seed' parameter "
                "in a scenario (results must not depend on OS entropy)"
            )

    def label(self) -> str:
        return "explicit" if self.kind == EXPLICIT_TOPOLOGY else super().label()


@dataclass(frozen=True)
class FailureSpec:
    """Which failure pattern to inject, and at what simulated time.

    ``pattern`` names one of the topology's patterns (``None`` = failure-free
    run); ``at_time`` schedules the injection mid-run (``None`` = time zero),
    which is how churn scenarios make failures arrive exactly at GST.
    """

    pattern: Optional[str] = None
    at_time: Optional[float] = None

    def label(self) -> str:
        if self.pattern is None:
            return "none"
        if self.at_time is None:
            return "{} at t=0".format(self.pattern)
        return "{} at t={}".format(self.pattern, self.at_time)

    def to_dict(self) -> Dict[str, Any]:
        return {"pattern": self.pattern, "at_time": self.at_time}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureSpec":
        data = ingress.mapping(data, "failure spec")
        return cls(
            pattern=ingress.text(data.get("pattern"), "failure spec 'pattern'", optional=True),
            at_time=ingress.numeric_field(data, "at_time", finite=True),
        )


@dataclass(frozen=True)
class DelaySpec(_KindSpec):
    """Which delay model the network uses (see :data:`repro.registry.DELAY_MODELS`)."""

    WHAT = "delay spec"
    DEFAULT_KIND = "uniform"
    kind: str = DEFAULT_KIND

    def __post_init__(self) -> None:
        if self.kind not in DELAY_MODELS:
            raise DELAY_MODELS.unknown_name_error(self.kind)


@dataclass(frozen=True)
class ProtocolSpec(_KindSpec):
    """Which protocol to run (see :data:`repro.registry.PROTOCOLS`)."""

    WHAT = "protocol spec"

    def __post_init__(self) -> None:
        PROTOCOLS.validate_params(self.kind, self.params)

    def label(self) -> str:
        return super().label() if self.params else self.kind


@dataclass(frozen=True)
class WorkloadSpec:
    """The client workload: operation count, spacing, and liveness horizon.

    ``op_spacing`` and ``max_time`` default (``None``) to the protocol's
    canonical values in ``repro.registry.PROTOCOLS[kind].extras["defaults"]``.
    """

    ops_per_process: int = 2
    op_spacing: Optional[float] = None
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ops_per_process < 1:
            raise ReproError("ops_per_process must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops_per_process": self.ops_per_process,
            "op_spacing": self.op_spacing,
            "max_time": self.max_time,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        data = ingress.mapping(data, "workload spec")
        return cls(
            ops_per_process=ingress.numeric_field(data, "ops_per_process", int, default=2),
            op_spacing=ingress.numeric_field(data, "op_spacing", finite=True),
            max_time=ingress.numeric_field(data, "max_time", finite=True),
        )


@dataclass(frozen=True)
class ScenarioSpec(JsonDocument):
    """One named, fully declarative evaluation scenario."""

    json_in_order = True

    name: str
    description: str
    paper_section: str
    topology: TopologySpec
    failure: FailureSpec
    delay: DelaySpec
    protocol: ProtocolSpec
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    default_runs: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a scenario needs a non-empty name")
        if self.default_runs < 1:
            raise ReproError("default_runs must be at least 1")

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "paper_section": self.paper_section,
            "topology": self.topology.to_dict(),
            "failure": self.failure.to_dict(),
            "delay": self.delay.to_dict(),
            "protocol": self.protocol.to_dict(),
            "workload": self.workload.to_dict(),
            "default_runs": self.default_runs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        data = ingress.mapping(data, "scenario spec")
        for key in ("name", "topology", "protocol"):
            ingress.required(data, key, "scenario spec")
        return cls(
            name=ingress.text(data["name"], "scenario 'name'"),
            description=ingress.text(data.get("description", ""), "scenario 'description'"),
            paper_section=ingress.text(data.get("paper_section", ""), "scenario 'paper_section'"),
            topology=TopologySpec.from_dict(data["topology"]),
            failure=FailureSpec.from_dict(data.get("failure", {})),
            delay=DelaySpec.from_dict(data.get("delay", {"kind": "uniform"})),
            protocol=ProtocolSpec.from_dict(data["protocol"]),
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            default_runs=ingress.numeric_field(data, "default_runs", int, default=4),
        )

    def component_labels(self) -> Dict[str, str]:
        """What the catalogue, a run report and :meth:`to_text` tell scenarios apart by."""
        return {
            "topology": self.topology.label(),
            "failure": self.failure.label(),
            "delay": self.delay.label(),
            "protocol": self.protocol.label(),
        }

    def to_text(self) -> str:
        """The whole specification as labelled lines (``repro scenario show``)."""
        from ..analysis.metrics import field_lines

        workload = "ops_per_process={}, op_spacing={}, max_time={}".format(
            self.workload.ops_per_process, self.workload.op_spacing, self.workload.max_time
        )
        return "\n".join(field_lines(
            14,
            ("scenario", self.name),
            ("description", self.description),
            ("paper section", self.paper_section),
            *self.component_labels().items(),
            ("workload", workload),
            ("default runs", self.default_runs),
        ))
