"""Incident reports: accountability records for adversarial schedules.

When the nemesis search (:mod:`repro.nemesis`) keeps a mutated schedule, the
trace file alone says *what happened*; the incident report says *what the
adversary did* — which processes it crashed, which channels it disconnected,
starved or reordered, and when it injected the failure — and cross-checks that
against the fail-prone budget the system declared (the accountability angle of
Pod, arXiv 2501.14931).

The budget check follows the paper's subsumption order on failure patterns: a
mutated pattern is *within budget* iff some declared pattern of the fail-prone
system subsumes it (its crash set and disconnect set are both covered).  Delay
perturbations — stretches and nudges — are never budget-relevant: asynchrony
permits arbitrary finite delays, so only crash/disconnect abuse can exceed the
declared assumptions.  The distinction matters for the paper's bounds: an
unsafe history only *counts as a violation* of the paper's claims when the
schedule stayed within budget (``paper_bound_violation``); an out-of-budget
schedule is flagged ``outside-budget`` instead, however unsafe its history.

Incident files sit next to their trace files in a nemesis corpus directory
(``<stem>.incident.json``), one canonical JSON object per file (sorted keys,
fixed separators) so corpus bytes are a pure function of the hunt's inputs.
The layout is schema-versioned (:data:`INCIDENT_SCHEMA_VERSION`) and pinned by
a regression test.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import ingress
from ..errors import ReproError
from ..failures import FailurePattern
from .store import run_stem, write_evidence

__all__ = [
    "INCIDENT_KEYS",
    "INCIDENT_SCHEMA_VERSION",
    "INCIDENT_SUFFIX",
    "budget_check",
    "build_incident",
    "incident_file_name",
    "list_incident_files",
    "load_incident",
    "write_incident",
]

#: Bumped whenever the incident layout changes; readers reject newer schemas.
INCIDENT_SCHEMA_VERSION = 1

#: File-name suffix identifying incident reports inside a corpus directory.
INCIDENT_SUFFIX = ".incident.json"

#: The exact top-level keys of a schema-1 incident, the contract the
#: regression test pins (sorted, as they appear in the canonical JSON).
INCIDENT_KEYS = (
    "candidate",
    "crashed_processes",
    "disconnected_channels",
    "fitness",
    "flags",
    "inject_at",
    "lineage",
    "nudged_deliveries",
    "paper_bound_violation",
    "pattern",
    "scenario",
    "schema",
    "seed",
    "strategy",
    "stretched_channels",
    "verdict",
    "within_budget",
)


def budget_check(
    declared: Sequence[FailurePattern], pattern: Optional[FailurePattern]
) -> Tuple[bool, Optional[str]]:
    """Is ``pattern`` within the declared fail-prone budget, and who vouches?

    Returns ``(within_budget, witness)``: the witness is the label of the
    first declared pattern that subsumes the injected one (``None`` for a
    failure-free schedule, which is trivially within budget).  Declaration
    order is the fail-prone system's ordered pattern tuple, so the witness is
    deterministic.
    """
    if pattern is None:
        return True, None
    for position, candidate in enumerate(declared):
        if pattern.is_subsumed_by(candidate):
            return True, candidate.label(position)
    return False, None


def build_incident(
    *,
    scenario: str,
    candidate: int,
    seed: int,
    declared: Sequence[FailurePattern],
    fitness: Dict[str, Any],
    pattern: Optional[FailurePattern] = None,
    inject_at: Optional[float] = None,
    stretches: Optional[Iterable[Sequence[Any]]] = None,
    nudges: Optional[Iterable[Sequence[Any]]] = None,
    lineage: Sequence[str] = (),
    verdict: Optional[Dict[str, Any]] = None,
    strategy: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one incident report for a (possibly mutated) schedule.

    ``stretches``/``nudges`` use the canonical list encodings of
    :mod:`repro.sim.override`; ``verdict`` is the run's inline verdict row
    and ``fitness`` the nemesis's badness score for it (which may weigh
    checker effort differently from the verdict's ``explored_states``).
    The report names everything the schedule abused and cross-checks the
    injected pattern against ``declared`` (the fail-prone system's pattern
    tuple) via :func:`budget_check`.
    """
    verdict = dict(verdict or {})
    within_budget, witness = budget_check(declared, pattern)
    flags: List[str] = []
    if not within_budget:
        flags.append("outside-budget")
    if verdict and not verdict.get("completed", True):
        flags.append("stall")
    unsafe = verdict.get("safe") is False
    paper_bound_violation = unsafe and within_budget
    if paper_bound_violation:
        flags.append("violation")
    crashed, channels = pattern.sorted_parts() if pattern is not None else ([], [])
    return {
        "schema": INCIDENT_SCHEMA_VERSION,
        "scenario": scenario,
        "strategy": strategy,
        "candidate": int(candidate),
        "seed": int(seed),
        "lineage": list(lineage),
        "pattern": pattern.name if pattern is not None else None,
        "inject_at": inject_at,
        "crashed_processes": crashed,
        "disconnected_channels": [list(channel) for channel in channels],
        "stretched_channels": [list(row) for row in (stretches or [])],
        "nudged_deliveries": [list(row) for row in (nudges or [])],
        "within_budget": {"ok": within_budget, "witness": witness},
        "flags": flags,
        "paper_bound_violation": paper_bound_violation,
        "verdict": verdict,
        "fitness": dict(fitness),
    }


def incident_file_name(name: str, root_seed: int, run_index: int) -> str:
    """The canonical incident file name, mirroring its trace's stem."""
    return run_stem(name, root_seed, run_index) + INCIDENT_SUFFIX


def write_incident(directory: str, file_name: str, incident: Dict[str, Any]) -> str:
    """Write one incident report as canonical JSON; returns its path.

    Written like every piece of evidence (:func:`~repro.traces.store.write_evidence`).
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, file_name)
    write_evidence(path, json.dumps(incident, sort_keys=True, indent=2))
    return path


def _incident(incident: Any) -> Dict[str, Any]:
    """A schema-1 incident, with every field a reader of the corpus takes checked."""
    incident = ingress.mapping(incident, "an incident report")
    ingress.schema(incident, INCIDENT_SCHEMA_VERSION, "incident")
    for key in INCIDENT_KEYS:
        ingress.required(incident, key, "an incident report")
    ingress.number(incident["candidate"], "field 'candidate'", int)
    for key in ("scenario", "strategy", "pattern"):
        ingress.text(incident[key], "field {!r}".format(key), optional=key != "scenario")
    for key in ("lineage", "flags"):
        ingress.names(incident[key], "field {!r}".format(key))
    ingress.mapping(incident["verdict"], "field 'verdict'")
    within = ingress.mapping(incident["within_budget"], "field 'within_budget'")
    if not isinstance(ingress.required(within, "ok", "field 'within_budget'"), bool):
        raise ReproError("field 'within_budget' needs a boolean 'ok', got {!r}".format(within))
    fitness = ingress.mapping(incident["fitness"], "field 'fitness'")
    for key in ("score", "explored_states"):
        ingress.number(ingress.required(fitness, key, "field 'fitness'"), "fitness " + key, int)
    return incident


def load_incident(path: str) -> Dict[str, Any]:
    """Parse one incident report (validating the schema version and the fields it is read by)."""
    return ingress.read_json(path, _incident)


def list_incident_files(directory: str) -> List[str]:
    """All incident reports under ``directory``, sorted by name."""
    if not os.path.isdir(directory):
        raise ReproError("corpus directory {!r} does not exist".format(directory))
    names = sorted(
        entry for entry in os.listdir(directory) if entry.endswith(INCIDENT_SUFFIX)
    )
    return [os.path.join(directory, name) for name in names]
