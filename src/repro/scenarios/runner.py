"""Execute scenarios through the parallel experiment engine.

A scenario run is a batch of independently seeded protocol simulations.  Each
simulation is one engine shard (:data:`SCENARIO_CHUNK_SIZE` is 1: a whole
discrete-event simulation is heavyweight, so per-run sharding maximises
parallelism and keeps the run index equal to the shard index), with its seed
spawned deterministically from the root seed and the scenario name.  The
engine contract therefore carries over verbatim: **the result table of
``repro scenario run <name> --seed S --jobs N`` is byte-identical for every
``N``** — and a sweep over several scenarios shares one worker pool, so
parallelism spans the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis.metrics import ResultTable, RunAggregates, field_lines
from ..egress import JsonDocument
from ..engine import ExperimentSpec, ParallelRunner, ProgressCallback, ShardSpec
from ..errors import ReproError
from ..traces import ensure_trace_directory
from .builders import build_quorum_system, build_topology, resolve_pattern, run_built_scenario
from .registry import get_scenario
from .spec import ScenarioSpec

__all__ = [
    "SCENARIO_CHUNK_SIZE",
    "ScenarioRunResult",
    "run_scenario",
    "scenario_batch",
    "sweep_scenarios",
    "sweep_table",
]

#: One simulation per engine shard (see module docstring).
SCENARIO_CHUNK_SIZE = 1

#: Columns of a scenario's per-run result table.  ``explored_states`` surfaces
#: the safety checker's search cost, so verification effort is observable.
RUN_COLUMNS = (
    "run",
    "completed",
    "safe",
    "operations",
    "mean_latency",
    "max_latency",
    "messages",
    "explored_states",
)


def scenario_batch(scenario: ScenarioSpec, runs: int, seed: int, **params: Any) -> ExperimentSpec:
    """The engine spec of ``runs`` seeded runs of ``scenario``, with ``params`` beside it.

    Shard ``i``'s seed is run ``i``'s: ``repro scenario run --seed S`` and a
    hunt's seed schedules over the same scenario draw one seed stream.
    """
    name = "scenario/{}".format(scenario.name)
    return ExperimentSpec(name, runs, seed, dict(scenario=scenario, **params), SCENARIO_CHUNK_SIZE)


def _scenario_experiment_spec(
    scenario: ScenarioSpec, runs: int, seed: int, record_traces: Optional[str] = None
) -> ExperimentSpec:
    """The engine spec for ``runs`` seeded executions of ``scenario``.

    Topology construction, pattern resolution and GQS discovery happen here,
    in that order, once per scenario in the parent process; workers receive
    the materialized (picklable) quorum system and pattern, so an N-run batch
    performs one discovery, not N — and an intolerable or misdeclared scenario
    fails before any run starts (a misnamed pattern before any discovery).
    """
    if runs < 1:
        raise ReproError(
            "a scenario batch needs at least 1 run (got {}); a zero-run batch "
            "would report vacuous liveness/safety".format(runs)
        )
    system = build_topology(scenario)
    pattern = resolve_pattern(scenario, system)
    quorum_system = build_quorum_system(scenario, system)
    return scenario_batch(
        scenario, runs, seed,
        quorum_system=quorum_system, pattern=pattern, record_traces=record_traces,
    )


def _scenario_shard(spec: ExperimentSpec, shard: ShardSpec) -> Dict[str, Any]:
    """Run one scenario simulation (executes inside a worker process).

    Trace files are written from the worker: each run owns one
    deterministically named file whose bytes depend only on
    ``(scenario, root seed, run index)``, so a recorded directory is
    byte-identical for every job count.
    """
    return run_built_scenario(
        spec.params["scenario"],
        spec.params["quorum_system"],
        spec.params["pattern"],
        seed=shard.seed,
        run_index=shard.index,
        root_seed=spec.seed,
        record_dir=spec.params.get("record_traces"),
    )


def _merge_rows(spec: ExperimentSpec, rows: List[Dict[str, Any]]) -> "ScenarioRunResult":
    return ScenarioRunResult(scenario=spec.params["scenario"], seed=spec.seed, rows=rows)


@dataclass
class ScenarioRunResult(RunAggregates, JsonDocument):
    """All per-run rows of one scenario execution, plus aggregates."""

    json_in_order = True

    scenario: ScenarioSpec
    seed: int
    rows: List[Dict[str, Any]]

    def run_table(self) -> ResultTable:
        """Per-run results as an ASCII table (byte-identical across job counts)."""
        return ResultTable(
            "scenario {!r}: {} run(s), seeds spawned from {}".format(
                self.scenario.name, self.runs, self.seed
            ),
            RUN_COLUMNS,
            self.rows,
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "completed_runs": self.completed_runs,
            "safe_runs": self.safe_runs,
            "all_completed": self.all_completed,
            "all_safe": self.all_safe,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "total_messages": self.total_messages,
            "explored_states": self.explored_states,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "rows": [dict(row) for row in self.rows],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        """What ran, the per-run table and the aggregates (``repro scenario run``)."""
        scenario, runs = self.scenario, self.runs
        header = field_lines(10, ("scenario", scenario.name), *scenario.component_labels().items())
        totals = field_lines(
            19,
            ("all runs completed", "{} ({}/{})".format(
                self.all_completed, self.completed_runs, runs)),
            ("safety", "{} ({}/{})".format(self.all_safe, self.safe_runs, runs)),
            ("mean latency", "{:.2f} (avg over runs)".format(self.mean_latency)),
            ("max latency", "{:.2f} (max over runs)".format(self.max_latency)),
            ("messages sent", "{} (total)".format(self.total_messages)),
        )
        return "\n".join(header + ["", self.run_table().to_text(), ""] + totals)


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    runs: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    record_traces: Optional[str] = None,
) -> ScenarioRunResult:
    """Run a scenario ``runs`` times with deterministically spawned seeds.

    ``scenario`` is a registered name or an explicit spec; ``runs`` defaults
    to the scenario's ``default_runs``.  The result depends only on
    ``(scenario, runs, seed)`` — never on ``jobs``.  With ``record_traces``
    set to a directory, every run also persists its trace
    (:mod:`repro.traces`) for later independent re-verification; the recorded
    files are likewise jobs-independent.
    """
    return sweep_scenarios([scenario], runs, seed, jobs, progress, record_traces)[0]


def sweep_scenarios(
    scenarios: Optional[Sequence[Union[str, ScenarioSpec]]] = None,
    runs: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    record_traces: Optional[str] = None,
) -> List[ScenarioRunResult]:
    """Run several scenarios (default: the whole registry) over one worker pool.

    All scenarios' runs flow through a single flattened shard stream, so
    ``jobs`` workers stay busy across scenario boundaries; each scenario's
    result is still exactly what :func:`run_scenario` would produce for it.
    ``record_traces`` records every run of every scenario into one directory
    (file names carry the scenario name, so a sweep never collides).
    """
    from .registry import all_scenarios

    chosen = scenarios if scenarios is not None else all_scenarios()
    specs = [get_scenario(s) if isinstance(s, str) else s for s in chosen]
    ensure_trace_directory(record_traces)
    runner = ParallelRunner(jobs=jobs, progress=progress)
    experiment_specs = [
        _scenario_experiment_spec(
            spec, runs if runs is not None else spec.default_runs, seed, record_traces=record_traces
        )
        for spec in specs
    ]
    return runner.run_sharded(experiment_specs, _scenario_shard, _merge_rows)


def sweep_table(results: Sequence[ScenarioRunResult]) -> ResultTable:
    """One summary row per scenario of a sweep."""
    table = ResultTable(
        title="scenario sweep",
        columns=(
            "scenario",
            "protocol",
            "runs",
            "completed",
            "safe",
            "mean_latency",
            "messages",
        ),
    )
    for result in results:
        table.add_row(
            scenario=result.scenario.name,
            protocol=result.scenario.protocol.kind,
            runs=result.runs,
            completed="{}/{}".format(result.completed_runs, result.runs),
            safe="{}/{}".format(result.safe_runs, result.runs),
            mean_latency=result.mean_latency,
            messages=result.total_messages,
        )
    return table
