"""The six benchmark workloads.

Every workload offers the same five operations to ``child.py``:

``run(seed)``
    The work a user waits for, through ``repro.api`` only.  This is the timed
    region; it returns the raw ``api`` results untouched.
``judge(seed, raw)``
    Untimed.  Checks the outputs, counts units attempted/failed, reads the
    exact counters the ``api`` results expose and digests the canonical
    output bytes.
``verify_warmup(seed, raw, outcome)``
    Untimed, once per child.  The expensive cross-checks (second algorithm,
    from-scratch recomputation, jobs=1 reference).
``traced(seed, tracer)``
    Replays ``run`` by composing the layers' public functions with a span
    around each call; returns ``(raw, stats)`` where ``raw`` digests to the
    same bytes as ``run``'s.
``probes()`` / ``layer_metrics(tracer, stats, reference_seconds, probes)``
    Fixed micro-probes, run once per child; then spans, the first iteration's
    stats, the untraced iterations' seconds and the probes become per-layer
    metric values.

Only library surface that ROADMAP items 2-3 keep is imported here (see
README.md, "Surface hygiene"); ``test_e2e_smoke.py`` greps for the rest.
"""

import functools
import hashlib
import json
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import repro
from repro import api
from repro.analysis import figure1_quorum_system
from repro.analysis.metrics import percentile
from repro.engine import ExperimentSpec, ParallelRunner
from repro.experiments import run_workload, safety_report
from repro.failures import build_fail_prone_system, builtin_fail_prone_system
from repro.graph import reachable_from
from repro.montecarlo import admissibility_sweep, reliability_sweep
from repro.quorums import (
    MembershipDelta,
    WatchOutcome,
    apply_delta,
    candidate_pairs,
    discover_gqs,
    recertify_delta,
)
from repro.scenarios import (
    ScenarioRunResult,
    ScenarioSpec,
    all_scenarios,
    build_quorum_system,
    build_topology,
    get_scenario,
    resolve_pattern,
)
from repro.sim import FixedDelay, Network, Process, UniformDelay, build_delay_model
from repro.traces import (
    TraceCheckReport,
    check_trace,
    list_trace_files,
    load_trace,
    write_run_trace,
)

from spans import EXTRA


def digest_of(*parts):
    """SHA-256 over the canonical output bytes of one iteration."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class Outcome:
    """What ``judge`` found in one iteration's outputs."""

    def __init__(self, units, failed, digest, counts=None, errors=None):
        self.units = units
        self.failed = failed
        self.digest = digest
        #: Exact per-layer counters readable from the ``api`` results alone.
        self.counts = counts or {}
        self.errors = errors or []


def timed(_tracer, _span, _function, *args, **kwargs):
    """Call ``_function(*args, **kwargs)`` inside a span (underscored so no keyword collides)."""
    with _tracer.span(_span):
        return _function(*args, **kwargs)


class Workload:
    name = ""
    unit = ""
    #: Where calibration ticks run (see calibration.py): in this process, or
    #: in two helper processes when ``run`` works outside this process ...
    tick_processes = 1
    #: ... and the same for ``traced`` and ``probes``.
    replay_tick_processes = 1

    def __init__(self, smoke, scratch):
        self.smoke = smoke
        self.scratch = scratch

    def verify_warmup(self, seed, raw, outcome):
        return []

    def probes(self):
        return {}


# ---------------------------------------------------------------------- #
# discover-cold
# ---------------------------------------------------------------------- #
def _discovery_counts(systems_and_results):
    return {
        "failures.patterns_built": sum(len(s.patterns) for s, _ in systems_and_results),
        "quorums.nodes_explored": sum(r.nodes_explored for _, r in systems_and_results),
        "quorums.candidates_total": sum(
            sum(r.candidates_per_pattern.values()) for _, r in systems_and_results
        ),
        "quorums.patterns_certified": sum(
            len(s.patterns) for s, r in systems_and_results if r.exists
        ),
    }


class DiscoverCold(Workload):
    name = "discover-cold"
    unit = "failure pattern certified"

    #: (built-in name, does it admit a GQS)
    NAMED = (
        ("large-threshold-60x4", True),
        ("large-threshold-60x3x4", True),
        ("multiregion-10x5", True),
        ("geo-4x3", True),
        ("ring-8", True),
        ("adversarial-8", True),
        ("figure1", True),
        ("figure1-modified", False),
    )
    SMOKE_NAMED = NAMED[3:]
    RANDOM_PARAMS = {"n": 12, "num_patterns": 8}

    def __init__(self, smoke, scratch):
        super().__init__(smoke, scratch)
        self.named = self.SMOKE_NAMED if smoke else self.NAMED
        self.random_systems = 3 if smoke else 20

    def builders(self, seed):
        """``(expected verdict or None, layer builder, api builder)`` per system."""
        for name, expected in self.named:
            yield (
                expected,
                functools.partial(builtin_fail_prone_system, name),
                functools.partial(api.resolve_system, builtin=name),
            )
        for k in range(self.random_systems):
            params = dict(self.RANDOM_PARAMS, seed=seed * self.random_systems + k)
            build = functools.partial(build_fail_prone_system, "random", params)
            yield None, build, build

    def run(self, seed):
        raw = []
        for _expected, _build, build in self.builders(seed):
            system = build()
            raw.append((system, api.discover(system)))
        return raw

    def judge(self, seed, raw):
        errors = []
        units = failed = 0
        for (expected, _build, _api_build), (system, result) in zip(self.builders(seed), raw):
            units += len(system.patterns)
            sound = expected is None or result.exists == expected
            if result.exists:
                sound = sound and result.quorum_system is not None
                sound = sound and set(result.choices) == set(system.patterns)
            if not sound:
                failed += len(system.patterns)
                errors.append("{}: wrong verdict {}".format(system.name, result.exists))
        payload = [api.DiscoveryReport(system, result).to_dict() for system, result in raw]
        return Outcome(units, failed, digest_of(canonical(payload)), _discovery_counts(raw), errors)

    def verify_warmup(self, seed, raw, outcome):
        """``pruned`` and ``quotient`` must agree on verdict and witness."""
        errors = []
        for system, result in raw:
            other = discover_gqs(system, validate=False, algorithm="quotient")
            same = other.exists == result.exists and (
                api.DiscoveryReport(system, other).rows == api.DiscoveryReport(system, result).rows
            )
            if not same:
                errors.append("{}: quotient disagrees with pruned".format(system.name))
        return errors

    def traced(self, seed, tracer):
        raw = []
        for _expected, build, _api_build in self.builders(seed):
            system = timed(tracer, "failures.build", build)
            with tracer.span("quorums.candidates"):
                for pattern in system.patterns:
                    candidate_pairs(system, pattern)
            # Candidates are now memoized on the system, so an unvalidated
            # call is the search alone; it is extra work, used only to split
            # the validated call below into search + validation.
            with tracer.span(EXTRA):
                timed(tracer, "quorums.search", discover_gqs, system, validate=False)
            result = timed(tracer, "quorums.discover_validated", discover_gqs, system)
            raw.append((system, result))
        return raw, _discovery_counts(raw)

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        search = tracer.median_total("quorums.search")
        metrics = dict(stats)
        metrics.update(
            {
                "failures.build_s": tracer.median_total("failures.build"),
                "quorums.candidates_s": tracer.median_total("quorums.candidates"),
                "quorums.search_s": search,
                "quorums.validate_s": tracer.median_total("quorums.discover_validated") - search,
            }
        )
        return metrics

    def probes(self):
        """Graph-layer costs on fresh systems (nothing memoized yet)."""
        scc_seconds = 0.0
        for _expected, build, _api_build in self.builders(0):
            system = build()
            start = time.perf_counter()
            for pattern in system.patterns:
                system.residual_bitset(pattern).scc_masks()
            scc_seconds += time.perf_counter() - start

        system = builtin_fail_prone_system(self.named[0][0])
        index = system.process_index
        queries = []
        for pattern in system.patterns:
            sources = sorted(system.correct_processes(pattern))[:8]
            queries.append((pattern, sources))
        bitset_queries = [
            (system.residual_bitset(pattern), [index.mask_of([source]) for source in sources])
            for pattern, sources in queries
        ]
        set_queries = [
            (system.residual_graph(pattern), [[source] for source in sources])
            for pattern, sources in queries
        ]
        calls = sum(len(sources) for _pattern, sources in queries)
        start = time.perf_counter()
        for graph, masks in bitset_queries:
            for mask in masks:
                graph.reachable_mask(mask)
        bitset_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for graph, source_lists in set_queries:
            for sources in source_lists:
                reachable_from(graph, sources)
        set_seconds = time.perf_counter() - start
        return {
            "graph.residual_scc_s": scc_seconds,
            "graph.bitset_reach_per_s": calls / bitset_seconds,
            "graph.set_reach_per_s": calls / set_seconds,
        }


# ---------------------------------------------------------------------- #
# discover-churn
# ---------------------------------------------------------------------- #
class DiscoverChurn(Workload):
    name = "discover-churn"
    unit = "delta recertified"

    def __init__(self, smoke, scratch):
        super().__init__(smoke, scratch)
        self.builtin = "large-threshold-24x2" if smoke else "large-threshold-168x8"

    def deltas(self, system, seed):
        """The fixed six-delta script, rotated around the ring by the seed.

        The threshold family is rotation-symmetric, so every rotation costs
        the same and reuses the same number of structures; only the names in
        the output change with the seed.
        """
        ring = sorted(system.processes)
        start = random.Random(seed).randrange(len(ring))
        suspect, src, dst = (ring[(start + step) % len(ring)] for step in (0, 1, 5))
        joiner = "joiner-{}".format(seed)
        return [
            MembershipDelta("join", process=joiner),
            MembershipDelta("suspect", process=suspect),
            MembershipDelta("trust", process=suspect),
            MembershipDelta("suspect-channel", src=src, dst=dst),
            MembershipDelta("trust-channel", src=src, dst=dst),
            MembershipDelta("leave", process=joiner),
        ]

    def run(self, seed):
        system = api.resolve_system(builtin=self.builtin)
        return api.watch_quorums(system, self.deltas(system, seed))

    def _counts(self, outcome):
        certified = [(outcome.initial, outcome.initial_result)]
        certified += [(verdict.system, verdict.result) for verdict in outcome.verdicts]
        counts = _discovery_counts(certified)
        counts["failures.patterns_built"] = len(outcome.initial.patterns)
        counts["quorums.reuse_fraction"] = sum(
            verdict.candidates_reused for verdict in outcome.verdicts
        ) / sum(verdict.patterns_total for verdict in outcome.verdicts)
        return counts

    def judge(self, seed, raw):
        outcome = raw.outcome
        errors = []
        if not outcome.initial_result.exists:
            errors.append("initial system lost its GQS")
        failed = 0
        for verdict in outcome.verdicts:
            if not verdict.result.exists:
                failed += 1
                errors.append("{} lost the GQS".format(verdict.delta.describe()))
        digest = digest_of(canonical(raw.to_dict()))
        return Outcome(len(outcome.verdicts), failed, digest, self._counts(outcome), errors)

    def verify_warmup(self, seed, raw, outcome):
        """Every incremental verdict must equal a from-scratch discovery."""
        errors = []
        current = builtin_fail_prone_system(self.builtin)
        for verdict in raw.outcome.verdicts:
            current = apply_delta(current, verdict.delta)[0]  # fresh system, no caches carried
            scratch = discover_gqs(current, validate=False)
            same = scratch.exists == verdict.result.exists and (
                api.DiscoveryReport(current, scratch).rows
                == api.DiscoveryReport(verdict.system, verdict.result).rows
            )
            if not same:
                errors.append("{}: differs from scratch".format(verdict.delta.describe()))
        return errors

    def traced(self, seed, tracer):
        system = timed(tracer, "failures.build", builtin_fail_prone_system, self.builtin)
        initial = timed(tracer, "quorums.initial_certify", discover_gqs, system, validate=False)
        outcome = WatchOutcome(
            initial=system, final=system, algorithm="pruned", initial_result=initial
        )
        for index, delta in enumerate(self.deltas(system, seed)):
            # recertify_delta applies the delta itself; the separate call only
            # times that step (it is pure: a new system, nothing carried).
            with tracer.span(EXTRA):
                timed(tracer, "quorums.apply_delta", apply_delta, outcome.final, delta)
            verdict = timed(
                tracer, "quorums.recertify_delta", recertify_delta, outcome.final, delta, index
            )
            outcome.verdicts.append(verdict)
            outcome.final = verdict.system
        return api.WatchReport(outcome), self._counts(outcome)

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        metrics = dict(stats)
        metrics.update(
            {
                "failures.build_s": tracer.median_total("failures.build"),
                "quorums.initial_certify_s": tracer.median_total("quorums.initial_certify"),
                "quorums.apply_delta_s": tracer.median_total("quorums.apply_delta"),
                "quorums.delta_recertify_s_p50": statistics.median(
                    tracer.durations("quorums.recertify_delta")
                ),
            }
        )
        return metrics


# ---------------------------------------------------------------------- #
# Scenario workloads: sim-catalogue and pipeline-fifo-jobs2
# ---------------------------------------------------------------------- #
#: One scenario per protocol kind, for ``--smoke``.
SMOKE_SCENARIOS = (
    "unidirectional-ring",
    "adversarial-partition",
    "churn-at-gst",
    "lattice-fan-in",
    "paxos-baseline",
)


class TokenRing(Process):
    """Forwards each token to the next ring member until its hops run out.

    The handler does next to nothing on purpose: the probe times the
    scheduler and the network transport, not a protocol.
    """

    def __init__(self, pid, network, successor):
        super().__init__(pid, network)
        self.successor = successor

    def on_message(self, sender, message):
        if message > 0:
            self.send(self.successor, message - 1)


def kernel_events_per_s(delay_model, tokens_per_process):
    """Scheduler + transport events per second on an eight-process token ring."""
    network = Network(delay_model=delay_model)
    ring = ["p{}".format(i) for i in range(8)]
    processes = [
        TokenRing(pid, network, ring[(position + 1) % len(ring)])
        for position, pid in enumerate(ring)
    ]
    for process in processes:
        for _ in range(tokens_per_process):
            process.send(process.successor, 30)
    start = time.perf_counter()
    network.run()
    return network.scheduler.events_processed / (time.perf_counter() - start)


def directory_bytes(directory):
    """``(file name, contents)`` of every file in ``directory``, sorted by name."""
    entries = []
    for file_name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, file_name), "rb") as handle:
            entries.append((file_name, handle.read()))
    return entries


class ScenarioWorkload(Workload):
    """Shared replay of ``api.sweep_scenarios`` from the layers' public functions."""

    runs = 1

    def specs(self):
        if self.smoke:
            return [get_scenario(name) for name in SMOKE_SCENARIOS]
        return all_scenarios()

    def replay_sweep(self, specs, seed, tracer, record_dir=None):
        """What ``sweep_scenarios(specs, runs, seed, jobs=1)`` does, span by span."""
        results = []
        stats = {"events": 0, "messages": 0, "latencies": [], "incomplete": 0,
                 "spec_pickle_bytes": 0, "result_pickle_bytes": 0}
        for spec in specs:
            kind = spec.protocol.kind
            system = timed(tracer, "failures.build", build_topology, spec)
            quorum_system = timed(tracer, "quorums.discover", build_quorum_system, spec, system)
            pattern = resolve_pattern(spec, system)
            experiment = ExperimentSpec(
                name="scenario/{}".format(spec.name),
                samples=self.runs,
                seed=seed,
                params={
                    "scenario": spec,
                    "quorum_system": quorum_system,
                    "pattern": pattern,
                    "record_traces": "traces" if record_dir else None,
                },
                chunk_size=1,
            )
            rows = []
            for shard in experiment.shards():
                stats["spec_pickle_bytes"] += len(pickle.dumps((experiment, shard)))
                delay_model = build_delay_model(spec.delay.kind, spec.delay.params, seed=shard.seed)
                result = timed(
                    tracer,
                    "experiments.run_workload." + kind,
                    run_workload,
                    kind,
                    quorum_system,
                    pattern=pattern,
                    inject_at=spec.failure.at_time,
                    delay_model=delay_model,
                    protocol_params=spec.protocol.params,
                    ops_per_process=spec.workload.ops_per_process,
                    op_spacing=spec.workload.op_spacing,
                    max_time=spec.workload.max_time,
                    seed=shard.seed,
                )
                safety = timed(
                    tracer, "checkers.inline", safety_report, kind, quorum_system, pattern, result
                )
                row = {
                    "run": shard.index,
                    "completed": result.completed,
                    "safe": safety["safe"],
                    "operations": result.metrics.operations,
                    "mean_latency": result.metrics.mean_latency,
                    "max_latency": result.metrics.max_latency,
                    "messages": result.metrics.messages_sent,
                    "explored_states": safety["explored_states"],
                }
                if record_dir is not None:
                    timed(
                        tracer,
                        "traces.write",
                        write_run_trace,
                        record_dir,
                        name=spec.name,
                        protocol=kind,
                        root_seed=seed,
                        run_index=shard.index,
                        seed=shard.seed,
                        history=result.history,
                        verdict=dict(row, checker=safety["checker"]),
                        quorum_system=quorum_system,
                        pattern=pattern,
                        inject_at=spec.failure.at_time,
                        delay={"kind": spec.delay.kind, "params": spec.delay.params,
                               "seed": shard.seed},
                        scenario=spec.to_dict(),
                    )
                rows.append(row)
                stats["result_pickle_bytes"] += len(pickle.dumps(row))
                network = result.cluster.network
                stats["events"] += network.scheduler.events_processed
                stats["messages"] += network.stats.messages_sent
                for record in result.history.records:
                    if record.is_complete:
                        stats["latencies"].append(record.completed_at - record.invoked_at)
                    else:
                        stats["incomplete"] += 1
            results.append(ScenarioRunResult(scenario=spec, seed=seed, rows=rows))
        return results, stats

    @staticmethod
    def sweep_counts(results):
        rows = [row for result in results for row in result.rows]
        return {
            "sim.messages_sent": sum(row["messages"] for row in rows),
            "checkers.explored_states": sum(row["explored_states"] for row in rows),
        }

    def sweep_layer_metrics(self, tracer, stats, kernel_rate):
        """Per-layer metrics every scenario workload shares."""
        run_workload_s = tracer.median_total("experiments.run_workload")
        latencies = stats["latencies"]
        kernel_s = stats["events"] / kernel_rate
        metrics = {
            "failures.build_s": tracer.median_total("failures.build"),
            "experiments.run_workload_s": run_workload_s,
            "sim.events": stats["events"],
            "sim.messages_sent": stats["messages"],
            "sim.events_per_s": stats["events"] / run_workload_s,
            "sim.kernel_share": kernel_s / run_workload_s,
            "protocols.self_s_est": run_workload_s - kernel_s,
            "protocols.msgs_per_op": stats["messages"] / len(latencies),
            "protocols.sim_latency_p50": percentile(latencies, 0.50),
            "protocols.sim_latency_p99": percentile(latencies, 0.99),
            "protocols.sim_latency_max": max(latencies),
            "protocols.ops_completed": len(latencies),
            "protocols.ops_incomplete": stats["incomplete"],
            "checkers.inline_s": tracer.median_total("checkers.inline"),
        }
        for kind in ("register", "snapshot", "lattice", "consensus", "paxos"):
            name = "experiments.run_workload." + kind
            metrics[name.replace("run_workload.", "run_workload_s.")] = tracer.median_total(name)
        return metrics

    def kernel_probes(self):
        tokens = 60 if self.smoke else 500
        return {
            "sim.kernel_events_per_s_heap": kernel_events_per_s(
                UniformDelay(0.5, 2.0, seed=3), tokens
            ),
            "sim.kernel_events_per_s_fifo": kernel_events_per_s(FixedDelay(1.0), tokens),
        }


class SimCatalogue(ScenarioWorkload):
    name = "sim-catalogue"
    unit = "client operation completed and judged safe"

    def __init__(self, smoke, scratch):
        super().__init__(smoke, scratch)
        self.runs = 1 if smoke else 2
        self.names = list(SMOKE_SCENARIOS) if smoke else None  # None: the whole catalogue

    def run(self, seed):
        return api.sweep_scenarios(self.names, runs=self.runs, seed=seed, jobs=1)

    def judge(self, seed, raw):
        errors = []
        units = failed = 0
        for result in raw:
            for row in result.rows:
                units += row["operations"]
                if not (row["completed"] and row["safe"]):
                    failed += row["operations"]
                    errors.append("{} run {}: not completed and safe".format(
                        result.scenario.name, row["run"]))
        digest = digest_of(canonical([result.to_dict() for result in raw]))
        return Outcome(units, failed, digest, self.sweep_counts(raw), errors)

    def traced(self, seed, tracer):
        return self.replay_sweep(self.specs(), seed, tracer)

    def probes(self):
        return self.kernel_probes()

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        metrics = self.sweep_layer_metrics(tracer, stats, probes["sim.kernel_events_per_s_heap"])
        layers = sum(
            tracer.median_total(prefix)
            for prefix in ("failures", "quorums", "experiments", "checkers")
        )
        metrics["scenarios.glue_self_s"] = statistics.median(reference_seconds) - layers
        return metrics


def noop(item):
    return item


class PipelineFifoJobs2(ScenarioWorkload):
    name = "pipeline-fifo-jobs2"
    unit = "run recorded and re-verified"
    tick_processes = 2  # jobs=2; the replay is serial and in-process

    CHECKERS = ("auto", "wing-gong")

    def __init__(self, smoke, scratch):
        super().__init__(smoke, scratch)
        self.runs = 1 if smoke else 2
        fixed = {"kind": "fixed", "params": {"latency": 1.0}}
        self.fifo_specs = [
            ScenarioSpec.from_dict(dict(spec.to_dict(), delay=fixed)) for spec in self.specs()
        ]

    def pipeline(self, seed, jobs):
        """Record a sweep, then re-verify it twice: the real three-command pipeline."""
        directory = tempfile.mkdtemp(prefix="traces-", dir=self.scratch)
        results = api.sweep_scenarios(
            self.fifo_specs, runs=self.runs, seed=seed, jobs=jobs, record_traces=directory
        )
        reports = [api.check_traces(directory, checker=checker, jobs=jobs)
                   for checker in self.CHECKERS]
        return results, reports, directory

    def run(self, seed):
        return self.pipeline(seed, jobs=2)

    def judge(self, seed, raw):
        results, reports, directory = raw
        errors = []
        bad_runs = set()
        for result in results:
            for row in result.rows:
                if not (row["completed"] and row["safe"]):
                    bad_runs.add((result.scenario.name, row["run"]))
                    errors.append("{} run {}: not completed and safe".format(
                        result.scenario.name, row["run"]))
        for report in reports:
            for row in report.rows:
                if not (row["safe"] and row["match"]):
                    bad_runs.add((row["name"], row["run"]))
                    errors.append("{}: {} re-check disagrees".format(row["trace"], report.checker))
        files = directory_bytes(directory)
        shutil.rmtree(directory)
        units = sum(len(result.rows) for result in results)
        if len(files) != units:
            errors.append("{} trace files for {} runs".format(len(files), units))
        digest = digest_of(
            canonical([result.to_dict() for result in results]),
            *[str(report.table()) for report in reports],
            *[part for name, contents in files for part in (name, contents)]
        )
        counts = self.sweep_counts(results)
        counts["traces.bytes_written"] = sum(len(contents) for _name, contents in files)
        counts["checkers.replay_explored_states"] = sum(
            report.summary()["explored_states"] for report in reports
        )
        return Outcome(units, len(bad_runs), digest, counts, errors)

    def verify_warmup(self, seed, raw, outcome):
        """jobs=2 tables and trace bytes must equal the same-seed jobs=1 reference."""
        serial = self.judge(seed, self.pipeline(seed, jobs=1))
        return [] if serial.digest == outcome.digest else ["jobs=2 output differs from jobs=1"]

    def traced(self, seed, tracer):
        with tracer.span(EXTRA):
            with tracer.span("engine.jobs1_reference"):
                _results, _reports, reference_directory = self.pipeline(seed, jobs=1)
            shutil.rmtree(reference_directory)
        directory = tempfile.mkdtemp(prefix="traces-", dir=self.scratch)
        results, stats = self.replay_sweep(self.fifo_specs, seed, tracer, record_dir=directory)
        reports = []
        for checker in self.CHECKERS:
            rows = []
            for path in list_trace_files(directory):
                trace = timed(tracer, "traces.load", load_trace, path)
                rows.append(timed(tracer, "checkers.replay." + checker, check_trace, trace, checker))
            reports.append(TraceCheckReport(directory=directory, checker=checker, rows=rows))
        return (results, reports, directory), stats

    def probes(self):
        probes = self.kernel_probes()
        spinups = []
        for _ in range(5):
            start = time.perf_counter()
            ParallelRunner(jobs=2).map(noop, range(2))
            spinups.append(time.perf_counter() - start)
        probes["engine.pool_spinup_s"] = statistics.median(spinups)
        return probes

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        metrics = self.sweep_layer_metrics(tracer, stats, probes["sim.kernel_events_per_s_fifo"])
        for checker in self.CHECKERS:
            metrics["checkers.replay_s." + checker] = tracer.median_total(
                "checkers.replay." + checker
            )
        metrics["traces.write_s"] = tracer.median_total("traces.write")
        metrics["traces.load_s"] = tracer.median_total("traces.load")
        metrics["engine.spec_pickle_bytes"] = stats["spec_pickle_bytes"]
        metrics["engine.result_pickle_bytes"] = stats["result_pickle_bytes"]
        serial = tracer.median_total("engine.jobs1_reference")
        metrics["engine.scaling_efficiency"] = serial / (2 * statistics.median(reference_seconds))
        # The replay is serial, so its overhead is judged against the serial
        # api run, not against the two-worker one the timed pass measures.
        metrics["harness.tracing_overhead"] = (
            statistics.median(tracer.replay_seconds()) / serial - 1.0
        )
        return metrics


# ---------------------------------------------------------------------- #
# montecarlo-sweep
# ---------------------------------------------------------------------- #
class MonteCarloSweep(Workload):
    name = "montecarlo-sweep"
    unit = "Monte Carlo sample"

    #: ``api.sweep``'s defaults, spelled out for the layer-level replay.
    PROBS = (0.0, 0.1, 0.2, 0.3, 0.5)

    def __init__(self, smoke, scratch):
        super().__init__(smoke, scratch)
        self.samples = 200 if smoke else 6000

    def run(self, seed):
        return api.sweep(kind="all", samples=self.samples, seed=seed, jobs=1)

    def judge(self, seed, raw):
        errors = []
        units = failed = 0
        for point in raw.admissibility + raw.reliability:
            units += self.samples
            if point.samples != self.samples:
                failed += self.samples
                errors.append("grid point drew {} samples".format(point.samples))
        for point in raw.admissibility:
            # Classical quorums imply QS+, which imply a GQS (the paper's hierarchy).
            if not point.classical <= point.strong <= point.generalized <= point.samples:
                failed += self.samples
                errors.append("admissibility hierarchy violated at p={}".format(
                    point.disconnect_prob))
        return Outcome(units, failed, digest_of(raw.to_json()), {}, errors)

    def traced(self, seed, tracer):
        shards = {}

        def count_shards(study, _done, total):
            shards[study] = total

        admissibility = timed(
            tracer, "montecarlo.admissibility", admissibility_sweep,
            disconnect_probs=self.PROBS, n=5, num_patterns=3, samples=self.samples,
            seed=seed, jobs=1, progress=functools.partial(count_shards, "admissibility"),
        )
        reliability = timed(
            tracer, "montecarlo.reliability", reliability_sweep,
            figure1_quorum_system(), disconnect_probs=self.PROBS, samples=self.samples,
            seed=seed, jobs=1, progress=functools.partial(count_shards, "reliability"),
        )
        raw = api.MonteCarloSweep(admissibility=admissibility, reliability=reliability)
        return raw, {"montecarlo.shards": sum(shards.values())}

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        per_study = self.samples * len(self.PROBS)
        metrics = dict(stats)
        metrics["montecarlo.admissibility_samples_per_s"] = per_study / tracer.median_total(
            "montecarlo.admissibility"
        )
        metrics["montecarlo.reliability_samples_per_s"] = per_study / tracer.median_total(
            "montecarlo.reliability"
        )
        return metrics


# ---------------------------------------------------------------------- #
# cli-cold
# ---------------------------------------------------------------------- #
class CliCold(Workload):
    name = "cli-cold"
    unit = "CLI invocation"
    tick_processes = 2
    replay_tick_processes = 2

    DISCOVER_BUILTIN = "geo-4x3"
    SCENARIO = "multi-region-blackout"

    def commands(self, seed):
        """``(span name, argv after "python -m repro")`` of the three invocations."""
        return [
            ("cli.version", ["--version"]),
            ("cli.discover", ["quorums", "discover", "--builtin", self.DISCOVER_BUILTIN,
                              "--format", "json"]),
            ("cli.scenario_run", ["scenario", "run", self.SCENARIO, "--runs", "1",
                                  "--seed", str(seed), "--format", "json"]),
        ]

    @staticmethod
    def invoke(arguments):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + arguments,
            stdout=subprocess.PIPE, universal_newlines=True, timeout=120,
        )

    def run(self, seed):
        return [self.invoke(arguments) for _name, arguments in self.commands(seed)]

    def expected_stdout(self, seed):
        """The same three payloads from the in-process ``api``."""
        discovery = api.discovery_report(api.resolve_system(builtin=self.DISCOVER_BUILTIN))
        return [
            "repro {}\n".format(repro.__version__),
            json.dumps(discovery.to_dict(), indent=2, sort_keys=True) + "\n",
            api.run_scenario(self.SCENARIO, runs=1, seed=seed).to_json() + "\n",
        ]

    def judge(self, seed, raw):
        errors = []
        failed = 0
        for process, expected in zip(raw, self.expected_stdout(seed)):
            if process.returncode != 0 or process.stdout != expected:
                failed += 1
                errors.append("{}: exit {} or stdout differs from api".format(
                    " ".join(process.args[3:]), process.returncode))
        return Outcome(len(raw), failed, digest_of(*[process.stdout for process in raw]), {}, errors)

    def traced(self, seed, tracer):
        raw = [timed(tracer, name, self.invoke, arguments)
               for name, arguments in self.commands(seed)]
        return raw, {}

    def probes(self):
        def median_seconds(code):
            seconds = []
            for _ in range(3 if self.smoke else 7):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
                seconds.append(time.perf_counter() - start)
            return statistics.median(seconds)

        interpreter = median_seconds("pass")
        count = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; print(sum(1 for m in sys.modules "
             "if m == 'repro' or m.startswith('repro.')))"],
            stdout=subprocess.PIPE, universal_newlines=True, check=True, timeout=120,
        )
        return {
            "cli.interpreter_s_p50": interpreter,
            "cli.import_repro_s_p50": median_seconds("import repro") - interpreter,
            "cli.modules_imported": int(count.stdout),
        }

    def layer_metrics(self, tracer, stats, reference_seconds, probes):
        return {
            "cli.version_s_p50": tracer.median_total("cli.version"),
            "cli.discover_s_p50": tracer.median_total("cli.discover"),
            "cli.scenario_run_s_p50": tracer.median_total("cli.scenario_run"),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        DiscoverCold, DiscoverChurn, SimCatalogue, PipelineFifoJobs2, MonteCarloSweep, CliCold
    )
}
