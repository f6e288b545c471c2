"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root is the single list of workloads,
gated end-to-end metrics (with their regression bounds) and per-layer metrics;
this module loads it, and adds only what that file's schema cannot say: the
two end-to-end metrics that are expected to be exactly 0 (the schema asks for
gated metrics that are never 0, so they are reported but not gated) and which
per-layer metrics are exact counts rather than wall-clock measurements.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
RUN_SECONDS = BENCHMARK["run_seconds"]

#: Gated end-to-end metrics: name -> {"unit", "better", "bound"}.
END_TO_END = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}

#: Reported on every workload next to the gated ones.  The first two are
#: expected to be 0 (the driver sees them as its ``failed`` / ``correct``
#: fields); the rest show what calibration.py did to the gated seconds.
UNGATED_END_TO_END = {
    "failed_fraction": {"unit": "ratio", "better": "lower"},
    "output_mismatch": {"unit": "count", "better": "lower"},
    "setup_s_raw": {"unit": "s", "better": "lower"},
    "iter_s_p50_raw": {"unit": "s", "better": "lower"},
    "machine_slowdown_p50": {"unit": "ratio", "better": "lower"},
}

#: Per-layer metrics: name -> {"unit", "better"}.
PER_LAYER = {entry["name"]: entry for entry in BENCHMARK["per_layer"]}

#: Per-layer metrics that repeat exactly for a given ``--seed`` (they are read
#: off the first iteration's outputs, never off a clock); the repeatability
#: check requires them identical between two runs.
EXACT = frozenset(
    [
        "failures.patterns_built",
        "quorums.nodes_explored",
        "quorums.candidates_total",
        "quorums.patterns_certified",
        "quorums.reuse_fraction",
        "sim.events",
        "sim.messages_sent",
        "protocols.msgs_per_op",
        "protocols.sim_latency_p50",
        "protocols.sim_latency_p99",
        "protocols.sim_latency_max",
        "protocols.ops_completed",
        "protocols.ops_incomplete",
        "checkers.explored_states",
        "checkers.replay_explored_states",
        "traces.bytes_written",
        "engine.spec_pickle_bytes",
        "engine.result_pickle_bytes",
        "montecarlo.shards",
        "cli.modules_imported",
    ]
)


def unit_of(name):
    for table in (END_TO_END, UNGATED_END_TO_END, PER_LAYER):
        if name in table:
            return table[name]["unit"]
    raise KeyError("metric {!r} is not declared in BENCHMARK.json".format(name))
