"""Functional check of the end-to-end benchmark (collected by the tier-1 command).

Runs ``run.py --smoke`` once — all six workloads at reduced sizes, timed and
traced passes — and checks what it emits against ``BENCHMARK.json``.  No
timing is asserted here: numbers are the benchmark's business, not a test's.
"""

import glob
import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Library surface ROADMAP items 2-3 plan to delete or move to test oracles.
#: The harness must not depend on any of it, so those PRs cannot break it.
SLATED_FOR_DELETION = (
    r"engine\s*=\s*[\"']set[\"']",
    r"REPRO_SIM_FASTPATH",
    r"FASTPATH_ENV",
    r"algorithm\s*=\s*[\"']naive[\"']",
    r"candidate_pairs_reference",
    r"gqs_exists_bruteforce",
    r"RegistryView",
    r"PROTOCOL_KINDS",
    r"PROTOCOL_PARAM_KEYS",
    r"WORKLOAD_DEFAULTS",
    r"TOPOLOGY_KINDS",
    r"DELAY_MODEL_KINDS",
    r"CHECKER_KINDS",
    r"NEMESIS_STRATEGIES",
    r"MONTE_CARLO_ENGINES",
    r"run_(register|snapshot|lattice|consensus|paxos_baseline)_workload",
)

LINE = re.compile(r"^(\S+)\s+(timed|traced)\s+(\S+)\s+(\S+)\s+(\S+)")


def test_harness_avoids_surface_slated_for_deletion():
    sources = [
        path for path in glob.glob(os.path.join(HERE, "*.py"))
        if os.path.abspath(path) != os.path.abspath(__file__)
    ]
    assert len(sources) >= 4
    for path in sources:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for pattern in SLATED_FOR_DELETION:
            assert not re.search(pattern, text), "{} uses {}".format(path, pattern)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-out")
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True, timeout=300,
    )
    assert finished.returncode == 0, finished.stdout[-2000:]
    lines = finished.stdout.strip().splitlines()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {
        "out": str(out),
        "emitted": [LINE.match(line).groups() for line in lines[:-1]],
        "last": json.loads(lines[-1]),
        "benchmark": benchmark,
    }


def test_every_metric_is_emitted_once_per_workload_and_pass(smoke):
    benchmark = smoke["benchmark"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    gated = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    # Expected-zero checks and the raw side of the calibration: printed, not gated.
    ungated = {
        "failed_fraction": "ratio",
        "output_mismatch": "count",
        "setup_s_raw": "s",
        "iter_s_p50_raw": "s",
        "machine_slowdown_p50": "ratio",
    }

    seen = {}
    for workload, pass_name, name, value, unit in smoke["emitted"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert math.isfinite(float(value))
        names = seen.setdefault((workload, pass_name), {})
        assert name not in names, "{} printed twice for {}".format(name, workload)
        names[name] = unit

    assert sorted(seen) == sorted((w, p) for w in workloads for p in ("timed", "traced"))
    for workload in workloads:
        timed, traced = seen[workload, "timed"], seen[workload, "traced"]
        assert traced == per_layer
        end_to_end = {name: unit for name, unit in timed.items() if name not in per_layer}
        assert end_to_end == dict(gated, **ungated)
        # Exact counters visible in the api outputs are printed in the timed pass too.
        assert all(per_layer[name] == unit for name, unit in timed.items() if name in per_layer)


def test_outputs_verify_and_result_objects_match_benchmark_json(smoke):
    benchmark = smoke["benchmark"]
    last = smoke["last"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    (report,) = last["reports"]
    assert list(report) == [entry["name"] for entry in benchmark["workloads"]]
    for workload, by_pass in report.items():
        for pass_name, declared in (("timed", "end_to_end"), ("traced", "per_layer")):
            result = by_pass[pass_name]
            assert result["correct"] is True
            assert result["reported"].get("failed_fraction", 0) == 0
            assert result["reported"].get("output_mismatch", 0) == 0
            assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
                entry["name"]: entry["unit"] for entry in benchmark[declared]
            }
        assert "harness.tracing_overhead" in by_pass["traced"]["reported"]


def test_traced_pass_writes_one_span_file_per_workload(smoke):
    for entry in smoke["benchmark"]["workloads"]:
        path = os.path.join(smoke["out"], "trace-{}.json".format(entry["name"]))
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["workload"] == entry["name"]
        assert document["columns"] == ["name", "start", "end", "parent", "iteration", "self_s"]
        roots = [span for span in document["spans"] if span[0] == "iteration"]
        assert roots and all(span[3] is None for span in roots)
        for name, start, end, parent, _iteration, self_s in document["spans"]:
            assert end >= start and self_s <= end - start + 1e-9
            assert parent is None or document["spans"][parent][1] <= start
