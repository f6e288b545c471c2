"""Hash-seed independence of the GQS decision procedure (regression).

The seed implementation iterated ``set``-backed adjacency, so candidate order,
the chosen witness and ``nodes_explored`` all depended on ``PYTHONHASHSEED``.
These tests run library-level scripts in subprocesses under different hash
seeds and compare the complete observable output byte for byte; the CLI's
``quorums discover`` rows are in ``tests/determinism.py``.
"""

from __future__ import annotations

from determinism import run

#: Systems with channel failures (multiple SCC candidates per pattern), where
#: a hash-order-dependent traversal has the most room to reorder the search.
DISCOVERY_SCRIPT = r"""
import json

from repro.failures import (
    builtin_fail_prone_system,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
)
from repro.quorums import candidate_pairs, discover_gqs
from repro.types import sorted_processes

from oracles.discovery import discover_naive

systems = [
    builtin_fail_prone_system("figure1"),
    builtin_fail_prone_system("ring-6"),
    multi_region_system(regions=4, replicas_per_region=3),
    large_threshold_system(n=20, max_crashes=3, num_patterns=8, zones=4, catastrophic=True),
    random_fail_prone_system(n=6, num_patterns=5, disconnect_prob=0.4, seed=13),
]
report = []
for system in systems:
    entry = {"system": system.name}
    results = {
        "pruned": discover_gqs(system, validate=False),
        "naive": discover_naive(system, validate=False),
    }
    for algorithm, result in results.items():
        entry[algorithm] = {
            "exists": result.exists,
            "nodes_explored": result.nodes_explored,
            "witness": [
                {
                    "pattern": pattern.name,
                    "read": sorted_processes(choice.read_quorum),
                    "write": sorted_processes(choice.write_quorum),
                }
                for pattern, choice in result.choices.items()
            ],
        }
    entry["candidates"] = [
        [sorted_processes(c.write_quorum) for c in candidate_pairs(system, f)]
        for f in system.patterns
    ]
    report.append(entry)
print(json.dumps(report, sort_keys=True))
"""


def _stdout(script: str, hash_seed: int) -> bytes:
    done = run(["-c", script], hash_seed)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_discovery_output_is_hash_seed_independent():
    """Witnesses, candidate order and nodes_explored: byte-identical streams."""
    out_a = _stdout(DISCOVERY_SCRIPT, 0)
    out_b = _stdout(DISCOVERY_SCRIPT, 4242)
    assert out_a == out_b
    assert out_a  # the script actually produced a report


#: Ill-formed patterns and systems with several offending channels each: the
#: error must name the same one (the first in sorted order) under every hash
#: seed, not the first one a ``frozenset`` happens to yield.
ERROR_SCRIPT = r"""
from repro.errors import InvalidFailurePatternError
from repro.failures import FailProneSystem, FailurePattern

procs = ["p{}".format(i) for i in range(8)]
attempts = [
    lambda: FailurePattern([], [(p, p) for p in procs]),
    lambda: FailurePattern(["p0"], [(p, "p0") for p in procs[1:]]),
    lambda: FailProneSystem(
        procs,
        [FailurePattern([], [(p, q) for p in procs for q in procs if p != q])],
        channels=[("p0", "p1")],
    ),
]
for attempt in attempts:
    try:
        attempt()
    except InvalidFailurePatternError as error:
        print(error)
"""


def test_invalid_pattern_errors_are_hash_seed_independent():
    outputs = {_stdout(ERROR_SCRIPT, seed) for seed in range(4)}
    assert len(outputs) == 1
    lines = outputs.pop().decode().splitlines()
    assert lines[0] == "channel ('p0', 'p0') is a self-loop"
    assert lines[1].startswith("channel ('p1', 'p0') is incident to a crash-prone process")
    assert lines[2].endswith(
        "disconnects channel ('p0', 'p2') that does not exist in the network graph"
    )

