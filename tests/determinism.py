"""The determinism matrix: every byte-identity invariant of the CLI, one row each.

An answer this repository prints -- a GQS witness, a run verdict, a Monte Carlo
table, a recorded trace, a hunt corpus -- must come out as the same bytes for
every ``--jobs`` and every ``PYTHONHASHSEED``.  Each row below is one
``python -m repro`` command and the axes its output must not depend on:

* ``jobs``: the command runs once per worker count, with ``--jobs N`` appended;
* ``hashseed``: the command runs once per hash seed in :data:`HASH_SEEDS`
  (a row without this axis runs under the first one).

A row runs at every point of its axes (their cross product), each in a fresh
temporary directory.  Every point must exit 0 with a non-empty stdout; the
stdouts must be byte-equal, and so must the ``{out}`` trees a command writes
(``--record-traces {out}``, ``--corpus {out}``).  A row with a ``golden`` file
(relative to ``tests/golden``) must also print exactly that file.  A row with
``before`` first runs that command once; the directory it writes is the
``{in}`` the row reads.  ``{golden}`` names ``tests/golden`` for input files.

``python tests/determinism.py`` runs every row (no options).  The tier-1 suite
runs a sample of them (``tests/test_determinism.py``).  A fast path that must
not change an answer adds a row here.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")

#: The one pair of hash seeds every row compares (both non-zero: 0 switches
#: hash randomization off rather than choosing another order).
HASH_SEEDS = (1, 31337)
JOBS = {"jobs": (1, 2)}
HASHSEED = {"hashseed": HASH_SEEDS}
BOTH = dict(JOBS, **HASHSEED)


class Row(NamedTuple):
    name: str
    argv: Tuple[str, ...]
    axes: Dict[str, Tuple[int, ...]]
    golden: Optional[str] = None
    before: Optional[Tuple[str, ...]] = None


def _row(name, argv, axes, golden=None, before=None):
    return Row(name, tuple(argv.split()), axes, golden, tuple(before.split()) if before else None)


_RING_TRACES = "scenario run unidirectional-ring --runs 2 --seed 7 --jobs 2 --record-traces {out}"
_MC = "--seed 7 --samples 8 --probs 0.0 0.3"

ROWS = (
    # Monte Carlo shards: the table is the same for any worker count.
    _row("sweep", "sweep " + _MC, JOBS),
    _row("sweep-json", "sweep " + _MC + " --format json", {"jobs": (1, 2, 4)}),
    _row("sweep-golden", "sweep --seed 7 --samples 64 --format json", JOBS,
         golden="sweep_seed7.json"),
    _row("sweep-all-json", "sweep all --probs 0.0 0.3 --samples 16 --n 4 --patterns 2 --seed 5"
         " --format json", HASHSEED),
    # Simulated runs: verdict tables and recorded traces.
    _row("scenario-sweep", "scenario sweep --runs 2 --seed 7", JOBS),
    _row("scenario-sweep-json", "scenario sweep --runs 2 --seed 7 --format json", HASHSEED),
    _row("record-unidirectional-ring",
         "scenario run unidirectional-ring --runs 2 --seed 7 --record-traces {out}", HASHSEED),
) + tuple(
    _row("record-" + scenario,
         "scenario run {} --runs 2 --seed 7 --record-traces {{out}}".format(scenario), JOBS)
    for scenario in ("geo-replication", "partial-synchrony-stress")
) + tuple(
    # Relay elision (the first four) and island patterns decoded from masks
    # (the last two) must leave no trace in a recorded trace.
    _row("record-" + scenario,
         "scenario run {} --runs 2 --seed 7 --record-traces {{out}}".format(scenario), BOTH)
    for scenario in ("adversarial-partition", "heavy-contention-register", "lattice-fan-in",
                     "churn-at-gst", "zoned-threshold", "multi-region-blackout")
) + (
    _row("simulate-snapshot",
         "simulate --builtin figure1 --object snapshot --runs 3 --seed 7 --record-traces {out}",
         BOTH),
    # A sparse network: every send off the ring is dropped like a cut channel's.
    _row("simulate-sparse",
         "simulate --spec {golden}/sparse/ring-abcd.json --runs 3 --seed 7 --record-traces {out}",
         BOTH, golden="sparse/simulate-ring-abcd.out"),
    # Re-checking recorded traces.
    _row("check-traces", "check {in}", JOBS, before=_RING_TRACES),
    _row("check-traces-auto-json", "check {in} --checker auto --format json", HASHSEED,
         before=_RING_TRACES),
    _row("check-traces-wing-gong-json", "check {in} --checker wing-gong --format json",
         HASHSEED, before=_RING_TRACES),
    # Nemesis hunts: reports and the corpora they persist.
    _row("hunt-heavy-contention-register",
         "nemesis hunt heavy-contention-register --budget 8 --format json", JOBS),
    _row("hunt-adversarial-partition",
         "nemesis hunt adversarial-partition --budget 8 --seed 7 --corpus {out} --format json",
         JOBS),
    _row("hunt-unidirectional-ring",
         "nemesis hunt unidirectional-ring --budget 6 --seed 3 --jobs 2 --format json", HASHSEED),
    # GQS discovery, membership churn and repair: witnesses decoded from masks.
    _row("discover-multiregion-4x3", "quorums discover --builtin multiregion-4x3 --format json",
         HASHSEED),
    _row("discover-large-threshold-30x4x3",
         "quorums discover --builtin large-threshold-30x4x3 --format json", HASHSEED),
    _row("discover-large-threshold-60x3x4", "quorums discover --builtin large-threshold-60x3x4",
         HASHSEED),
    _row("discover-large-threshold-60x3x4-json",
         "quorums discover --builtin large-threshold-60x3x4 --format json", HASHSEED),
    _row("discover-large-threshold-168x8",
         "quorums discover --builtin large-threshold-168x8 --format json", HASHSEED),
    _row("watch-multiregion-4x3",
         "quorums watch --builtin multiregion-4x3 {golden}/deltas/multiregion-4x3-three.jsonl"
         " --format json", HASHSEED),
    _row("watch-multiregion-4x3-six",
         "quorums watch --builtin multiregion-4x3 {golden}/deltas/multiregion-4x3-six.jsonl"
         " --format json", HASHSEED),
    _row("watch-large-threshold-24x2",
         "quorums watch --builtin large-threshold-24x2 {golden}/cli/churn-deltas.jsonl"
         " --format json", HASHSEED, golden="cli/watch-churn-json.out"),
    _row("repair-figure1-modified",
         "quorums repair --builtin figure1-modified --max-channels 2 --format json", HASHSEED),
)
ROWS_BY_NAME = {row.name: row for row in ROWS}


def run(
    argv: Sequence[str], hashseed: int, cwd: Optional[str] = None
) -> subprocess.CompletedProcess:
    """``python *argv`` under ``PYTHONHASHSEED=hashseed``, with ``src`` and
    ``tests`` (for ``oracles``) on the path; stdout and stderr captured."""
    path = os.pathsep.join([SRC_DIR, TESTS_DIR, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable] + list(argv), cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _tree(root: str) -> List[Tuple[str, bytes]]:
    files = []
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files.append((os.path.relpath(path, root), handle.read()))
    return sorted(files)


def _first_difference(a: bytes, b: bytes) -> str:
    for number, (left, right) in enumerate(itertools.zip_longest(
            a.splitlines(), b.splitlines(), fillvalue=b"<missing>"), start=1):
        if left != right:
            return "line {}: {!r} != {!r}".format(number, left[:120], right[:120])
    return "in line endings"


def _points(axes: Dict[str, Tuple[int, ...]]):
    names = sorted(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


def verify(row: Row) -> bytes:
    """Run ``row`` at every point of its axes and return the stdout they share;
    raise :class:`AssertionError` naming the first point that breaks the row.
    (Raised explicitly, so ``python -O`` cannot switch the checks off.)"""
    with tempfile.TemporaryDirectory(prefix="determinism-") as scratch:
        fields = {"out": "out", "golden": GOLDEN_DIR, "in": os.path.join(scratch, "in")}
        if row.before:
            argv = [arg.format(out=fields["in"]) for arg in row.before]
            done = run(["-m", "repro"] + argv, HASH_SEEDS[0], scratch)
            if done.returncode:
                raise AssertionError("{}: before exited {}: {}".format(
                    row.name, done.returncode, done.stderr.decode(errors="replace")))
        argv = [arg.format(**fields) for arg in row.argv]
        first = None
        for number, point in enumerate(_points(row.axes)):
            label = ",".join("{}={}".format(name, value) for name, value in point.items())
            cwd = os.path.join(scratch, str(number))
            os.mkdir(cwd)
            jobs = ["--jobs", str(point["jobs"])] if "jobs" in point else []
            done = run(["-m", "repro"] + argv + jobs, point.get("hashseed", HASH_SEEDS[0]), cwd)
            where = "{} [{}]".format(row.name, label)
            if done.returncode:
                raise AssertionError("{} exited {}: {}".format(
                    where, done.returncode, done.stderr.decode(errors="replace")))
            if not done.stdout:
                raise AssertionError("{} printed nothing".format(where))
            tree = _tree(os.path.join(cwd, "out")) if "{out}" in row.argv else None
            if tree == []:
                raise AssertionError("{} wrote no files to {{out}}".format(where))
            if first is None:
                first = (label, done.stdout, tree)
            elif done.stdout != first[1]:
                raise AssertionError("{}: stdout differs from [{}], {}".format(
                    where, first[0], _first_difference(first[1], done.stdout)))
            elif tree != first[2]:
                raise AssertionError("{}: {{out}} differs from [{}] in {}".format(
                    where, first[0], sorted({name for name, _ in set(tree) ^ set(first[2])})))
    if row.golden:
        with open(os.path.join(GOLDEN_DIR, row.golden), "rb") as handle:
            golden = handle.read()
        if first[1] != golden:
            raise AssertionError("{}: stdout differs from {}, {}".format(
                row.name, row.golden, _first_difference(golden, first[1])))
    return first[1]


def main() -> int:
    failed = 0
    start = time.perf_counter()
    for row in ROWS:
        began = time.perf_counter()
        try:
            verify(row)
        except AssertionError as error:
            failed += 1
            print("FAIL  {}".format(error), flush=True)
        else:
            print("ok    {:<40} {:6.1f} s".format(row.name, time.perf_counter() - began),
                  flush=True)
    print("{} of {} rows hold ({:.0f} s)".format(
        len(ROWS) - failed, len(ROWS), time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
