"""Cold start: what a one-shot ``repro ...`` invocation pays before it works.

Three fresh interpreters are timed from the outside, median of seven each
(``PYTHONHASHSEED`` fixed): a bare ``import repro``, ``repro --version`` and
``repro quorums discover --builtin geo-4x3`` — whose decision takes under a
millisecond, so the rest is start-up.  The wall clocks (``*_wall_s``) feed the
conftest regression guard against ``BENCH_seed.json``; the module count after
a bare import is exact and asserted here.  ``benchmarks/e2e`` measures the
same path end to end as its ``cli-cold`` workload.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import repro

from conftest import bench_once

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROUNDS = 7
COUNT_MODULES = (
    "import repro, sys; "
    "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
)


def _fresh_interpreter(*arguments):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC_DIR)
    env.pop("REPRO_PLUGINS", None)
    return subprocess.run(
        [sys.executable] + list(arguments),
        stdout=subprocess.PIPE, universal_newlines=True, env=env, check=True, timeout=120,
    )


def _median_wall(*arguments):
    seconds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _fresh_interpreter(*arguments)
        seconds.append(time.perf_counter() - start)
    return round(statistics.median(seconds), 4)


def _measure():
    return {
        "import_repro_wall_s": _median_wall("-c", "import repro"),
        "version_wall_s": _median_wall("-m", "repro", "--version"),
        "discover_cli_wall_s": _median_wall(
            "-m", "repro", "quorums", "discover", "--builtin", "geo-4x3", "--format", "json"
        ),
        "repro_modules_after_import": int(_fresh_interpreter("-c", COUNT_MODULES).stdout),
    }


def test_cold_start_wall_clock(benchmark, bench_numbers):
    numbers = bench_once(benchmark, _measure)
    bench_numbers(**numbers)
    print()
    for name, value in sorted(numbers.items()):
        print("{:28} {}".format(name, value))
    assert numbers["repro_modules_after_import"] <= 6
