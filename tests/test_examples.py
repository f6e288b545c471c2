"""Every ``examples/*.py`` script runs and prints exactly what it printed before.

The golden files under ``tests/golden/examples/`` were captured at the commit
*before* the examples moved from the ``run_<object>_workload`` wrappers to
:func:`repro.experiments.run_workload`, so the migration (and any later edit of
the workload layer) cannot silently change what a reader of the examples sees.
Each script runs in a fresh interpreter from a scratch directory, under two
hash seeds: the output must not depend on ``PYTHONHASHSEED`` either.
"""

import glob
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES_DIR = os.path.join(os.path.dirname(SRC_DIR), "examples")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "examples")

EXAMPLES = sorted(
    os.path.splitext(os.path.basename(path))[0]
    for path in glob.glob(os.path.join(EXAMPLES_DIR, "*.py"))
)


def test_every_example_has_a_golden_file():
    assert EXAMPLES
    goldens = sorted(os.path.splitext(name)[0] for name in os.listdir(GOLDEN_DIR))
    assert goldens == EXAMPLES


@pytest.mark.parametrize("hash_seed", ["0", "31337"])
@pytest.mark.parametrize("example", EXAMPLES)
def test_example_stdout_is_byte_identical(example, hash_seed, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED=hash_seed)
    finished = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, example + ".py")],
        cwd=str(tmp_path), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert finished.returncode == 0, finished.stderr.decode("utf-8", "replace")
    with open(os.path.join(GOLDEN_DIR, example + ".txt"), "rb") as handle:
        assert finished.stdout == handle.read()
