"""Cold start pays only for what it runs, and laziness changes nothing observable.

Every check runs in a fresh interpreter (``PYTHONHASHSEED`` fixed) because the
subject is *what gets imported when*: package exports resolve on first touch,
each registry imports its home modules on first look, and the CLI builds only
the parser of the command on ``argv``.  The registry contents and order are
pinned from the commit before the exports went lazy.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLUGIN_DIR = os.path.join(REPO_ROOT, "examples", "plugins")
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: ``names()`` of the six registries at the parent commit (eager imports).
BUILTIN_NAMES = {
    "PROTOCOLS": ["register", "snapshot", "lattice", "consensus", "paxos"],
    "TOPOLOGIES": [
        "figure1", "figure1-modified", "ring", "geo", "minority", "adversarial-partition",
        "random", "large-threshold", "multi-region",
    ],
    "DELAY_MODELS": ["fixed", "uniform", "partial-synchrony", "schedule-override"],
    "CHECKERS": ["auto", "wing-gong"],
    "SCENARIOS": [
        "geo-replication", "unidirectional-ring", "adversarial-partition", "churn-at-gst",
        "partial-synchrony-stress", "heavy-contention-register", "lattice-fan-in",
        "zoned-threshold", "multi-region-blackout", "paxos-baseline",
    ],
    "NEMESIS": ["random", "hill-climb", "coverage-guided"],
}
#: What ``examples/plugins/demo_plugin`` appends, per registry.
DEMO_PLUGIN_NAMES = {
    "PROTOCOLS": ["chatty-register"],
    "TOPOLOGIES": ["relay-triangle"],
    "DELAY_MODELS": ["relay-jitter"],
    "SCENARIOS": ["relay-audit"],
}
COMMANDS = ("check", "quorums", "simulate", "sweep", "scenario", "nemesis", "plugins", "examples")

#: Runs ``python -m repro ARGV`` in-process and reports what it left in ``sys.modules``.
RUN_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["repro"] + json.loads(sys.argv[1])
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
print("MODULES " + json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _python(arguments, extra_path=()):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_PLUGINS", None)
    paths = [SRC_DIR, PLUGIN_DIR] + list(extra_path)
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable] + arguments, capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )


def _modules_after(argv):
    result = _python(["-c", RUN_AND_LIST_MODULES, json.dumps(argv)])
    assert result.returncode == 0, result.stderr
    listing = [line for line in result.stderr.splitlines() if line.startswith("MODULES ")]
    return set(json.loads(listing[-1][len("MODULES "):]))


def _loaded(modules, *packages):
    """The ``repro.<package>`` modules (and their submodules) among ``modules``."""
    prefixes = tuple("repro." + package for package in packages)
    return sorted(
        name for name in modules
        if name in prefixes or name.startswith(tuple(prefix + "." for prefix in prefixes))
    )


# ---------------------------------------------------------------------- #
# (a), (b): what each entry point imports
# ---------------------------------------------------------------------- #
def test_bare_import_loads_next_to_nothing():
    result = _python(["-c", "import repro, sys, json; print(json.dumps(sorted(sys.modules)))"])
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    ours = [name for name in modules if name == "repro" or name.startswith("repro.")]
    assert len(ours) <= 6, ours
    assert "multiprocessing" not in modules and "argparse" not in modules


def test_version_imports_no_layer():
    modules = _modules_after(["--version"])
    assert not _loaded(
        modules, "sim", "protocols", "checkers", "scenarios", "nemesis", "montecarlo",
        "traces", "analysis.examples",
    )


def test_discover_imports_only_the_decision_layer():
    modules = _modules_after(["quorums", "discover", "--builtin", "geo-4x3"])
    assert not _loaded(
        modules, "sim", "protocols", "checkers", "scenarios", "nemesis", "montecarlo", "traces"
    )
    assert "multiprocessing" not in modules


def test_scenario_run_skips_the_layers_it_does_not_run():
    modules = _modules_after(["scenario", "run", "multi-region-blackout", "--runs", "1"])
    assert not _loaded(
        modules, "nemesis", "montecarlo", "analysis.examples", "experiments.tightness"
    )
    assert "multiprocessing" not in modules  # --jobs 1 never builds a pool


# ---------------------------------------------------------------------- #
# (c): registries populate themselves, in the pinned order
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("with_plugin", [False, True], ids=["builtins", "plugin-first"])
@pytest.mark.parametrize("first", sorted(BUILTIN_NAMES))
def test_registry_order_is_independent_of_what_is_observed_first(first, with_plugin):
    code = (
        "import json, sys\n"
        "from repro import registry\n"
        + ("registry.load_plugin('demo_plugin')\n" if with_plugin else "")
        + "first = getattr(registry, sys.argv[1]).names()\n"
        "names = {name: getattr(registry, name).names() for name in json.loads(sys.argv[2])}\n"
        "assert names[sys.argv[1]] == first\n"
        "print(json.dumps(names))\n"
    )
    result = _python(["-c", code, first, json.dumps(sorted(BUILTIN_NAMES))])
    assert result.returncode == 0, result.stderr
    expected = {
        name: builtin + (DEMO_PLUGIN_NAMES.get(name, []) if with_plugin else [])
        for name, builtin in BUILTIN_NAMES.items()
    }
    assert json.loads(result.stdout) == expected


def test_registration_before_any_observation_lands_after_the_builtins():
    """``register_*`` as the very first thing a process does: no ``load_plugin``,
    no layer imported, nothing looked at yet."""
    code = (
        "from repro.registry import DELAY_MODELS, register_delay_model\n"
        "register_delay_model('early-bird', builder=lambda seed: None)\n"
        "print(','.join(DELAY_MODELS.names()))\n"
    )
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split(",") == BUILTIN_NAMES["DELAY_MODELS"] + ["early-bird"]


def test_builtins_imported_by_a_plugin_are_not_attributed_to_it():
    code = (
        "from repro.registry import TOPOLOGIES, load_plugin\n"
        "print(','.join(d.name for d in load_plugin('demo_plugin')))\n"
        "print(','.join(sorted({d.origin for d in TOPOLOGIES.descriptors()})))\n"
    )
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr
    contributed, origins = result.stdout.split()
    assert contributed == "chatty-register,relay-triangle,relay-jitter,relay-audit"
    assert origins == "builtin,demo_plugin"


# ---------------------------------------------------------------------- #
# (d): the package surface behaves as if it were imported eagerly
# ---------------------------------------------------------------------- #
def test_lazy_packages_keep_their_surface():
    code = """
import inspect
import repro
import repro.quorums

namespace = {}
exec("from repro import *", namespace)
assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)
assert set(repro.__all__) <= set(dir(repro))
assert "examples" in dir(repro.analysis) and "run_all_examples" in dir(repro.analysis)
assert repro.analysis.metrics.ResultTable is repro.analysis.ResultTable
try:
    repro.nosuch
except AttributeError as error:
    assert "module 'repro' has no attribute 'nosuch'" in str(error), error
else:
    raise AssertionError("repro.nosuch resolved")
assert hasattr(repro.quorums, "gqs_exists_bruteforce") is False
assert repro.api.HuntReport is repro.nemesis.HuntReport and "HuntReport" in repro.api.__all__
defaults = {name: p.default for name, p in inspect.signature(repro.api.hunt).parameters.items()}
assert (defaults["budget"], defaults["seeds"], defaults["batch"]) == (
    repro.nemesis.DEFAULT_BUDGET, repro.nemesis.DEFAULT_SEED_SCHEDULES, repro.nemesis.DEFAULT_BATCH
)
print("SURFACE-OK")
"""
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert "SURFACE-OK" in result.stdout


def test_api_reexports_are_the_layer_functions_and_stay_lazy():
    """``import repro.api`` pays for no layer; the first touch of a re-exported
    workflow imports exactly its home package and hands back the same object."""
    code = """
import sys
import repro.api as api

LAYERS = ("repro.nemesis", "repro.scenarios", "repro.traces", "repro.analysis.examples", "repro.sim")
assert not [name for name in LAYERS if name in sys.modules], sorted(sys.modules)
assert api.check_traces is sys.modules["repro.traces"].check_traces
assert "repro.nemesis" not in sys.modules and "repro.scenarios" not in sys.modules
assert api.run_scenario is sys.modules["repro.scenarios"].run_scenario
assert api.sweep_scenarios is sys.modules["repro.scenarios"].sweep_scenarios
assert "repro.nemesis" not in sys.modules
assert api.run_examples is sys.modules["repro.analysis"].run_all_examples
assert api.hunt is sys.modules["repro.nemesis"].hunt_scenario
assert api.replay_schedule is sys.modules["repro.nemesis"].replay_schedule_file
assert api.nemesis_corpus is sys.modules["repro.nemesis"].corpus_rows
assert api.nemesis_corpus_table is sys.modules["repro.nemesis"].corpus_table
namespace = {}
exec("from repro.api import *", namespace)
assert set(api.__all__) <= set(namespace) and set(api.__all__) <= set(dir(api))
print("REEXPORTS-OK")
"""
    result = _python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert "REEXPORTS-OK" in result.stdout


def test_spawn_workers_resolve_names_from_a_cold_registry(tmp_path):
    """A spawn-started worker imports nothing but the task's module: the system
    crosses by pickle and the registries must fill themselves in on first look."""
    script = """
import multiprocessing


def probe(system):
    from repro.registry import PROTOCOLS, SCENARIOS
    return (system.name, len(system.patterns), PROTOCOLS.get("register").name,
            SCENARIOS.get("multi-region-blackout").extras["spec"].protocol.kind)


if __name__ == "__main__":
    from repro.engine import ParallelRunner
    from repro.failures import builtin_fail_prone_system
    system = builtin_fail_prone_system("geo-4x3")
    runner = ParallelRunner(jobs=2, mp_context=multiprocessing.get_context("spawn"))
    results = runner.map(probe, [system, system])
    assert runner.last_mode == "parallel", runner.last_mode
    assert results == [(system.name, len(system.patterns), "register", "register")] * 2, results
    print("SPAWN-OK")
"""
    path = tmp_path / "script.py"
    path.write_text(script)
    result = _python([str(path)])
    assert result.returncode == 0, result.stderr
    assert "SPAWN-OK" in result.stdout


# ---------------------------------------------------------------------- #
# (e): per-command parsers still know everything --help must show
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_exits_zero(command):
    result = _python(["-m", "repro"] + ([command] if command else []) + ["--help"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: repro" + (" " + command if command else ""))
    if command is None:
        assert "{" + ",".join(COMMANDS) + "}" in result.stdout


def test_help_lists_plugin_registered_choices(tmp_path):
    (tmp_path / "cold_start_plugin.py").write_text(
        "from repro.registry import register_checker, register_nemesis_strategy\n"
        "register_checker('always-safe', judge=lambda trace: {'safe': True})\n"
        "register_nemesis_strategy('do-nothing', builder=lambda: None)\n"
    )
    plugins = ["--plugin", "demo_plugin", "--plugin", "cold_start_plugin"]
    for arguments, choice in (
        (["simulate", "--help"], "chatty-register"),
        (["check", "--help"], "always-safe"),
        (["nemesis", "hunt", "--help"], "do-nothing"),
    ):
        result = _python(["-m", "repro"] + plugins + arguments, extra_path=[str(tmp_path)])
        assert result.returncode == 0, result.stderr
        assert choice in result.stdout, (arguments, result.stdout)
