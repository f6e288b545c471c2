"""Command-line interface: ``repro <command> ...`` (or ``python -m repro``).

The CLI is a thin argparse shell over the typed facade :mod:`repro.api`:
every command forwards what was typed to one facade function, emits the
returned result — which renders itself, ``to_text()`` or ``to_json()`` — and
picks the exit status.  Subcommand choices, the scenario catalogue and
the plugin tables are generated from the extension registries
(:mod:`repro.registry`), so plugin-registered protocols, topologies, delay
models, checkers and scenarios are first-class citizens of every command.

Eight commands cover the workflows a practitioner needs:

``quorums``
    The quorum-decision toolbox: ``discover`` runs the GQS decision procedure
    (Theorem 2) and prints the per-pattern witness, candidate counts and
    search statistics; ``classify`` reports which quorum conditions
    (classical / QS+ / generalized) the system admits; ``repair`` searches
    for minimal channel hardenings that make an intolerable system tolerable.
    All three accept ``--format table|json``; the JSON output is canonical
    (sorted keys, deterministically sorted quorums) and byte-identical across
    ``PYTHONHASHSEED`` values — CI diffs it across two interpreter runs.

``check``
    Two modes.  Without a positional argument: decide whether a fail-prone
    system (from a JSON file or a built-in example) admits a generalized
    quorum system; print the witness or report impossibility (exit 0 when a
    GQS exists, 2 when none does).  With a trace directory
    (``repro check DIR``): re-verify every recorded trace
    (:mod:`repro.traces`) with the chosen ``--checker`` over ``--jobs``
    workers — the verdict table is byte-identical for every job count.  Exit
    0 iff every re-checked verdict matches the recorded inline one.  An
    option that only the other mode reads is a usage error.

``simulate``
    Run a registered protocol (register, snapshot, lattice agreement,
    consensus, the classical Paxos baseline, or any plugin protocol) on the
    simulated network under a chosen failure pattern and print metrics plus
    the safety-check verdict.

``sweep``
    Run the Monte Carlo studies (admissibility of quorum conditions,
    availability of the Figure 1 quorums) and print the result tables.
    ``--jobs N`` shards the sample budgets across worker processes via
    :mod:`repro.engine`; a sweep's output depends only on ``--seed``, never
    on the job count.

``scenario``
    The declarative scenario catalogue (:mod:`repro.scenarios`): ``list`` the
    registry, ``show`` a spec as JSON, ``run`` one scenario's seeded batch, or
    ``sweep`` many scenarios over one worker pool — all with table or JSON
    output, and all jobs-independent like ``sweep``.

``nemesis``
    The guided nemesis (:mod:`repro.nemesis`): ``hunt`` searches a
    scenario's schedule space — failure-pattern choice, injection timing,
    per-channel delays — for the adversary's best case with a registered
    search strategy (``random``, ``hill-climb``, ``coverage-guided`` or a
    plugin), persisting survivors as ordinary traces plus schedule files and
    incident reports; ``replay`` re-evaluates one persisted schedule from
    scratch and diffs it against its incident record; ``corpus`` summarises
    a hunt's incident reports.  Hunts are byte-identical for every ``--jobs``
    count and hash seed.

``plugins``
    Inspect the plugin loader: ``list`` the modules loaded via ``--plugin``
    or ``REPRO_PLUGINS`` and the extensions each registered.

``examples``
    Replay the paper's worked examples (Examples 4-9) and report which hold.

Built-in fail-prone systems come from the topology registry's ``--builtin``
matchers: ``figure1``, ``figure1-modified``, ``ring-<n>`` (e.g. ``ring-5``),
``geo-<sites>x<replicas>`` (e.g. ``geo-3x2``), ``minority-<n>`` (crash-only
threshold), ``adversarial-<n>`` (one-way splits),
``large-threshold-<n>x<k>[x<zones>]`` (rotating crash windows, optionally
zoned with a catastrophic blackout) and ``multiregion-<regions>x<replicas>``
(WAN-epoch islands plus a blackout) — plus any plugin-registered forms.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional, Tuple

from . import __version__
from .errors import NoQuorumSystemExistsError, ReproError


def _jobs_value(text: str) -> int:
    """argparse type for ``--jobs``: non-negative int, 0 meaning one per CPU."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got {!r}".format(text))
    if value < 0:
        raise argparse.ArgumentTypeError("jobs must be non-negative (0 means one per CPU)")
    return value


def _at_least_one(what: str):
    """argparse type for ``--runs`` and the other counts: a positive int.

    Rejecting 0 matters: a zero-run batch (a zero-operation ``simulate``, a
    zero-sample ``sweep``) would report ``0/0`` liveness and safety, or all-zero
    fractions, and exit 0 — a vacuously green result.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got {!r}".format(text))
        if value < 1:
            raise argparse.ArgumentTypeError("{} must be at least 1".format(what))
        return value

    return parse


_runs_value = _at_least_one("runs")


def _probability_value(text: str) -> float:
    """argparse type for ``--probs``: a finite float in ``[0, 1]``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got {!r}".format(text))
    if not 0.0 <= value <= 1.0:  # nan fails both comparisons
        raise argparse.ArgumentTypeError("a probability must lie in [0, 1]")
    return value


def _forward(function, args: argparse.Namespace, *leading):
    """``function(*leading, **typed)``: what the user typed, under the ``api`` names.

    Every option's ``dest`` is the ``api`` parameter it sets, and argparse
    leaves an option nobody typed at ``None``: so a default is declared once,
    in the ``api`` (or layer) signature, and no command restates it.
    """
    import inspect  # ``repro.api`` has imported it by now; ``repro --version`` never does

    accepted = inspect.signature(function).parameters
    typed = {k: v for k, v in vars(args).items() if v is not None and k in accepted}
    return function(*leading, **typed)


#: The options several commands share, each declared once; ``--progress``
#: takes the callback the ``api`` receives as its ``const``.
_SHARED_OPTIONS = {
    "--runs": dict(
        type=_runs_value,
        help="seeded repetitions, their seeds spawned deterministically from --seed "
        "(scenario commands default to each scenario's default_runs)",
    ),
    "--seed": dict(type=int, help="root seed: fixes every result, for every --jobs"),
    "--jobs": dict(
        type=_jobs_value,
        help="worker processes sharing the work (1 = serial, 0 = one per CPU); "
        "the output is byte-identical for every value",
    ),
    "--record-traces": dict(
        metavar="DIR",
        help="persist every run's trace (history + system + verdict) into DIR "
        "for later 'repro check DIR' re-verification",
    ),
    "--progress": dict(
        action="store_const",
        help="report progress (per shard, pattern, run, trace or batch) on stderr",
    ),
}


def _add_option(parser, owner, flag: str, help: Optional[str] = None, **kwargs) -> None:
    """Add ``flag`` (a :data:`_SHARED_OPTIONS` entry, or one with its own
    ``help``): it sets the parameter of ``owner``, an ``api`` function, that
    its ``dest`` names.

    The default stays in that signature — the help string quotes it, and
    :func:`_forward` passes the option on only when it was typed.  A ``dest``
    that ``owner`` does not take is a ``KeyError`` here, when the parser is
    built, instead of an option :func:`_forward` would silently drop.
    """
    import inspect

    kwargs = {**_SHARED_OPTIONS.get(flag, {}), **kwargs}
    help = kwargs.pop("help", help)
    dest = kwargs.get("dest") or flag.lstrip("-").replace("-", "_")
    default = inspect.signature(owner).parameters[dest].default
    if default is not None:
        help = "{} (default: {})".format(help, default)
    parser.add_argument(flag, help=help, **kwargs)


def _add_format(parser: argparse.ArgumentParser, *formats: str) -> None:
    """``--format``, the first of ``formats`` by default: the one default the CLI owns."""
    formats = formats or ("table", "json")
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    from . import api

    group = parser.add_mutually_exclusive_group()
    option = functools.partial(_add_option, group, api.resolve_system)
    option("--spec", "path to a JSON fail-prone system description")
    option("--builtin", "name of a built-in fail-prone system")


def _progress_to_stderr(label: str, unit: str = "shards"):
    """A ``ProgressCallback`` writing ``label: done/total unit`` lines to stderr."""
    return functools.partial(_stderr_progress, label, unit=unit)


def _stderr_progress(label: str, done: int, total: int, unit: str = "shards") -> None:
    """Chunked progress line for long sweeps (stderr, overwritten in place)."""
    sys.stderr.write("\r{}: {}/{} {}".format(label, done, total, unit))
    if done >= total:
        sys.stderr.write("\n")
    sys.stderr.flush()


def _emit(args: argparse.Namespace, result, status: int) -> int:
    """Print ``result``, a type that renders itself, as ``--format`` asks; hand ``status`` on."""
    print(result.to_json() if args.format == "json" else result.to_text())
    return status


# ---------------------------------------------------------------------- #
# check
# ---------------------------------------------------------------------- #
def _reject_other_mode_options(args: argparse.Namespace) -> None:
    """``repro check`` has two modes; an option only the other one reads is a usage error."""
    if args.target is None:
        mode = "applies only to 'repro check DIR' (re-verifying a trace directory)"
        typed = {"--checker": args.checker, "--jobs": args.jobs, "--progress": args.progress,
                 "--format " + args.format: args.format != "table"}
    else:
        mode = "does not apply to 'repro check DIR': it belongs to the GQS decision (no DIR)"
        typed = {"--spec": args.spec, "--builtin": args.builtin,
                 "--suggest-repairs": args.suggest_repairs,
                 "--max-repair-channels": args.max_channels}
    for flag, value in typed.items():
        if value is not None and value is not False:
            args.usage_error("{} {}".format(flag, mode))


def cmd_check(args: argparse.Namespace) -> int:
    from . import api

    _reject_other_mode_options(args)
    if args.target is not None:
        report = _forward(api.check_traces, args, args.target)
        return _emit(args, report, 0 if report.ok else 1)
    system = _forward(api.resolve_system, args)
    report = api.CheckReport(system, api.discover(system))
    if args.suggest_repairs and not report.exists:
        report.repair = _forward(api.repair, args, system)
    return _emit(args, report, 0 if report.exists else 2)


# ---------------------------------------------------------------------- #
# quorums
# ---------------------------------------------------------------------- #
def cmd_quorums_discover(args: argparse.Namespace) -> int:
    from . import api

    report = _forward(api.discovery_report, args, _forward(api.resolve_system, args))
    return _emit(args, report, 0 if report.exists else 2)


def cmd_quorums_watch(args: argparse.Namespace) -> int:
    from . import api

    report = _forward(api.watch_quorums, args, _forward(api.resolve_system, args))
    return _emit(args, report, 0 if report.all_exist else 2)


def cmd_quorums_classify(args: argparse.Namespace) -> int:
    from . import api

    return _emit(args, api.classify(_forward(api.resolve_system, args)), 0)


def cmd_quorums_repair(args: argparse.Namespace) -> int:
    from . import api

    outcome = _forward(api.repair, args, _forward(api.resolve_system, args))
    return _emit(args, outcome, 0 if outcome.report.repairable else 2)


# ---------------------------------------------------------------------- #
# simulate
# ---------------------------------------------------------------------- #
def cmd_simulate(args: argparse.Namespace) -> int:
    from . import api

    try:
        report = _forward(api.simulate, args, _forward(api.resolve_system, args))
    except NoQuorumSystemExistsError:
        print("The fail-prone system admits no generalized quorum system; nothing to simulate.")
        return 2
    return _emit(args, report, 0 if report.exit_ok else 1)


# ---------------------------------------------------------------------- #
# sweep
# ---------------------------------------------------------------------- #
def cmd_sweep(args: argparse.Namespace) -> int:
    from . import api

    return _emit(args, _forward(api.sweep, args), 0)


# ---------------------------------------------------------------------- #
# scenario
# ---------------------------------------------------------------------- #
def cmd_scenario_list(args: argparse.Namespace) -> int:
    from . import egress, scenarios

    if args.format == "json":
        specs = [scenarios.get_scenario(n).to_dict() for n in scenarios.scenario_names()]
        print(egress.indented_in_order(specs))
    elif args.format == "markdown":
        print(scenarios.catalogue_markdown())
    else:
        print(scenarios.catalogue_table().to_text())
    return 0


def cmd_scenario_show(args: argparse.Namespace) -> int:
    from . import scenarios

    return _emit(args, scenarios.get_scenario(args.name), 0)


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from . import api

    if args.progress is not None:  # its label names the scenario, known only now
        args.progress = args.progress("scenario " + args.scenario)
    result = _forward(api.run_scenario, args)
    return _emit(args, result, 0 if result.ok else 1)


def cmd_scenario_sweep(args: argparse.Namespace) -> int:
    from . import api, egress, scenarios

    results = _forward(api.sweep_scenarios, args, args.names or None)
    if args.format == "json":
        print(egress.indented_in_order([r.to_dict() for r in results]))
    else:
        print(scenarios.sweep_table(results).to_text())
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------- #
# nemesis
# ---------------------------------------------------------------------- #
def cmd_nemesis_hunt(args: argparse.Namespace) -> int:
    from . import api

    report = _forward(api.hunt, args)
    # A within-budget safety violation is the only failing outcome: the
    # adversary stayed inside the declared fail-prone system and still broke
    # safety, which falsifies the paper's bound.
    return _emit(args, report, 1 if report.found_violation else 0)


def cmd_nemesis_replay(args: argparse.Namespace) -> int:
    from . import api, egress
    from .analysis.metrics import field_lines

    outcome = api.replay_schedule(args.schedule)
    if args.format == "json":
        print(egress.indented(outcome))
    else:
        row = outcome["row"]
        if outcome["recorded"] is None:
            incident = ("incident", "none on disk (nothing to compare)")
        else:
            incident = ("matches incident", outcome["match"])
        print("\n".join(field_lines(
            18,
            ("schedule", outcome["schedule"]),
            ("scenario", outcome["scenario"]),
            ("lineage", " | ".join(outcome["lineage"]) or "(identity)"),
            ("completed", row["completed"]),
            ("safe", row["safe"]),
            ("explored states", row["explored_states"]),
            ("score", outcome["fitness"]["score"]),
            ("within budget", outcome["within_budget"]),
            incident,
        )))
    # Only a demonstrated divergence from the recorded incident fails the
    # replay; a schedule without a sibling incident has nothing to diff.
    return 1 if outcome["match"] is False else 0


def cmd_nemesis_corpus(args: argparse.Namespace) -> int:
    from . import api, egress

    rows = api.nemesis_corpus(args.directory)
    if args.format == "json":
        print(egress.indented(rows))
    else:
        print(api.nemesis_corpus_table(args.directory, rows).to_text())
    violations = sum(1 for row in rows if "violation" in row["flags"].split(","))
    return 1 if violations else 0


# ---------------------------------------------------------------------- #
# plugins
# ---------------------------------------------------------------------- #
def cmd_plugins_list(args: argparse.Namespace) -> int:
    from . import api, egress
    from .registry import loaded_plugins, plugin_contributions

    if args.format == "json":
        payload = [
            {
                "module": module,
                "contributions": [
                    {"kind": descriptor.kind, "name": descriptor.name}
                    for descriptor in plugin_contributions(module)
                ],
            }
            for module in loaded_plugins()
        ]
        print(egress.indented_in_order(payload))
    elif not loaded_plugins():
        print("no plugins loaded (use --plugin MODULE or REPRO_PLUGINS=mod1,mod2)")
    else:
        print(api.plugin_table().to_text())
    return 0


# ---------------------------------------------------------------------- #
# examples
# ---------------------------------------------------------------------- #
def cmd_examples(args: argparse.Namespace) -> int:
    from . import api

    outcomes = api.run_examples()
    for outcome in outcomes:
        status = "ok " if outcome.holds else "FAIL"
        print("[{}] {:30} {}".format(status, outcome.example, outcome.claim))
    return 0 if all(outcome.holds for outcome in outcomes) else 1


# ---------------------------------------------------------------------- #
# Parsers (one builder per command) and the entry point
# ---------------------------------------------------------------------- #
def _add_check_arguments(check: argparse.ArgumentParser) -> None:
    from . import api
    from .registry import CHECKERS

    check.add_argument(
        "target",
        nargs="?",
        help="trace directory to re-verify, with --checker / --jobs / --progress "
        "(omit for the GQS decision procedure on --spec / --builtin)",
    )
    _add_system_arguments(check)
    check.add_argument(
        "--suggest-repairs",
        action="store_true",
        help="when no GQS exists, search for channel hardenings that would restore one",
    )
    _add_option(
        check,
        api.repair,
        "--max-repair-channels",
        "largest channel set considered by --suggest-repairs (at least 1)",
        dest="max_channels",
        type=_at_least_one("max-repair-channels"),
    )
    option = functools.partial(_add_option, check, api.check_traces)
    option(
        "--checker",
        "which linearizability checker re-judges register traces "
        "(auto = dependency-graph witness with complete-search fallback)",
        choices=list(CHECKERS),
    )
    option("--jobs")
    option("--progress", const=_progress_to_stderr("check"))
    _add_format(check)
    check.set_defaults(func=cmd_check, usage_error=check.error)


def _add_quorums_arguments(quorums: argparse.ArgumentParser) -> None:
    from . import api

    quorums_sub = quorums.add_subparsers(dest="quorums_command", required=True)

    quorums_discover = quorums_sub.add_parser(
        "discover",
        help="run the GQS decision procedure and print the per-pattern witness",
    )
    _add_system_arguments(quorums_discover)
    reporter = _progress_to_stderr("discover", "patterns")
    _add_option(quorums_discover, api.discovery_report, "--progress", const=reporter)
    _add_format(quorums_discover)
    quorums_discover.set_defaults(func=cmd_quorums_discover)

    quorums_watch = quorums_sub.add_parser(
        "watch",
        help="recertify GQS existence after each membership delta in a JSONL stream",
    )
    _add_system_arguments(quorums_watch)
    quorums_watch.add_argument(
        "deltas",
        help="path to a JSONL membership-delta stream "
        '(one {"op": ..., ...} object per line; ops: join, leave, suspect, '
        "trust, suspect-channel, trust-channel)",
    )
    _add_format(quorums_watch)
    quorums_watch.set_defaults(func=cmd_quorums_watch)

    quorums_classify = quorums_sub.add_parser(
        "classify",
        help="report which quorum conditions (classical/QS+/GQS) the system admits",
    )
    _add_system_arguments(quorums_classify)
    _add_format(quorums_classify)
    quorums_classify.set_defaults(func=cmd_quorums_classify)

    quorums_repair = quorums_sub.add_parser(
        "repair",
        help="search for minimal channel hardenings that make the system tolerable",
    )
    _add_system_arguments(quorums_repair)
    option = functools.partial(_add_option, quorums_repair, api.repair)
    option(
        "--max-channels",
        "largest channel set considered (at least 1)",
        type=_at_least_one("max-channels"),
    )
    option(
        "--max-suggestions",
        "stop after this many suggestions (at least 1; default: all minimal ones)",
        type=_at_least_one("max-suggestions"),
    )
    _add_format(quorums_repair)
    quorums_repair.set_defaults(func=cmd_quorums_repair)


def _add_simulate_arguments(simulate: argparse.ArgumentParser) -> None:
    from . import api
    from .registry import PROTOCOLS

    _add_system_arguments(simulate)
    option = functools.partial(_add_option, simulate, api.simulate)
    option(
        "--object",
        "which registered protocol to drive (plugins extend this list)",
        dest="protocol",
        choices=list(PROTOCOLS),
    )
    option("--pattern", "name of the failure pattern to inject (default: none)")
    option("--ops", "operations per invoking process", type=_runs_value)
    for shared in ("--seed", "--runs", "--jobs", "--record-traces"):
        option(shared)
    simulate.set_defaults(func=cmd_simulate, format="table")  # no --format: text only


def _add_sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    from . import api

    sweep.add_argument("kind", choices=["admissibility", "reliability", "all"], nargs="?")
    option = functools.partial(_add_option, sweep, api.sweep)
    option(
        "--probs",
        "channel-disconnection probabilities to sweep, each in [0, 1]",
        type=_probability_value,
        nargs="+",
    )
    option("--samples", "samples per probability (at least 1)", type=_at_least_one("samples"))
    option("--n", "processes per sampled system (at least 1)", type=_at_least_one("n"))
    option(
        "--patterns",
        "failure patterns per sampled system (at least 1)",
        type=_at_least_one("patterns"),
    )
    option("--seed")
    option("--jobs")
    # One callback per study: the api asks this factory for each label's.
    option("--progress", dest="progress_factory", const=_progress_to_stderr)
    _add_format(sweep)
    sweep.set_defaults(func=cmd_sweep)


def _add_scenario_arguments(scenario: argparse.ArgumentParser) -> None:
    from . import api

    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser(
        "list",
        help="list the registered scenarios "
        "(--format markdown is the docs/scenarios.md catalogue table)",
    )
    _add_format(scenario_list, "table", "json", "markdown")
    scenario_list.set_defaults(func=cmd_scenario_list)

    scenario_show = scenario_sub.add_parser(
        "show", help="print one scenario's full declarative specification"
    )
    scenario_show.add_argument("name", help="registered scenario name")
    _add_format(scenario_show, "text", "json")
    scenario_show.set_defaults(func=cmd_scenario_show)

    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario's seeded batch through the engine"
    )
    scenario_run.add_argument("scenario", metavar="name", help="registered scenario name")
    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="run several scenarios (default: all) over one worker pool"
    )
    scenario_sweep.add_argument(
        "names", nargs="*", help="scenario names (default: the whole registry)"
    )
    # run's progress label names the scenario: cmd_scenario_run asks the factory for it.
    for parser, owner, reporter in (
        (scenario_run, api.run_scenario, _progress_to_stderr),
        (scenario_sweep, api.sweep_scenarios, _progress_to_stderr("scenarios")),
    ):
        for shared in ("--runs", "--seed", "--jobs", "--record-traces"):
            _add_option(parser, owner, shared)
        _add_option(parser, owner, "--progress", const=reporter)
        _add_format(parser)
    scenario_run.set_defaults(func=cmd_scenario_run)
    scenario_sweep.set_defaults(func=cmd_scenario_sweep)


def _add_nemesis_arguments(nemesis: argparse.ArgumentParser) -> None:
    from . import api
    from .registry import NEMESIS

    nemesis_sub = nemesis.add_subparsers(dest="nemesis_command", required=True)

    nemesis_hunt = nemesis_sub.add_parser(
        "hunt",
        help="search a scenario's schedule space for badness "
        "(exit 1 only on a within-budget safety violation)",
    )
    nemesis_hunt.add_argument("scenario", help="registered scenario name")
    option = functools.partial(_add_option, nemesis_hunt, api.hunt)
    option(
        "--strategy",
        "registered search strategy (plugins extend this list)",
        choices=list(NEMESIS),
    )
    option("--budget", "mutant evaluations to spend; seed baselines come on top", type=_runs_value)
    option(
        "--seeds",
        "identity schedules seeding the corpus; each replays one run of "
        "'repro scenario run --seed SEED'",
        type=_runs_value,
    )
    option(
        "--batch",
        "candidates per generation; fixed independently of --jobs so the search "
        "trajectory never depends on the worker count",
        type=_runs_value,
    )
    option("--seed")
    option("--jobs")
    option(
        "--corpus",
        "persist survivors into DIR as traces + schedules + incident reports "
        "plus a report.json; the directory re-verifies with 'repro check DIR'",
        dest="corpus_dir",
        metavar="DIR",
    )
    option(
        "--from-traces",
        "seed the hunt from the runs recorded in an existing trace directory "
        "instead of the scenario's own seed stream",
        metavar="DIR",
    )
    option("--progress", const=_progress_to_stderr("hunt"))
    _add_format(nemesis_hunt)
    nemesis_hunt.set_defaults(func=cmd_nemesis_hunt)

    nemesis_replay = nemesis_sub.add_parser(
        "replay",
        help="re-evaluate one persisted *.schedule.json from scratch and diff it "
        "against its sibling incident report (exit 1 on divergence)",
    )
    nemesis_replay.add_argument("schedule", help="path to a *.schedule.json file")
    _add_format(nemesis_replay, "text", "json")
    nemesis_replay.set_defaults(func=cmd_nemesis_replay)

    nemesis_corpus = nemesis_sub.add_parser(
        "corpus",
        help="summarise a hunt corpus directory's incident reports "
        "(exit 1 if any records a within-budget violation)",
    )
    nemesis_corpus.add_argument("directory", help="hunt corpus directory")
    _add_format(nemesis_corpus)
    nemesis_corpus.set_defaults(func=cmd_nemesis_corpus)


def _add_plugins_arguments(plugins: argparse.ArgumentParser) -> None:
    plugins_sub = plugins.add_subparsers(dest="plugins_command", required=True)
    plugins_list = plugins_sub.add_parser(
        "list", help="list loaded plugins and what each registered"
    )
    _add_format(plugins_list)
    plugins_list.set_defaults(func=cmd_plugins_list)


def _add_examples_arguments(examples: argparse.ArgumentParser) -> None:
    examples.set_defaults(func=cmd_examples)


#: Every command in ``--help`` order: its one-line help, and the function that
#: adds its arguments and subcommands.  Building those can import whole layers
#: (the ``--object`` choices are the protocol registry), so :func:`build_parser`
#: does it only for the command actually on the command line.
_COMMANDS = {
    "check": (
        "decide whether a fail-prone system admits a GQS, "
        "or re-verify a recorded trace directory",
        _add_check_arguments,
    ),
    "quorums": (
        "quorum-decision toolbox: discover a GQS witness, classify, repair",
        _add_quorums_arguments,
    ),
    "simulate": ("run a protocol on the simulated network", _add_simulate_arguments),
    "sweep": ("run the Monte Carlo studies", _add_sweep_arguments),
    "scenario": (
        "declarative scenario catalogue: list, show, run, sweep",
        _add_scenario_arguments,
    ),
    "nemesis": (
        "guided adversarial schedule search: hunt, replay, corpus",
        _add_nemesis_arguments,
    ),
    "plugins": (
        "inspect loaded plugin modules and their registered extensions",
        _add_plugins_arguments,
    ),
    "examples": ("replay the paper's worked examples", _add_examples_arguments),
}


def _scan_argv(argv: List[str]) -> Tuple[List[str], Optional[str]]:
    """``(--plugin modules, command word)``, read off ``argv`` before any parser exists.

    Plugins must be imported *before* the parser is built, so the choices
    generated from the registries (``--object``, ``--checker``, …) include
    plugin-registered names; and only the parser of the command on ``argv`` —
    its first token naming one, ``--plugin``'s value skipped — is built in full.
    """
    modules: List[str] = []
    command = None
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--plugin" and index + 1 < len(argv):
            index += 1
            modules.append(argv[index])
        elif token.startswith("--plugin="):
            modules.append(token[len("--plugin=") :])
        elif command is None and token in _COMMANDS:
            command = token
        index += 1
    return modules, command


def build_parser(argv: List[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command by name and help, one in full."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalized quorum systems: decision procedure, protocol simulation, studies.",
    )
    parser.add_argument(
        "--version", action="version", version="repro {}".format(__version__)
    )
    parser.add_argument(
        "--plugin",
        action="append",
        default=[],
        metavar="MODULE",
        help="import a plugin module that registers extensions via repro.registry "
        "(repeatable; the REPRO_PLUGINS environment variable works too)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = _scan_argv(argv)[1]
    for name, (help_text, add_arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name == chosen:
            add_arguments(command)
    return parser


def _load_plugins(argv: List[str]) -> None:
    """Import the ``REPRO_PLUGINS`` and ``--plugin`` modules, in that order."""
    modules = _scan_argv(argv)[0]
    if not modules and not os.environ.get("REPRO_PLUGINS"):
        return  # nothing asked for: do not import the registry on its account
    from .registry import PLUGINS_ENV_VAR, load_env_plugins, load_plugin, loaded_plugins

    load_env_plugins()
    for module in modules:
        load_plugin(module)
    if loaded_plugins():
        # Mirror --plugin modules into the environment so spawn-started
        # engine workers (macOS/Windows) re-load them too; fork-started
        # workers inherit the registries either way.
        os.environ[PLUGINS_ENV_VAR] = ",".join(loaded_plugins())


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _load_plugins(argv)
    except ReproError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit hook
        return status
    except ReproError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left (``repro scenario list | head -1``): point stdout at
        # devnull so the exit-time flush stays quiet, and exit as the shell
        # reports a utility that SIGPIPE ended (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
