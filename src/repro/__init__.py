"""repro — reproduction of "Tight Bounds on Channel Reliability via Generalized Quorum Systems".

The library implements, over a deterministic discrete-event network simulator,
everything the PODC 2025 paper describes:

* the failure model of process crashes plus channel disconnections
  (:mod:`repro.failures`);
* classical and **generalized quorum systems** with their availability
  predicates, the termination component ``U_f`` and a decision procedure that
  finds a GQS for a fail-prone system or proves none exists
  (:mod:`repro.quorums`);
* the quorum access functions of Figures 2-3, the ABD-like MWMR register of
  Figure 4, atomic snapshots, lattice agreement, and the partially synchronous
  consensus protocol of Figure 6, plus classical baselines
  (:mod:`repro.protocols`);
* linearizability and specification checkers (:mod:`repro.checkers`);
* Monte Carlo admissibility/reliability studies and experiment harnesses
  (:mod:`repro.montecarlo`, :mod:`repro.experiments`), executed by a parallel
  experiment engine with deterministic sharded seeding (:mod:`repro.engine`);
* a declarative scenario subsystem with a catalogue of named evaluation
  set-ups — topology + failures + delays + protocol + workload as one
  JSON-serializable spec (:mod:`repro.scenarios`);
* a JSONL trace store and parallel replay-verification — record every run's
  history and safety evidence, re-check it later with any checker and any
  worker count (:mod:`repro.traces`);
* a guided nemesis that *searches* for the adversary's best case instead of
  sampling it — deterministic schedule mutation over recorded runs, fitness
  by badness, incident reports cross-checked against the fail-prone budget
  (:mod:`repro.nemesis`);
* a central typed extension registry with plugin loading — protocols,
  topologies, delay models, checkers and scenarios all plug in without core
  edits (:mod:`repro.registry`) — and a high-level facade exposing one typed
  function per workflow (:mod:`repro.api`), which the thin CLI
  (:mod:`repro.cli`) prints.

Quickstart::

    from repro.analysis import figure1_fail_prone_system
    from repro.quorums import discover_gqs

    result = discover_gqs(figure1_fail_prone_system())
    print(result.quorum_system.describe())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Nothing below is imported until it is first touched, so ``import repro`` —
#: and with it every ``repro.<layer>`` import and every CLI command — pays only
#: for the layers it goes on to use.  The registries import their own home
#: modules on first look (:mod:`repro.registry`), so nothing needs importing
#: here for its side effects.
_EXPORTS = {
    ".errors": (
        "InvalidFailurePatternError",
        "InvalidQuorumSystemError",
        "NoQuorumSystemExistsError",
        "ReproError",
    ),
    ".failures": ("FailProneSystem", "FailurePattern"),
    ".history": ("History", "OperationRecord"),
    ".quorums": ("GeneralizedQuorumSystem", "QuorumSystem", "discover_gqs", "gqs_exists"),
    **dict.fromkeys(
        (".analysis", ".api", ".checkers", ".engine", ".experiments", ".graph", ".montecarlo",
         ".nemesis", ".protocols", ".registry", ".scenarios", ".serialization", ".sim",
         ".traces", ".types"),
        (),
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "FailProneSystem",
    "FailurePattern",
    "GeneralizedQuorumSystem",
    "History",
    "InvalidFailurePatternError",
    "InvalidQuorumSystemError",
    "NoQuorumSystemExistsError",
    "OperationRecord",
    "QuorumSystem",
    "ReproError",
    "__version__",
    "analysis",
    "api",
    "checkers",
    "discover_gqs",
    "engine",
    "experiments",
    "failures",
    "gqs_exists",
    "graph",
    "montecarlo",
    "protocols",
    "quorums",
    "registry",
    "scenarios",
    "serialization",
    "sim",
    "traces",
]
