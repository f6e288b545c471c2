"""The decision layer has one implementation per concept, and no way to pick another.

Pins what the mask-native rewrite deleted: the set-based twins, the Monte
Carlo engine selector and ``algorithm="naive"`` are gone from ``src/`` (they
live on as ``tests/oracles``, which is not installed), the CLI rejects the
removed flags as ordinary usage errors, and the oracles share no code with
the bitset layer they check.  The simulator follows the same rule: one
scheduler, no ``REPRO_SIM_FASTPATH`` switch, the old one in ``oracles.sim``.
And every concept has one name: the registries are the only tables,
``run_workload`` the only workload entry, and exports nobody called are gone.
The GQS choice problem has one search: the quotient search, orbit transport
and the declared-symmetry stack that fed them are gone, ``"quotient"`` is an
accepted name of the forward-checking search and no CLI flag picks a search.
That search, ``choose_candidates``, also decides QS+ and the Monte Carlo
samples: the two recursive backtrackers beside it are gone.
Linearizability has one complete search too: the streaming formulation, the
``mode=`` switch and the two checker names that selected nothing are gone, and
so is the set-based ``graph.connectivity`` module (now ``oracles.graph``).
Pass-through layers are called through: a process factory is
``functools.partial`` of the protocol class, the engine's ``runner=``
extension point nobody passed is gone, and a ``repro.api`` workflow that is
exactly one layer function is that function.
A CLI command is forward -> emit -> status: every result type renders itself
(``to_text()`` / ``to_json()``), so ``cli.py`` holds one ``_emit`` and no
label block or typed-result JSON branch of its own.
And ``src/`` ships only what something reaches: every module-level name is
used by another ``src/`` module, a command or the e2e harness, six exempt
names aside; what only tests read lives in ``tests/`` or ``examples/``.
Methods too, counted where they are read as attributes, ten waiting on
named ROADMAP items aside; a system hands out no network graph, and the
``DiGraph`` it still decodes keeps only what the e2e harness probe walks.
And a file from outside becomes data in one place, ``repro.ingress``: the
private readers and field checks the ingresses each carried are gone.  Its
mirror, ``repro.egress``, is the one place data becomes JSON bytes, and a
registry entry's builder has one caller, ``Registry.build``.  A Monte Carlo
study has one shape: ``engine/runner.py`` alone checks where a result was
routed, and the per-study merges and spec builders are gone.  A cluster counts
the operations it started: the deferred handle and its resolve chain are gone.
"""

from __future__ import annotations

import ast
import glob
import io
import itertools
import os
import re
import subprocess
import sys
import tokenize

import pytest
from setuptools import find_packages

import repro
from repro.failures import FailProneSystem, builtin_fail_prone_system
from repro.quorums import DISCOVERY_ALGORITHMS, discover_gqs, recertify_delta, watch_deltas

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

#: The decision-layer subset of ``benchmarks/e2e/test_e2e_smoke.py::SLATED_FOR_DELETION``
#: plus the private helpers that went with it.
DELETED_FROM_SRC = (
    r"candidate_pairs_reference",
    r"gqs_exists_bruteforce",
    r"_naive_search",
    r"resolve_engine",
    r"MONTE_CARLO_ENGINES",
    r"_availability_under",
    r"is_f_(available|reachable)_mask",
    r"engine\s*=\s*[\"'](set|bitset)[\"']",
    r"algorithm\s*=\s*[\"']naive[\"']",
    r"--engine",
)

#: Second names for a concept and caller-less exports: the registry view
#: tables, the per-object workload wrappers and forwards, the test-only bitset
#: leftovers and the names nothing in the repository referenced.
DELETED_SECOND_NAMES = (
    r"RegistryView",
    r"(PROTOCOL|DELAY_MODEL|TOPOLOGY|CHECKER)_KINDS",
    r"PROTOCOL_PARAM_KEYS",
    r"WORKLOAD_DEFAULTS",
    r"NEMESIS_STRATEGIES",
    r"run_(register|snapshot|lattice|consensus|paxos_baseline)_workload",
    r"validate_protocol_params",
    r"evaluate_safety",
    r"_termination_set",
    r"orbit_of_mask",
    r"canonical_orbit_mask",
    r"def inverse\(",
    r"def mutually_reachable\(self",
    r"NotLinearizableError",
    r"SpecificationViolationError",
    r"\bfrom_edges\b",
    r"_TAG_PREFIX",
    r"KVEntry",
    r"is_faulty_process",
    r"\bsingle_pattern\b",
)

#: The second search for the GQS choice problem and everything only it read:
#: the quotient search and its context, orbit transport, declared symmetry
#: groups (class, builder helper, error, constructor parameter, property), the
#: arbitrary-permutation mask kernels and the two quotient-only result fields.
DELETED_QUOTIENT_STACK = (
    r"_quotient_",
    r"_QuotientContext",
    r"SymmetryGroup",
    r"block_permutation",
    r"InvalidSymmetryError",
    r"MaskPermutation",
    r"permute_mask",
    r"pattern_orbits",
    r"candidates_permuted",
    r"\bsymmetry\b",
)

#: The second formulation of the complete linearizability search, the no-caller
#: version-order entry, and the set-based graph module nothing in ``src/`` read.
DELETED_SEARCH_FORK = (
    r"StreamingRegisterChecker",
    r"_check_streaming",
    r"check_with_version_order",
    r"mode\s*=\s*[\"'](batch|streaming)[\"']",
    r"graph\.connectivity",
    r"graph/connectivity\.py",
)

#: The two recursive prefix-only backtrackers that solved the choice problem
#: beside the forward-checking search (QS+ and the Monte Carlo shards now call
#: ``choose_candidates``), and the classical constructions nothing called.
DELETED_SECOND_SOLVERS = (
    r"gqs_choice_exists",
    r"strong_choice_exists",
    r"def backtrack\(",
    r"majority_quorum_system",
    r"grid_quorum_system",
    r"minimal_quorums",
    r"quorum_load",
)

#: Names no command, no other ``src/`` module and no e2e harness reached: second
#: names for an operation that stays (``find_gqs``, ``estimate_reliability``, the
#: bitset ``is_f_reachable``, the JSON file wrappers), test-only leftovers, the
#: set-form definitions now in ``tests/oracles`` (QS+ as ``StrongQuorumSystem``,
#: ``scans_totally_ordered``, ``sample_fail_prone_system``), the test lattice
#: ``MaxLattice`` (``tests/conftest.py``) and the key-value store, which is
#: ``examples/replicated_kv_store.py`` now.
DELETED_UNREACHED = tuple(
    r"\b{}\b".format(name)
    for name in (
        "find_gqs", "estimate_reliability", "is_f_reachable", "figure1_termination_components",
        "all_channels", "all_crash_patterns", "save_fail_prone_system", "save_quorum_system",
        "load_quorum_system", "load_scenario", "save_scenario", "ReplicatedKVStore",
        "merge_kv_states", "scans_totally_ordered", "StrongQuorumSystem",
        "sample_fail_prone_system", "MaxLattice",
    )
)

#: The protocol factory helpers, the per-system analysis caches and candidate
#: memo that per-pattern residuals replaced, a delay helper and a scenario
#: wrapper; then methods nothing outside the tests called, and the
#: interpreter-global operation-id counter (a history depended on how many
#: simulations ran before it).
DELETED_UNCALLED = (
    r"\bgqs_register_factory\b", r"\bkv_store_factory\b", r"\banalysis_cache\b",
    r"\bwarm_caches_from\b", r"\badopt_pattern_caches\b", r"\bCANDIDATE_CACHE_NAMESPACE\b",
    r"\b_MaskedCandidate\b", r"\bstretches_to_lists\b", r"\brun_scenario_once\b",
    r"def with_pattern\(", r"def restrict\(", r"def column\(", r"\bcompletion_ratio\b",
    r"\bmessages_per_operation\b", r"\btermination_mapping\b", r"def add\(self, record",
    r"\b_ids = itertools\.count\(",
)

#: The private readers and field checks each file ingress carried before
#: ``repro.ingress`` took them over: one JSON reader, one set of field checks
#: (``from_json`` was a second spec reader only tests called; the two
#: override-row parsers checked the rows a schedule had already checked).
DELETED_INGRESS_COPIES = (
    r"\b_read_json\b", r"\b_parse_lines\b", r"\b_require_mapping\b", r"\b_process_field\b",
    r"def from_json\(", r"\bstretches_from_lists\b", r"\bnudges_from_lists\b",
    r"\b_override_rows\b", r"\bhistory_from_dicts\b",
)

#: The encoders, ``to_json`` bodies and evidence writer the output sites each
#: carried before ``repro.egress`` took them over.
DELETED_EGRESS_COPIES = (
    r"\b_dumps\b", r"def to_json\(self, indent", r"\bclass _Result\b", r"\bwrite_evidence\b",
)

#: The network's second, set-based currency: the ``DiGraph`` a system kept
#: beside its rows (with a memo of set-based residuals), the second channel
#: encoder, the simulator's option nobody set, and the ``DiGraph`` methods
#: only tests called.
DELETED_SET_NETWORK = (
    r"\bfrom_digraph\b", r"\bgraph_view\b", r"\b_residual_cache\b", r"\bcrash_processes\b",
    r"def without\(", r"def remove_vertex\(", r"def remove_edge\(", r"def predecessors\(",
)

#: Members only tests read, found once a method counts as reached only where
#: it is read as an attribute: the network a system handed out, the set-based
#: container's inspection methods and dunders, a second residual entry, a
#: pattern combinator, the scheduler's single step and ``run_until`` pair, the
#: delay models' ``reset`` chain and a report property that restated a field.
DELETED_TEST_ONLY = (
    r"def graph\(self\)", r"def union\(", r"def residual\(self, crashed", r"def step\(self\)",
    r"def run_until\(", r"def reset\(self\)", r"def gqs_exists\(self\)", r"def num_vertices\(",
    r"def num_edges\(", r"def vertices\(self\)", r"def vertex_set\(", r"def edges\(self\)",
    r"def edge_set\(", r"def add_vertex\(self", r"def add_edge\(self",
)

#: The per-study copies one :class:`repro.montecarlo.study.Study` replaced: each
#: study's shard merge (with its own mis-routing guard) and grid-spec builder,
#: and the spec method only the reliability builder called.
DELETED_STUDY_COPIES = (
    r"\b_merge_admissibility\b", r"\b_merge_reliability\b", r"\b_merge_asymmetric\b",
    r"\b_admissibility_specs\b", r"\b_reliability_spec\b", r"\b_asymmetric_specs\b",
    r"def with_params\(",
)

#: The deferred handle ``Cluster.invoke_at`` returned, whose resolve chain let a
#: workload count handles that did not exist yet (the cluster counts
#: completions now), and the run knob nobody set.
DELETED_RESOLVE_CHAIN = (r"\bclass DeferredInvocation\b", r"\bon_resolve\b", r"\bmax_events\b")

#: The quorum-access counters nothing read, the generators that only wrapped
#: ``_quorum_get`` / ``_quorum_set``, and the one-spec runner entry
#: (``run_sharded([spec], ...)[0]`` is the one path).
DELETED_UNREAD_PROTOCOL_STATE = (
    r"\bcompleted_gets\b", r"\bcompleted_sets\b", r"\b_tracked_get\b", r"\b_tracked_set\b",
    r"def run\(self, spec",
)

#: The worker pool the self-scheduling runner replaced: the pool itself, its
#: ordered collection, the worker-side tagging trampoline and the stand-in
#: pool the routing tests used, so the old path cannot return beside the new.
DELETED_POOL_PATH = (r"\.Pool\(", r"\bimap\b", r"def _tagged", r"\b_PermutingPool\b")

#: The per-event stop predicate the scheduler's stop flag replaced, and the
#: relay chain ``Network.relay`` replaced: the keyed broadcast, the
#: process-side forwarding step and the dict-building read-quorum probe.
DELETED_RELAY_CHAIN = (
    r"\bstop_when\b", r"\bseen_key\b", r"\b_relay_handle\b", r"\b_read_quorum_states_at\b",
)

#: What an oracle must never import or call: the layer it is the oracle *for*.
FORBIDDEN_ORACLE_MODULES = ("bitset", "bitsampler")
FORBIDDEN_ORACLE_NAMES = {
    "BitsetDiGraph", "ProcessIndex", "component_containing",
    "iter_bits", "popcount", "residual_bitset", "bitset_graph",
    "process_index", "choose_candidates",
    # the bit-order decoders ``oracles.render`` is the reference for
    "sorted_list", "channel_list", "sorted_pair", "sorted_families", "sorted_parts",
}


def _sources(root):
    paths = glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
    assert paths
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            yield path, handle.read()


def test_deleted_names_are_gone_from_src():
    for path, text in _sources(SRC_DIR):
        for pattern in (
            DELETED_FROM_SRC
            + DELETED_SECOND_NAMES
            + DELETED_QUOTIENT_STACK
            + DELETED_SEARCH_FORK
            + DELETED_SECOND_SOLVERS
            + DELETED_UNREACHED
            + DELETED_UNCALLED
            + DELETED_INGRESS_COPIES
            + DELETED_EGRESS_COPIES
            + DELETED_SET_NETWORK
            + DELETED_TEST_ONLY
            + DELETED_STUDY_COPIES
            + DELETED_RESOLVE_CHAIN
            + DELETED_UNREAD_PROTOCOL_STATE
            + DELETED_POOL_PATH
            + DELETED_RELAY_CHAIN
        ):
            assert not re.search(pattern, text), "{} still has {}".format(path, pattern)


def test_the_relay_elision_rule_is_written_once():
    """Only ``Network.relay`` reads or writes a process's ``_relay_due`` map
    (the process merely creates it), so the rule deciding which relay copies
    are queued exists in one place."""
    users = {}
    for path, text in _sources(SRC_DIR):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and "_relay_due" in ast.unparse(node):
                users.setdefault(os.path.relpath(path, SRC_DIR), []).append(node.name)
    assert users == {
        os.path.join("repro", "sim", "network.py"): ["relay"],
        os.path.join("repro", "sim", "process.py"): ["__init__"],
    }


def test_only_the_ingress_module_decodes_files():
    """One place turns file bytes into data: ``repro/ingress.py`` is the only
    ``src/`` module that calls ``json.load``/``json.loads`` or catches the
    decoder's ``RecursionError`` / ``UnicodeDecodeError``."""
    decoding = re.compile(r"\bjson\.loads?\(|\bRecursionError\b|\bUnicodeDecodeError\b")
    for path, text in _sources(SRC_DIR):
        found = set(decoding.findall(text))
        if path == os.path.join(SRC_DIR, "repro", "ingress.py"):
            assert found == {"json.loads(", "RecursionError", "UnicodeDecodeError"}
        else:
            assert not found, (path, found)


def test_only_the_egress_module_encodes_json():
    """One place turns data into JSON bytes and files: ``repro/egress.py`` is the
    only ``src/`` module that calls ``json.dump``/``json.dumps`` or ``os.replace``."""
    encoding = re.compile(r"\bjson\.dumps?\(|\bos\.replace\(")
    for path, text in _sources(SRC_DIR):
        found = set(encoding.findall(text))
        if path == os.path.join(SRC_DIR, "repro", "egress.py"):
            assert found == {"json.dumps(", "os.replace("}
        else:
            assert not found, (path, found)


def test_only_the_engine_runner_refuses_a_mis_routed_result():
    """Routing is checked once, where results are collected: ``engine/runner.py``
    is the only ``src/`` module that words a mis-routing error, so no merge
    carries a guard of its own."""
    for path, text in _sources(SRC_DIR):
        found = re.findall(r"mis-?routed", text, re.IGNORECASE)
        if path == os.path.join(SRC_DIR, "repro", "engine", "runner.py"):
            assert "mis-routed result: " in text
        else:
            assert not found, (path, found)


def test_only_the_registry_calls_a_builder():
    """A registry entry is built by ``Registry.build``, which turns what the
    builder refuses into a ``ReproError``; no call site guards it on its own."""
    for path, text in _sources(SRC_DIR):
        if path != os.path.join(SRC_DIR, "repro", "registry", "core.py"):
            assert ".builder(" not in text, path


#: The only module-level names of ``src/repro`` nothing reaches: the four paper
#: experiments that wait for a ``repro sweep`` kind of their own, and the two
#: mask samplers the Monte Carlo differential battery races against the oracle.
UNREACHED_BY_DESIGN = {
    "asymmetric_admissibility_sweep", "gqs_strictly_weaker_examples", "verify_tightness",
    "compare_register_overhead", "sample_reliability_masks", "sample_admissibility_masks",
}


def _export_table_lines(path, tree):
    """Lines of ``tree`` that only re-export: ``__all__``, ``_EXPORTS``, a
    ``lazy_exports(...)`` table and a package ``__init__``'s relative imports."""
    package = os.path.basename(path) == "__init__.py"
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            table = any(getattr(t, "id", None) in ("__all__", "_EXPORTS") for t in node.targets)
        elif isinstance(node, ast.Call):
            table = getattr(node.func, "id", None) == "lazy_exports"
        else:
            table = package and isinstance(node, ast.ImportFrom) and node.level > 0
        if table:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


#: Methods nothing outside the tests calls yet, each with the ROADMAP item it
#: waits on (a differential seam is a method a ``tests/oracles`` battery races).
UNREACHED_METHODS = {
    "OperationRecord.overlaps": "1",
    "History.incomplete_records": "1",
    "History.by_process": "1",
    "History.is_sequential": "1",
    "TightnessReport.all_patterns_ok": "4(a)",
    "TightnessReport.to_table": "4(a)",
    "QuorumTriple.available_pair": "differential seam",
    "GeneralizedQuorumSystem.validating_write_quorums": "differential seam",
    "CandidateQuorumPair.read_quorum": "differential seam",
    "EventScheduler.pending": "differential seam",
}

#: Client operations invoked by name (``Cluster.invoke`` dispatches with ``getattr``).
STRING_DISPATCHED = {"scan", "quorum_get", "quorum_set", "propose"}


def _unreached_methods(sources, defining_root):
    """Qualified names of the methods (dunders aside) of the classes defined at
    module level under ``defining_root`` that ``sources`` never reach outside
    their own ``def``.  A method is reached where it is read as an attribute
    (``x.name``), named in ``getattr(x, "name")`` or dispatched by name
    (:data:`STRING_DISPATCHED`); a bare identifier of the same spelling, such
    as a local variable, is no use."""
    methods, reads = [], {}
    for path, text in sources:
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add((path, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                reads.setdefault(node.args[1].value, set()).add((path, node.lineno))
        if path.startswith(defining_root):
            methods += [
                ("{}.{}".format(node.name, item.name), item.name,
                 {(path, n) for n in range(item.lineno, item.end_lineno + 1)})
                for node in tree.body
                if isinstance(node, ast.ClassDef)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return {
        qualified
        for qualified, name, own in methods
        if name not in STRING_DISPATCHED and not reads.get(name, set()) - own
    }


def test_every_src_name_is_reached_from_outside_its_definition():
    """A module-level ``def``/``class`` of ``src/repro`` is named, as an identifier,
    somewhere besides its own definition and the export tables — in ``src/``
    (which holds every command) or in the pinned ``benchmarks/e2e`` harness.
    A facade alias (``api.hunt`` for ``hunt_scenario``) counts as a use of its
    target.  A method (dunders aside) is read as an attribute outside its own
    ``def`` there or in ``examples/`` (see :func:`_unreached_methods`)."""
    root = os.path.dirname(SRC_DIR)
    e2e, examples = os.path.join(root, "benchmarks", "e2e"), os.path.join(root, "examples")
    sources = list(itertools.chain(_sources(SRC_DIR), _sources(e2e), _sources(examples)))
    definitions, aliases, uses = {}, {}, {}
    for path, text in sources:
        tree = ast.parse(text)
        exports = _export_table_lines(path, tree)
        # Identifiers only: a name in a docstring, comment or string is no use.
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME and token.start[0] not in exports:
                uses.setdefault(token.string, set()).add((path, token.start[0]))
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and node.lineno in exports:
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                        aliases.setdefault(value.value, set()).add(key.value)
        if path.startswith(os.path.join(SRC_DIR, "repro")):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    span = range(node.lineno, node.end_lineno + 1)
                    definitions.setdefault(node.name, set()).update((path, n) for n in span)
    outside_examples = {
        word: {use for use in found if not use[0].startswith(examples)}
        for word, found in uses.items()
    }
    unreached = {
        name
        for name, own in definitions.items()
        if not any(
            outside_examples.get(word, set()) - own for word in {name} | aliases.get(name, set())
        )
    }
    assert unreached == UNREACHED_BY_DESIGN
    assert _unreached_methods(sources, os.path.join(SRC_DIR, "repro")) == set(UNREACHED_METHODS)
    assert set(UNREACHED_METHODS.values()) <= {"1", "4(a)", "differential seam"}


def test_a_method_is_reached_by_an_attribute_read_not_by_a_name():
    """A local variable spelled like a method does not keep the method; a
    read as an attribute or a ``getattr`` string does, outside its own body."""
    root = os.path.join(SRC_DIR, "repro")
    defined = (os.path.join(root, "synthetic.py"), (
        "class Graph:\n"
        "    def residual(self, crashed):\n"
        "        return self.residual(crashed)\n"
        "    def probe(self):\n"
        "        return self\n"
        "def decide(graph):\n"
        "    residual = graph\n"
        "    return residual\n"
    ))
    assert _unreached_methods([defined], root) == {"Graph.residual", "Graph.probe"}
    for use in ("graph.residual(())", "getattr(graph, 'residual')"):
        outside = (os.path.join(root, "caller.py"), "def run(graph):\n    " + use)
        assert _unreached_methods([defined, outside], root) == {"Graph.probe"}


def test_the_set_based_network_lives_in_the_graph_package_and_only_residual_graph_hands_it_out():
    """``src/`` holds a network as ``ProcessIndex`` rows: the identifier
    ``DiGraph`` appears only in ``repro/graph/`` and in ``failures/failprone.py``
    (``residual_graph``, what the e2e harness probe walks); a system hands out
    no network graph, and ``DiGraph`` keeps only what ``reachable_from`` reads."""
    from repro.graph import DiGraph

    allowed = (
        os.path.join(SRC_DIR, "repro", "graph") + os.sep,
        os.path.join(SRC_DIR, "repro", "failures", "failprone.py"),
    )
    naming = set()
    for path, text in _sources(SRC_DIR):
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        if any(token.type == tokenize.NAME and token.string == "DiGraph" for token in tokens):
            naming.add(path)
    assert naming and all(path.startswith(allowed) for path in naming), sorted(naming)
    failprone_py = os.path.join(SRC_DIR, "repro", "failures", "failprone.py")
    with open(failprone_py, "r", encoding="utf-8") as handle:
        failprone = ast.parse(handle.read())
    returning = {
        node.name
        for node in ast.walk(failprone)
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) == "DiGraph"
    }
    assert returning == {"residual_graph"}
    assert not hasattr(FailProneSystem, "graph")
    members = {name for name, value in vars(DiGraph).items() if callable(value)}
    assert members == {"__init__", "has_vertex", "successors"}


def test_decision_layer_has_one_graph_currency():
    """``repro.quorums`` and ``repro.montecarlo`` never touch set-based reachability."""
    set_based = re.compile(
        r"residual_graph|mutually_reachable|\bset_reaches_set\(|reachable_from"
        r"|\bcan_reach\(|strongly_connected_components"
    )
    for package in ("quorums", "montecarlo"):
        for path, text in _sources(os.path.join(SRC_DIR, "repro", package)):
            assert not set_based.search(text), path
    discovery = os.path.join(SRC_DIR, "repro", "quorums", "discovery.py")
    with open(discovery, "r", encoding="utf-8") as handle:
        assert handle.read().count("def compatibility_row(") == 1


def test_oracles_are_not_packaged_and_share_nothing_with_the_bitset_layer():
    assert not [name for name in find_packages(SRC_DIR) if "oracles" in name]
    for path, text in _sources(os.path.join(TESTS_DIR, "oracles")):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                used = {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            for name in used:
                assert name not in FORBIDDEN_ORACLE_NAMES, "{} uses {}".format(path, name)
                assert not any(part in name for part in FORBIDDEN_ORACLE_MODULES), (path, name)


def test_removed_selectors_are_gone_from_the_api():
    import inspect

    from repro import api, montecarlo

    assert DISCOVERY_ALGORITHMS == ("pruned", "full", "quotient")
    for function in (
        montecarlo.reliability_sweep,
        montecarlo.admissibility_sweep,
        montecarlo.asymmetric_admissibility_sweep,
        api.sweep,
    ):
        assert "engine" not in inspect.signature(function).parameters, function
    # ``algorithm=`` selects nothing; only ``discover_gqs`` still accepts the names.
    for function in (
        api.discover, api.discovery_report, api.watch_quorums, recertify_delta, watch_deltas,
    ):
        assert "algorithm" not in inspect.signature(function).parameters, function
    # Only ``discover_gqs`` (which benchmarks time unvalidated) skips validation.
    for function in (api.discover, api.discovery_report):
        assert "validate" not in inspect.signature(function).parameters, function
    with pytest.raises(ValueError, match="unknown discovery algorithm 'naive'"):
        discover_gqs(builtin_fail_prone_system("figure1"), algorithm="naive")
    assert "symmetry" not in inspect.signature(FailProneSystem).parameters
    assert not os.path.exists(os.path.join(SRC_DIR, "repro", "failures", "symmetry.py"))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--engine", "set"],
        ["quorums", "discover", "--builtin", "figure1", "--algorithm", "naive"],
        ["quorums", "discover", "--builtin", "figure1", "--algorithm", "quotient"],
        ["quorums", "watch", "--builtin", "figure1", "deltas.jsonl", "--algorithm", "pruned"],
    ],
)
def test_cli_rejects_removed_flags_as_usage_errors(argv):
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    finished = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, universal_newlines=True,
    )
    assert finished.returncode == 2
    assert "usage:" in finished.stderr
    assert "Traceback" not in finished.stderr and "Traceback" not in finished.stdout


def test_every_package_star_import_resolves():
    """No ``__all__`` / ``_EXPORTS`` entry dangles after a deletion."""
    packages = find_packages(SRC_DIR)
    assert "repro.experiments" in packages and "repro.graph" in packages
    for package in packages:
        exec("from {} import *".format(package), {})


def test_run_workload_is_the_only_workload_entry():
    import repro.experiments

    assert [n for n in repro.experiments.__all__ if n.startswith("run_")] == ["run_workload"]


# --------------------------------------------------------------------- #
# One simulator hot path: no scheduler switch, the old one is an oracle
# --------------------------------------------------------------------- #
def test_simulator_has_one_scheduler_and_no_switch():
    from repro.sim import EventScheduler
    from repro.sim import events

    switch = re.compile(r"REPRO_SIM_FASTPATH|FASTPATH_ENV|fastpath")
    for path, text in _sources(SRC_DIR):
        assert not switch.search(text), "{} still mentions the scheduler switch".format(path)
    with pytest.raises(TypeError):
        EventScheduler(fastpath=True)
    # Queue entries are tuples ordered in C: nothing in the module defines an
    # ordering, and the recycling pool went with the Event objects it recycled.
    with open(events.__file__, "r", encoding="utf-8") as handle:
        assert "__lt__" not in handle.read()
    for name in ("pool_size", "_acquire", "_peek", "_pop", "_fire"):
        assert not hasattr(EventScheduler, name), name
    assert "Event" in repro.sim.__all__ and "EventScheduler" in repro.sim.__all__


def test_message_path_has_one_delivery_entry_point_and_no_closure():
    """Deliveries carry their arguments: the two closure-taking scheduler
    entry points and the two per-message stats methods left ``src/``, and the
    network builds no ``lambda`` per message."""
    from repro.sim import EventScheduler, NetworkStats, network

    gone = re.compile(r"schedule_pooled|schedule_fifo|record_sent|record_delivered")
    for path, text in _sources(SRC_DIR):
        assert not gone.search(text), "{} still has {}".format(path, gone.pattern)
    with open(network.__file__, "r", encoding="utf-8") as handle:
        assert not re.search(r"\blambda\b", handle.read())
    assert hasattr(EventScheduler, "schedule_delivery")
    assert not hasattr(NetworkStats, "record_sent")


def test_sim_oracle_carries_its_own_queue():
    """``oracles.sim`` may patch the simulator but must not reuse its queue."""
    import oracles.sim

    with open(oracles.sim.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [node.module or ""] + [
                "{}.{}".format(node.module, alias.name) for alias in node.names
            ]
        else:
            continue
        for name in imported:
            assert name not in ("repro.sim", "repro.sim.events"), name
            assert not name.startswith("repro.sim.events."), name
    assert oracles.sim.Event is not repro.sim.Event
    assert oracles.sim.EventScheduler is not repro.sim.EventScheduler
    assert "__lt__" in vars(oracles.sim.Event)
    # The delivery entry point is mirrored as a closure on the one Event heap.
    for name in ("schedule_pooled", "schedule_fifo", "_fifo"):
        assert not hasattr(oracles.sim.EventScheduler, name), name
    reference = oracles.sim.EventScheduler()
    reference.schedule_delivery(1.0, True, lambda sender, target, message: None, "s", "t", "m")
    (queued,) = reference._queue
    assert isinstance(queued, oracles.sim.Event) and callable(queued.callback)


# --------------------------------------------------------------------- #
# One complete linearizability search, and a graph package without twins
# --------------------------------------------------------------------- #
def test_linearizability_has_one_search_and_no_selector():
    import inspect

    from repro import checkers, graph
    from repro.registry import CHECKERS

    checkers_dir = os.path.dirname(os.path.abspath(checkers.__file__))
    texts = dict(_sources(checkers_dir))
    assert sum(text.count("def search(") for text in texts.values()) == 1
    for path, text in texts.items():
        assert not re.search(r"\bmode\s*=", text), path
    assert "mode" not in inspect.signature(checkers.check_register_linearizability).parameters
    assert "versions" not in inspect.signature(checkers.check_register_witness_first).parameters
    assert not hasattr(checkers, "StreamingRegisterChecker")
    assert list(CHECKERS) == ["auto", "wing-gong"]

    assert not os.path.exists(os.path.join(SRC_DIR, "repro", "graph", "connectivity.py"))
    with pytest.raises(ImportError):
        import repro.graph.connectivity  # noqa: F401
    assert callable(graph.reachable_from)
    for name in ("can_reach", "strongly_connected_components", "mutually_reachable",
                 "set_reaches_set", "transitive_closure", "condensation", "scc_of"):
        assert not hasattr(graph, name), name
    for name in ("to_dot", "subgraph", "reverse", "in_degree", "out_degree"):
        assert not hasattr(graph.DiGraph, name), name
    assert not hasattr(graph.BitsetDiGraph, "set_reaches_set")


def test_linearizability_oracle_shares_nothing_with_the_search():
    """``oracles.linearizability`` may reuse the result record, never the kernel;
    ``oracles.graph`` carries its own ``reachable_from``."""
    import oracles.graph
    import oracles.linearizability

    with open(oracles.linearizability.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    from_checkers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("repro.checkers") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            assert node.module in (
                "repro.history", "repro.errors", "repro.checkers.linearizability"
            ), node.module
            if node.module == "repro.checkers.linearizability":
                from_checkers += [alias.name for alias in node.names]
    assert from_checkers == ["LinearizabilityResult"]
    assert oracles.graph.reachable_from is not repro.graph.reachable_from
    # ``oracles.graph`` carries its own container too and reads a system's
    # network from the serialized form, never from a graph the system hands out.
    with open(oracles.graph.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("repro.graph"), node.module
            assert "DiGraph" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("repro.graph") for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr != "graph", node.lineno


# --------------------------------------------------------------------- #
# Pass-through layers are called through
# --------------------------------------------------------------------- #
#: ``repro.api`` name -> the layer function it re-exports (same object).
API_REEXPORTS = {
    "run_scenario": ("repro.scenarios", "run_scenario"),
    "sweep_scenarios": ("repro.scenarios", "sweep_scenarios"),
    "hunt": ("repro.nemesis", "hunt_scenario"),
    "replay_schedule": ("repro.nemesis", "replay_schedule_file"),
    "nemesis_corpus": ("repro.nemesis", "corpus_rows"),
    "nemesis_corpus_table": ("repro.nemesis", "corpus_table"),
    "check_traces": ("repro.traces", "check_traces"),
    "run_examples": ("repro.analysis", "run_all_examples"),
}


def test_process_factories_are_partials_of_the_protocol_classes():
    import functools

    import repro.protocols
    from repro.experiments import build_protocol_factory

    for path, text in _sources(os.path.join(SRC_DIR, "repro", "protocols")):
        assert not re.search(r"def \w+_factory\(", text), path
    assert not [name for name in dir(repro.protocols) if name.endswith("_factory")]
    gqs = discover_gqs(builtin_fail_prone_system("figure1")).quorum_system
    for kind, process_class, params in (
        ("register", repro.protocols.GQSRegister, {"relay": False}),
        ("register", repro.protocols.ClassicalABDRegister, {"classical": True}),
        ("snapshot", repro.protocols.SnapshotProcess, {}),
        ("lattice", repro.protocols.LatticeAgreementProcess, {"push_interval": 0.5}),
        ("consensus", repro.protocols.ConsensusProcess, {"view_duration": 4.0}),
        ("paxos", repro.protocols.PaxosBaselineProcess, {}),
    ):
        factory = build_protocol_factory(kind, gqs, params)
        assert isinstance(factory, functools.partial) and factory.func is process_class
        params.pop("classical", None)
        assert {k: v for k, v in factory.keywords.items() if k in params} == params


def test_protocol_constructors_take_exactly_their_schema():
    """A constructor knob no scenario can set is a constant: each built-in
    protocol class takes the keywords its registry schema declares, beside what
    the factory fills in, and the ABD baseline behind ``classical`` takes none."""
    import inspect

    from repro.experiments import build_protocol_factory
    from repro.registry import PROTOCOLS

    gqs = discover_gqs(builtin_fail_prone_system("figure1")).quorum_system

    def knobs(kind, params=None):
        process_class = build_protocol_factory(kind, gqs, params).func
        taken = set(inspect.signature(process_class).parameters)
        return taken - {"pid", "network", "quorum_system", "process_ids"}

    for kind in ("register", "snapshot", "lattice", "consensus", "paxos"):
        assert knobs(kind) == set(PROTOCOLS.get(kind).params) - {"classical"}, kind
    assert knobs("register", {"classical": True}) == set()


def test_protocol_defaults_are_written_once():
    """``push_interval`` defaults to 1.0 in the four constructors that take it,
    and nowhere else outside the scenario catalogue (which pins its own)."""
    written = []
    for path, text in _sources(SRC_DIR):
        if path.endswith(os.path.join("scenarios", "registry.py")):
            continue
        for line in text.splitlines():
            if re.search(r"push_interval.*\b1\.0\b", line):
                written.append((os.path.basename(path), line.strip()))
    assert sorted(written) == [
        (name, "push_interval: float = 1.0,")
        for name in ("lattice_agreement.py", "quorum_access.py", "register.py", "snapshot.py")
    ]


def test_runner_extension_point_is_gone_outside_the_engine():
    import inspect

    from repro import experiments, montecarlo, nemesis, scenarios, traces

    for path, text in _sources(SRC_DIR):
        if os.sep + "engine" + os.sep not in path:
            assert not re.search(r"runner\s*:|Optional\[ParallelRunner\]", text), path
    for function in (
        traces.check_traces, montecarlo.reliability_sweep, montecarlo.admissibility_sweep,
        montecarlo.asymmetric_admissibility_sweep,
        scenarios.run_scenario, scenarios.sweep_scenarios, experiments.verify_tightness,
        nemesis.hunt_scenario,
    ):
        assert "runner" not in inspect.signature(function).parameters, function


def test_api_workflows_that_are_one_layer_function_are_that_function():
    import importlib

    from repro import api

    with open(api.__file__, "r", encoding="utf-8") as handle:
        text = handle.read()
    for name, (module, target) in API_REEXPORTS.items():
        assert not re.search(r"^def {}\(".format(name), text, re.MULTILINE), name
        assert getattr(api, name) is getattr(importlib.import_module(module), target), name
    assert set(API_REEXPORTS) - {"nemesis_corpus_table"} <= set(api.__all__)


# --------------------------------------------------------------------- #
# A command is forward -> emit: results render themselves
# --------------------------------------------------------------------- #
#: The result types the CLI emits, by home module.
RENDERING_TYPES = {
    "repro.api": ("DiscoveryReport", "WatchReport", "ClassifyReport", "RepairOutcome",
                  "SimulateReport", "MonteCarloSweep"),
    "repro.scenarios": ("ScenarioSpec", "ScenarioRunResult"),
    "repro.traces": ("TraceCheckReport",),
    "repro.nemesis": ("HuntReport",),
}


def test_cli_commands_are_forward_emit_status():
    from repro import cli

    with open(cli.__file__, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text.count("def _emit(") == 1
    assert text.count('args.format == "json"') <= 6
    assert text.count("print(") <= 30
    assert len(text.splitlines()) <= 850
    commands = [
        node for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert len(commands) >= 16
    for command in commands:
        assert command.end_lineno - command.lineno + 1 <= 35, command.name
    # A typed result is dumped by its own ``to_json()``; only plain lists are dumped here.
    assert not re.search(r"json\.dumps\(\s*[\w.]+\.to_dict\(\)", text)


def test_every_emitted_result_type_renders_itself():
    import importlib

    for module, names in RENDERING_TYPES.items():
        for name in names:
            result_type = getattr(importlib.import_module(module), name)
            assert callable(result_type.to_text) and callable(result_type.to_json), name
    # The sentences two commands share are written once.
    for sentence in ("NO generalized quorum system exists", "No repair found by hardening up to"):
        assert sum(text.count(sentence) for _, text in _sources(SRC_DIR)) == 1, sentence
