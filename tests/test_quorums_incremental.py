"""Incremental recertification under membership churn (`repro quorums watch`).

Two layers of contract:

* **Semantics** — applying a delta yields exactly the documented post-delta
  system (join quarantines, leave removes, suspect/trust toggle crash sets,
  channel ops edit disconnect sets), and every recertification verdict equals
  a from-scratch discovery on an identically-constructed fresh system.
* **Reuse** — structure-preserving deltas must adopt the memoized candidate
  structures instead of recomputing them, with honest accounting.  That the
  whole watch pipeline is byte-deterministic across hash seeds is pinned by
  the ``watch-*`` rows of ``tests/determinism.py``.
"""

from __future__ import annotations

import pytest

from repro.api import watch_quorums
from repro.errors import ReproError
from repro.failures import (
    FailProneSystem,
    FailurePattern,
    multi_region_system,
    ring_unidirectional_system,
)
from repro.quorums import (
    MembershipDelta,
    apply_delta,
    discover_gqs,
    load_deltas,
    parse_delta,
    recertify_delta,
    watch_deltas,
)

from oracles.graph import network

def _small_system() -> FailProneSystem:
    return FailProneSystem(
        ["a", "b", "c", "d"],
        [FailurePattern(["a"], name="fa"), FailurePattern(["b"], name="fb")],
        name="small",
    )


# ---------------------------------------------------------------------- #
# Parsing and loading
# ---------------------------------------------------------------------- #
def test_parse_delta_accepts_every_op():
    assert parse_delta({"op": "join", "process": "x"}).describe() == "join(x)"
    assert parse_delta({"op": "leave", "process": "x"}).op == "leave"
    assert parse_delta({"op": "suspect", "process": "x"}).process == "x"
    assert parse_delta({"op": "trust", "process": "x"}).process == "x"
    channel = parse_delta({"op": "suspect-channel", "src": "a", "dst": "b"})
    assert (channel.src, channel.dst) == ("a", "b")
    assert channel.describe() == "suspect-channel(a->b)"


def test_parse_delta_rejects_malformed_objects():
    with pytest.raises(ReproError):
        parse_delta({"op": "explode", "process": "x"})
    with pytest.raises(ReproError):
        parse_delta({"op": "join"})
    with pytest.raises(ReproError):
        parse_delta({"op": "suspect-channel", "src": "a"})
    with pytest.raises(ReproError):
        parse_delta({"op": "trust-channel", "src": "a", "dst": "a"})


def test_delta_dict_round_trip():
    for obj in (
        {"op": "join", "process": "x"},
        {"op": "suspect-channel", "src": "a", "dst": "b"},
    ):
        assert parse_delta(obj).to_dict() == obj


def test_load_deltas_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "deltas.jsonl"
    path.write_text(
        "# warm-up\n"
        '{"op": "join", "process": "x"}\n'
        "\n"
        '{"op": "leave", "process": "x"}\n'
    )
    deltas = load_deltas(str(path))
    assert [d.op for d in deltas] == ["join", "leave"]


def test_load_deltas_reports_the_offending_line(tmp_path):
    path = tmp_path / "deltas.jsonl"
    path.write_text('{"op": "join", "process": "x"}\nnot json\n')
    with pytest.raises(ReproError, match=":2:"):
        load_deltas(str(path))
    path.write_text('["op"]\n')
    with pytest.raises(ReproError, match="JSON object"):
        load_deltas(str(path))


# ---------------------------------------------------------------------- #
# Delta semantics
# ---------------------------------------------------------------------- #
def test_join_quarantines_the_new_process():
    system = _small_system()
    new_system, pattern_map, permutation = apply_delta(
        system, MembershipDelta(op="join", process="e")
    )
    assert "e" in new_system.processes
    for pattern in new_system.patterns:
        assert "e" in pattern.crash_prone
    # Every pattern's residual structure survives (modulo re-indexing).
    assert len(pattern_map) == len(new_system.patterns)
    assert permutation is not None
    # The graph connects the newcomer both ways.
    assert {("e", "a"), ("a", "e")} <= network(new_system).edge_set()


def test_leave_keeps_structures_of_patterns_that_crashed_the_process():
    system = _small_system()
    new_system, pattern_map, permutation = apply_delta(
        system, MembershipDelta(op="leave", process="a")
    )
    assert "a" not in new_system.processes
    # fa crashed a, so its residual is untouched; fb must be recomputed.
    assert len(pattern_map) == 1
    (new_pattern,) = pattern_map
    assert new_pattern.name == "fa"
    assert "a" not in new_pattern.crash_prone
    assert permutation is not None


def test_suspect_and_trust_toggle_crash_sets():
    system = _small_system()
    suspected, suspect_map, permutation = apply_delta(
        system, MembershipDelta(op="suspect", process="c")
    )
    assert permutation is None
    for pattern in suspected.patterns:
        assert "c" in pattern.crash_prone
    # No original pattern crashed c, so nothing is value-identical.
    assert suspect_map == {}

    trusted, trust_map, _ = apply_delta(
        suspected, MembershipDelta(op="trust", process="c")
    )
    for pattern in trusted.patterns:
        assert "c" not in pattern.crash_prone
    assert trust_map == {}
    # Patterns a delta never touched stay identical across a suspect of an
    # already-suspected process.
    again, again_map, _ = apply_delta(suspected, MembershipDelta(op="suspect", process="c"))
    assert len(again_map) == len(set(suspected.patterns))


def test_channel_ops_edit_disconnect_sets():
    system = _small_system()
    cut, cut_map, _ = apply_delta(
        system, MembershipDelta(op="suspect-channel", src="c", dst="d")
    )
    for pattern in cut.patterns:
        assert ("c", "d") in pattern.disconnect_prone
    assert cut_map == {}  # both endpoints correct in fa and fb: all touched
    healed, healed_map, _ = apply_delta(
        cut, MembershipDelta(op="trust-channel", src="c", dst="d")
    )
    for pattern in healed.patterns:
        assert ("c", "d") not in pattern.disconnect_prone
    assert healed_map == {}
    # A channel whose endpoint is crashed leaves the pattern untouched, so
    # both patterns stay value-identical and reusable.
    touched, touched_map, _ = apply_delta(
        system, MembershipDelta(op="suspect-channel", src="a", dst="b")
    )
    assert len(touched_map) == 2  # fa crashes a, fb crashes b: neither changes
    assert [f.disconnect_prone for f in touched.patterns] == [
        f.disconnect_prone for f in system.patterns
    ]


def test_delta_error_cases():
    system = _small_system()
    with pytest.raises(ReproError, match="duplicates"):
        apply_delta(system, MembershipDelta(op="join", process="a"))
    with pytest.raises(ReproError, match="not in the system"):
        apply_delta(system, MembershipDelta(op="leave", process="zz"))
    with pytest.raises(ReproError, match="not in the system"):
        apply_delta(system, MembershipDelta(op="suspect-channel", src="a", dst="zz"))
    lonely = FailProneSystem(["a"], [FailurePattern()])
    with pytest.raises(ReproError, match="empty the system"):
        apply_delta(lonely, MembershipDelta(op="leave", process="a"))


# ---------------------------------------------------------------------- #
# Recertification equals from-scratch discovery
# ---------------------------------------------------------------------- #
DELTA_SCRIPT = [
    MembershipDelta(op="join", process="z0"),
    MembershipDelta(op="suspect-channel", src="g1m0", dst="g2m0"),
    MembershipDelta(op="trust", process="z0"),
    MembershipDelta(op="leave", process="g3m2"),
    MembershipDelta(op="trust-channel", src="g1m0", dst="g2m0"),
]


def test_watch_verdicts_match_from_scratch_discovery():
    system = multi_region_system(regions=4, replicas_per_region=3)
    outcome = watch_deltas(system, DELTA_SCRIPT)
    assert outcome.initial_result is not None and outcome.initial_result.exists
    assert len(outcome.verdicts) == len(DELTA_SCRIPT)
    for verdict in outcome.verdicts:
        # A cache-cold rerun on an identically-shaped fresh system: same
        # verdict, same witness, same search effort.
        fresh = FailProneSystem(
            verdict.system.processes,
            verdict.system.patterns,
            channels=network(verdict.system).edges(),
            name=verdict.system.name,
        )
        scratch = discover_gqs(fresh, validate=False)
        assert verdict.result.exists == scratch.exists
        assert verdict.result.nodes_explored == scratch.nodes_explored
        if scratch.exists:
            for pattern, choice in scratch.choices.items():
                assert verdict.result.choices[pattern].read_quorum == choice.read_quorum
                assert verdict.result.choices[pattern].write_quorum == choice.write_quorum
    assert outcome.final.processes == outcome.verdicts[-1].system.processes


#: Joiners sorting before, between and after the ``g<region>m<replica>``
#: names, so the re-index shifts every bit, some bits, and no bit.
REINDEX_SCRIPT = [
    MembershipDelta(op="join", process="a-first"),
    MembershipDelta(op="join", process="g1m5"),
    MembershipDelta(op="suspect-channel", src="g1m0", dst="g2m0"),
    MembershipDelta(op="join", process="z-last"),
    MembershipDelta(op="trust", process="g1m5"),
    MembershipDelta(op="leave", process="a-first"),
]


def test_reindexed_caches_give_the_from_scratch_report():
    """Delta for delta: same witness rows, search effort and candidate counts.

    Both sides validate their witness (the watch path's default), so a cache
    entry re-keyed to the wrong bit would also fail Definition 2 outright.
    """
    from repro.api import DiscoveryReport

    outcome = watch_deltas(
        multi_region_system(regions=4, replicas_per_region=3), REINDEX_SCRIPT
    )
    assert outcome.all_exist
    current = multi_region_system(regions=4, replicas_per_region=3)
    for delta, verdict in zip(REINDEX_SCRIPT, outcome.verdicts):
        current = apply_delta(current, delta)[0]  # nothing carried over
        scratch = discover_gqs(current)
        assert verdict.result.quorum_system.is_valid()
        assert DiscoveryReport(verdict.system, verdict.result).rows == (
            DiscoveryReport(current, scratch).rows
        )
        assert verdict.result.nodes_explored == scratch.nodes_explored
        assert verdict.result.candidates_per_pattern == scratch.candidates_per_pattern
        assert verdict.system.bitset_graph == current.bitset_graph
    assert [v.reuse_fraction for v in outcome.verdicts[:2]] == [1.0, 1.0]
    assert "g1m5" in set().union(*outcome.verdicts[-1].result.quorum_system.read_quorums)


def test_join_reuses_every_candidate_structure():
    system = multi_region_system(regions=4, replicas_per_region=3)
    discover_gqs(system, validate=False)
    verdict = recertify_delta(system, MembershipDelta(op="join", process="z9"))
    assert verdict.patterns_total == len(set(verdict.system.patterns))
    assert verdict.candidates_reused == verdict.patterns_total
    assert verdict.reuse_fraction == 1.0
    assert verdict.candidates_reused > 0


def test_reuse_accounting_counts_distinct_patterns():
    # multiregion 4x3 has wan-3 == wan-0 by value: accounting must not charge
    # the duplicate as an unreused pattern.
    system = multi_region_system(regions=4, replicas_per_region=3, epochs=4)
    assert len(set(system.patterns)) < len(system.patterns)
    discover_gqs(system, validate=False)
    verdict = recertify_delta(system, MembershipDelta(op="join", process="z9"))
    assert verdict.reuse_fraction == 1.0


def test_watch_without_warm_caches_still_reports_reuse():
    """watch_deltas certifies the initial system first, so deltas reuse it."""
    outcome = watch_deltas(
        multi_region_system(regions=4, replicas_per_region=3),
        [MembershipDelta(op="join", process="z0")],
    )
    (verdict,) = outcome.verdicts
    assert verdict.reuse_fraction == 1.0
    assert outcome.all_exist


def test_watch_reports_a_lost_quorum_system():
    # Suspecting every process of a tiny ring kills the GQS: the final
    # pattern crashes everything, so no candidate pair survives.
    system = ring_unidirectional_system(4)
    deltas = [
        MembershipDelta(op="suspect", process="p0"),
        MembershipDelta(op="suspect", process="p1"),
        MembershipDelta(op="suspect", process="p2"),
        MembershipDelta(op="suspect", process="p3"),
    ]
    outcome = watch_deltas(system, deltas)
    assert not outcome.verdicts[-1].result.exists
    assert not outcome.all_exist


def test_watch_quorums_accepts_a_path_and_a_sequence(tmp_path):
    path = tmp_path / "deltas.jsonl"
    path.write_text('{"op": "join", "process": "z0"}\n')
    system = multi_region_system(regions=4, replicas_per_region=3)
    from_path = watch_quorums(system, str(path))
    from_seq = watch_quorums(
        multi_region_system(regions=4, replicas_per_region=3),
        [MembershipDelta(op="join", process="z0")],
    )
    assert from_path.to_dict() == from_seq.to_dict()
    payload = from_path.to_dict()
    assert payload["initial_exists"] is True
    assert payload["all_exist"] is True
    assert payload["deltas"][0]["reuse_fraction"] == 1.0


# ---------------------------------------------------------------------- #
# Complete networks stay row-free
# ---------------------------------------------------------------------- #
def test_crash_only_residuals_over_a_complete_network_hold_no_rows():
    """The network and every crash-only residual stay in the row-free complete
    form through a whole watch: joins and leaves re-key one mask per graph,
    never a row list.  Only the patterns of the suspect-channel step that lose
    a channel between two survivors hold rows."""
    from repro.failures import builtin_fail_prone_system

    system = builtin_fail_prone_system("large-threshold-24x2")
    ring = sorted(system.processes)
    outcome = watch_deltas(system, [
        MembershipDelta("join", process="joiner"),
        MembershipDelta("suspect", process=ring[3]),
        MembershipDelta("trust", process=ring[3]),
        MembershipDelta("suspect-channel", src=ring[4], dst=ring[8]),
        MembershipDelta("trust-channel", src=ring[4], dst=ring[8]),
        MembershipDelta("leave", process="joiner"),
    ])
    assert outcome.all_exist
    with_rows = 0
    for current in [outcome.initial] + [verdict.system for verdict in outcome.verdicts]:
        assert current.bitset_graph._succ is None
        residuals = current._residual_bitset_cache
        assert len(residuals) == len(set(current.patterns))
        for pattern, residual in residuals.items():
            if pattern.channel_count:
                assert residual._succ is not None
                with_rows += 1
            else:
                assert residual._succ is None and residual._pred is None
    assert with_rows == 24 - 4  # the windows that crash neither endpoint
