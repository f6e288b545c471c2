"""Tests for the central extension registry (:mod:`repro.registry`)."""

import pytest

from repro.errors import ReproError
from repro.registry import (
    CHECKERS,
    DELAY_MODELS,
    PROTOCOLS,
    SCENARIOS,
    TOPOLOGIES,
    Descriptor,
    Registry,
)
from repro.registry.core import set_current_origin


def _descriptor(name, kind="widget", **kwargs):
    return Descriptor(name=name, kind=kind, builder=lambda: name, **kwargs)


# ---------------------------------------------------------------------- #
# Core behaviour (on locally constructed registries)
# ---------------------------------------------------------------------- #
def test_registration_preserves_order_and_mapping_protocol():
    registry = Registry("widget", noun="widget kind")
    for name in ("zeta", "alpha", "mid"):
        registry.register(_descriptor(name))
    assert registry.names() == ["zeta", "alpha", "mid"]
    assert list(registry) == ["zeta", "alpha", "mid"]
    assert len(registry) == 3
    assert "alpha" in registry
    assert registry["alpha"].name == "alpha"
    assert [d.name for d in registry.descriptors()] == ["zeta", "alpha", "mid"]


def test_duplicate_registration_rejected_unless_replace():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("w"))
    with pytest.raises(ReproError, match="widget kind 'w' is already registered"):
        registry.register(_descriptor("w"))
    replacement = _descriptor("w", doc="v2")
    registry.register(replacement, replace=True)
    assert registry["w"].doc == "v2"


def test_kind_mismatch_rejected():
    registry = Registry("widget", noun="widget kind")
    with pytest.raises(ReproError, match="has kind 'gadget', expected 'widget'"):
        registry.register(_descriptor("w", kind="gadget"))


def test_unknown_name_error_lists_sorted_candidates_with_suggestion():
    registry = Registry("widget", noun="widget kind")
    for name in ("zeta", "alpha", "mid"):
        registry.register(_descriptor(name))
    with pytest.raises(ReproError) as excinfo:
        registry.get("alpah")
    message = str(excinfo.value)
    assert message == (
        "unknown widget kind 'alpah'; expected one of ['alpha', 'mid', 'zeta'] "
        "(did you mean 'alpha'?)"
    )


def test_unknown_name_error_without_close_match_has_no_suggestion():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("alpha"))
    message = str(registry.unknown_name_error("qqqqq"))
    assert message == "unknown widget kind 'qqqqq'; expected one of ['alpha']"


def test_unknown_name_error_extra_candidates():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("alpha"))
    message = str(registry.unknown_name_error("beta", extra=("explicit",)))
    assert "['alpha', 'explicit']" in message


def test_mapping_contract_on_missing_names():
    """Missing names follow the Mapping protocol: `in` is False, KeyError from
    [], Mapping-style .get(default) — only the rich .get() raises ReproError."""
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("alpha"))
    assert "nope" not in registry
    with pytest.raises(KeyError):
        registry["nope"]
    assert registry.get("nope", None) is None
    assert registry.get("nope", "fallback") == "fallback"
    with pytest.raises(ReproError, match="unknown widget kind 'nope'"):
        registry.get("nope")


def test_topology_spec_unknown_kind_lists_explicit_candidate():
    from repro.scenarios import TopologySpec

    with pytest.raises(ReproError) as excinfo:
        TopologySpec("rign")
    message = str(excinfo.value)
    assert "'explicit'" in message
    assert "did you mean 'ring'" in message


def test_discard_origin_rolls_back_and_allows_reregistration():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("keep"))
    previous = set_current_origin("broken_plugin")
    try:
        registry.register(_descriptor("w1"))
        registry.register(_descriptor("w2"))
    finally:
        set_current_origin(previous)
    assert registry.discard_origin("broken_plugin") == ["w1", "w2"]
    assert registry.names() == ["keep"]
    registry.register(_descriptor("w1"))  # a retry does not trip "already registered"


def test_validate_params_accepts_known_and_rejects_unknown():
    registry = Registry("widget", noun="widget kind", param_noun="widget")
    registry.register(_descriptor("w", params=("a", "b")))
    registry.validate_params("w", {"a": 1})
    with pytest.raises(ReproError, match=r"widget 'w' does not accept parameter\(s\) \['c', 'z'\]"):
        registry.validate_params("w", {"z": 1, "c": 2, "a": 3})


def test_validate_params_none_schema_accepts_anything():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("w", params=None))
    registry.validate_params("w", {"anything": 1})


def test_origin_attribution_during_plugin_import():
    registry = Registry("widget", noun="widget kind")
    registry.register(_descriptor("builtin-w"))
    previous = set_current_origin("some_plugin")
    try:
        registry.register(_descriptor("plugin-w"))
    finally:
        set_current_origin(previous)
    assert registry["builtin-w"].origin == "builtin"
    assert registry["plugin-w"].origin == "some_plugin"
    assert [d.name for d in registry.from_origin("some_plugin")] == ["plugin-w"]


# ---------------------------------------------------------------------- #
# The five global registries carry the built-in catalogue
# ---------------------------------------------------------------------- #
def test_builtin_protocols_registered_in_catalogue_order():
    assert PROTOCOLS.names() == ["register", "snapshot", "lattice", "consensus", "paxos"]
    assert PROTOCOLS["paxos"].has_tag("no-safety-claim")
    for descriptor in PROTOCOLS.descriptors():
        assert callable(descriptor.extras["schedule"])
        assert callable(descriptor.extras["judge"])
        assert set(descriptor.extras["defaults"]) == {"op_spacing", "max_time"}


def test_builtin_topologies_and_builtin_matchers():
    assert TOPOLOGIES.names() == [
        "figure1",
        "figure1-modified",
        "ring",
        "geo",
        "minority",
        "adversarial-partition",
        "random",
        "large-threshold",
        "multi-region",
    ]
    with_builtin = [
        d.name for d in TOPOLOGIES.descriptors() if "builtin" in d.extras
    ]
    assert "random" not in with_builtin
    assert len(with_builtin) == len(TOPOLOGIES) - 1


def test_builtin_delay_models_and_checkers():
    assert DELAY_MODELS.names() == [
        "fixed",
        "uniform",
        "partial-synchrony",
        "schedule-override",
    ]
    assert CHECKERS.names() == ["auto", "wing-gong"]


def test_scenario_registry_backs_the_catalogue():
    from repro.scenarios import scenario_names

    assert SCENARIOS.names() == scenario_names()
    assert "unidirectional-ring" in SCENARIOS
    spec = SCENARIOS["unidirectional-ring"].extras["spec"]
    assert spec.name == "unidirectional-ring"


def test_legacy_views_stay_consistent_with_registries():
    """What the removed per-module view tables projected, read off the registries."""
    assert list(PROTOCOLS) == PROTOCOLS.names()
    assert PROTOCOLS["register"].params == ("classical", "push_interval", "relay")
    assert PROTOCOLS["paxos"].extras["defaults"]["max_time"] == 1_500.0
    assert list(TOPOLOGIES) == TOPOLOGIES.names()
    assert callable(TOPOLOGIES["ring"].builder)
    assert DELAY_MODELS["uniform"].params == ("min_delay", "max_delay")
    assert list(CHECKERS) == CHECKERS.names()
