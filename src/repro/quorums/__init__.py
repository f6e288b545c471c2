"""Quorum systems: classical (Definition 1), generalized (Definition 2), QS+ and discovery."""

from .classical import (
    QuorumSystem,
    grid_quorum_system,
    majority_quorum_system,
    minimal_quorums,
    quorum_load,
    threshold_quorum_system,
)
from .generalized import GeneralizedQuorumSystem, is_f_available, is_f_reachable
from .repair import RepairReport, RepairSuggestion, harden_channels, suggest_channel_repairs
from .strong import StrongQuorumSystem, strong_choice_exists, strong_system_exists
from .discovery import (
    DISCOVERY_ALGORITHMS,
    CandidateQuorumPair,
    DiscoveryResult,
    candidate_pairs,
    classify_fail_prone_system,
    discover_gqs,
    find_gqs,
    gqs_choice_exists,
    gqs_exists,
)
from .incremental import (
    DELTA_OPS,
    DeltaVerdict,
    MembershipDelta,
    WatchOutcome,
    apply_delta,
    load_deltas,
    parse_delta,
    recertify_delta,
    watch_deltas,
)

__all__ = [
    "CandidateQuorumPair",
    "DELTA_OPS",
    "DISCOVERY_ALGORITHMS",
    "DeltaVerdict",
    "DiscoveryResult",
    "MembershipDelta",
    "WatchOutcome",
    "apply_delta",
    "load_deltas",
    "parse_delta",
    "recertify_delta",
    "watch_deltas",
    "GeneralizedQuorumSystem",
    "QuorumSystem",
    "RepairReport",
    "RepairSuggestion",
    "StrongQuorumSystem",
    "candidate_pairs",
    "classify_fail_prone_system",
    "discover_gqs",
    "find_gqs",
    "gqs_choice_exists",
    "gqs_exists",
    "grid_quorum_system",
    "harden_channels",
    "is_f_available",
    "is_f_reachable",
    "majority_quorum_system",
    "minimal_quorums",
    "quorum_load",
    "strong_choice_exists",
    "strong_system_exists",
    "suggest_channel_repairs",
    "threshold_quorum_system",
]
