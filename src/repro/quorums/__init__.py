"""Quorum systems: classical (Definition 1), generalized (Definition 2), QS+ and discovery."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".classical": ("QuorumSystem", "threshold_quorum_system"),
    ".generalized": ("GeneralizedQuorumSystem", "is_f_available"),
    ".repair": ("RepairReport", "RepairSuggestion", "harden_channels", "suggest_channel_repairs"),
    ".strong": ("strong_system_exists",),
    ".discovery": (
        "DISCOVERY_ALGORITHMS", "CandidateQuorumPair", "DiscoveryResult", "candidate_pairs",
        "choose_candidates", "classify_fail_prone_system", "discover_gqs", "gqs_exists",
    ),
    ".incremental": (
        "DELTA_OPS", "DeltaVerdict", "MembershipDelta", "WatchOutcome", "apply_delta",
        "load_deltas", "parse_delta", "recertify_delta", "watch_deltas",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
