"""Experiment harnesses reproducing the paper's examples and implied evaluation (E1-E8)."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".tightness": ("PatternVerdict", "TightnessReport", "verify_pattern", "verify_tightness"),
    ".workloads": (
        "Invocation", "WorkloadResult", "alternating_write_read_schedule",
        "build_protocol_factory", "client_schedule", "compare_register_overhead",
        "EFFORT_PROBE_MAX_STATES", "default_invokers", "execute_workload",
        "judge_baseline_history", "judge_consensus_history", "judge_history",
        "judge_lattice_history", "judge_register_history", "judge_snapshot_history",
        "register_search_effort", "run_workload", "safety_report",
        "singleton_proposal_schedule", "unique_value_proposal_schedule",
        "write_then_scan_schedule",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
