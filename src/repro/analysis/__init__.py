"""Analysis helpers: the paper's running example, executable worked examples, metrics."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".examples": (
        "ExampleOutcome", "classical_is_special_case_of_gqs", "example_4_minority_fail_prone",
        "example_6_threshold_quorums", "example_8_figure1_is_gqs",
        "example_9_modified_system_has_no_gqs", "example_9_termination_components",
        "run_all_examples",
    ),
    ".figure1": (
        "FIGURE1_PROCESSES", "figure1_fail_prone_system", "figure1_modified_fail_prone_system",
        "figure1_patterns", "figure1_quorum_system", "figure1_read_quorums",
        "figure1_write_quorums",
    ),
    ".metrics": ("OperationMetrics", "ResultTable", "mean", "percentile"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
