"""Failure model: failure patterns and fail-prone systems (paper §2)."""

from .pattern import NO_FAILURES, FailurePattern
from .failprone import FailProneSystem
from .generators import (
    adversarial_partition_system,
    build_fail_prone_system,
    builtin_fail_prone_system,
    geo_replicated_system,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
    random_failure_pattern,
    ring_unidirectional_system,
)

__all__ = [
    "NO_FAILURES",
    "FailurePattern",
    "FailProneSystem",
    "adversarial_partition_system",
    "build_fail_prone_system",
    "builtin_fail_prone_system",
    "geo_replicated_system",
    "large_threshold_system",
    "multi_region_system",
    "random_fail_prone_system",
    "random_failure_pattern",
    "ring_unidirectional_system",
]
