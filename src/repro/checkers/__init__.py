"""Correctness checkers for protocol executions: linearizability and object specs."""

from .consensus_checker import ConsensusCheckResult, check_consensus
from .lattice_checker import LatticeCheckResult, check_lattice_agreement
from .linearizability import (
    DependencyGraphChecker,
    LinearizabilityResult,
    check_register_linearizability,
    check_register_witness_first,
)
from .snapshot_checker import check_snapshot_linearizability

__all__ = [
    "ConsensusCheckResult",
    "DependencyGraphChecker",
    "LatticeCheckResult",
    "LinearizabilityResult",
    "check_consensus",
    "check_lattice_agreement",
    "check_register_linearizability",
    "check_register_witness_first",
    "check_snapshot_linearizability",
]
