"""Protocol implementations: quorum access functions, registers, snapshots,
lattice agreement and consensus (paper §5 and §7), plus classical baselines."""

from .consensus import ConsensusProcess
from .lattice_agreement import LatticeAgreementProcess, SemiLattice, SetLattice
from .messages import (
    Accept,
    Accepted,
    ClockReq,
    ClockResp,
    Decided,
    GetReq,
    GetRespSeq,
    OneB,
    Prepare,
    Promise,
    SetReq,
    SetRespAck,
    SetRespClock,
    StatePush,
    TwoA,
    TwoB,
)
from .paxos_baseline import PaxosBaselineProcess, majority_quorums
from .quorum_access import (
    ClassicalQuorumAccessProcess,
    GeneralizedQuorumAccessProcess,
    QuorumAccessProcess,
)
from .register import (
    ClassicalABDRegister,
    GQSRegister,
    RegisterState,
    initial_register_state,
)
from .snapshot import Segment, SnapshotProcess, merge_vectors

__all__ = [
    "Accept",
    "Accepted",
    "ClassicalABDRegister",
    "ClassicalQuorumAccessProcess",
    "ClockReq",
    "ClockResp",
    "ConsensusProcess",
    "Decided",
    "GQSRegister",
    "GeneralizedQuorumAccessProcess",
    "GetReq",
    "GetRespSeq",
    "LatticeAgreementProcess",
    "OneB",
    "PaxosBaselineProcess",
    "Prepare",
    "Promise",
    "QuorumAccessProcess",
    "RegisterState",
    "Segment",
    "SemiLattice",
    "SetLattice",
    "SetReq",
    "SetRespAck",
    "SetRespClock",
    "SnapshotProcess",
    "StatePush",
    "TwoA",
    "TwoB",
    "initial_register_state",
    "majority_quorums",
    "merge_vectors",
]
