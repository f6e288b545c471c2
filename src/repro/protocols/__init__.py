"""Protocol implementations: quorum access functions, registers, snapshots,
lattice agreement and consensus (paper §5 and §7), plus classical baselines."""

from .consensus import ConsensusProcess
from .kv_store import ReplicatedKVStore, merge_kv_states
from .lattice_agreement import LatticeAgreementProcess, MaxLattice, SemiLattice, SetLattice
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
    "MaxLattice",
    "OneB",
    "PaxosBaselineProcess",
    "Prepare",
    "Promise",
    "ReplicatedKVStore",
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
    "merge_kv_states",
    "merge_vectors",
]
