"""Discrete-event simulation of the paper's asynchronous / partially synchronous network."""

from .delays import (
    DelayModel,
    FixedDelay,
    PartialSynchronyDelay,
    UniformDelay,
    build_delay_model,
)
from .events import Event, EventScheduler
from .network import Network, NetworkStats, RelayEnvelope
from .override import ScheduleOverride, build_schedule_override
from .process import NOT_READY, OperationHandle, Process, WaitCondition
from .runtime import Cluster

__all__ = [
    "Cluster",
    "DelayModel",
    "Event",
    "EventScheduler",
    "FixedDelay",
    "NOT_READY",
    "Network",
    "NetworkStats",
    "OperationHandle",
    "PartialSynchronyDelay",
    "Process",
    "RelayEnvelope",
    "ScheduleOverride",
    "UniformDelay",
    "WaitCondition",
    "build_delay_model",
    "build_schedule_override",
]
