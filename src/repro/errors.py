"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch everything raised by the library with a single ``except`` clause while
still being able to distinguish individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidFailurePatternError(ReproError):
    """A failure pattern is malformed.

    Raised, for example, when a supposedly-correct channel is incident to a
    process that the same pattern allows to crash (the paper requires
    ``(p, q) in C  =>  {p, q} ∩ P = ∅``), or when a pattern references a
    process that is not part of the system.
    """


class InvalidQuorumSystemError(ReproError):
    """A (classical or generalized) quorum system violates its definition."""


class QuorumConsistencyError(InvalidQuorumSystemError):
    """Some read quorum does not intersect some write quorum."""


class QuorumAvailabilityError(InvalidQuorumSystemError):
    """Some failure pattern has no available quorum pair."""


class NoQuorumSystemExistsError(ReproError):
    """The fail-prone system admits no (generalized) quorum system."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ProcessCrashedError(SimulationError):
    """An operation was invoked on, or a step attempted by, a crashed process."""


class OperationTimeoutError(SimulationError):
    """A simulated operation did not complete within the allotted horizon."""


class HistoryError(ReproError):
    """An operation history handed to a checker is malformed."""

