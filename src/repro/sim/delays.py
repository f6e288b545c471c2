"""Message-delay models.

The simulator separates *which* messages are delivered (decided by channel and
process failures in :mod:`repro.sim.network`) from *when* they are delivered,
decided here.  Three models cover the paper's needs:

* :class:`FixedDelay` — every message takes the same time; handy for
  deterministic unit tests.
* :class:`UniformDelay` — asynchronous executions: delays drawn uniformly from
  ``[min_delay, max_delay]`` with a seeded RNG, modelling fair but arbitrary
  scheduling.
* :class:`PartialSynchronyDelay` — the Dwork–Lynch–Stockmeyer model used in §7:
  before the global stabilization time (GST) delays are arbitrary (up to
  ``pre_gst_max``), after GST every message is delivered within ``delta``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Mapping, Optional

from ..registry import DELAY_MODELS, register_delay_model
from ..types import Channel


def _check_time(name: str, value: Any, positive: bool = False) -> float:
    """``value`` if it is a finite number ``>= 0`` (``> 0`` when ``positive``).

    Anything else — ``NaN`` and infinities included, which would otherwise
    corrupt the event queue's ordering — is a :class:`ValueError` naming
    ``name``.
    """
    try:
        valid = math.isfinite(value) and (value > 0 if positive else value >= 0)
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(
            "{} must be a finite {} number, got {!r}".format(
                name, "positive" if positive else "non-negative", value
            )
        )
    return value


class DelayModel:
    """Base class: maps a send event to a delivery latency."""

    #: Whether delivery times are non-decreasing in send order *within one
    #: run*: for any two sends at times ``t1 <= t2`` the model promises
    #: ``t1 + delay1 <= t2 + delay2``.  Models that preserve FIFO order let
    #: the simulator route deliveries through a short-circuit deque instead of
    #: the heap (see :meth:`repro.sim.EventScheduler.schedule_delivery`).
    #: The default is ``False``, which is always correct — randomized or
    #: per-channel models must keep it.  Only opt in for models whose latency
    #: is a single run-wide constant (or otherwise provably monotone).  It is
    #: read once per fan-out: a constant of the model, never per message.
    preserves_fifo = False

    def delay(self, channel: Channel, send_time: float) -> float:
        """Return the latency (in simulated time units) for a message.

        Parameters
        ----------
        channel:
            The ``(sender, receiver)`` pair, allowing per-channel behaviour.
        send_time:
            Simulated time at which the message was sent.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Reset any internal randomness so a simulation can be replayed."""


class FixedDelay(DelayModel):
    """Every message is delivered exactly ``latency`` time units after sending."""

    # One run-wide constant latency: send times are non-decreasing, so
    # delivery times are too — the FIFO short-circuit lane applies.
    preserves_fifo = True

    def __init__(self, latency: float = 1.0) -> None:
        self.latency = _check_time("latency", latency)

    def delay(self, channel: Channel, send_time: float) -> float:
        return self.latency


class UniformDelay(DelayModel):
    """Delays drawn uniformly at random from ``[min_delay, max_delay]``."""

    def __init__(
        self, min_delay: float = 0.5, max_delay: float = 2.0, seed: Optional[int] = 0
    ) -> None:
        self.min_delay = _check_time("min_delay", min_delay)
        self.max_delay = _check_time("max_delay", max_delay)
        if max_delay < min_delay:
            raise ValueError(
                "need min_delay <= max_delay, got {!r} > {!r}".format(min_delay, max_delay)
            )
        self._seed = seed
        self._rng = random.Random(seed)

    def delay(self, channel: Channel, send_time: float) -> float:
        # What ``random.Random.uniform`` evaluates — the same floats, one frame less.
        return self.min_delay + (self.max_delay - self.min_delay) * self._rng.random()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class PartialSynchronyDelay(DelayModel):
    """The partial-synchrony model of §7.

    Messages sent before ``gst`` experience delays drawn uniformly from
    ``[delta, pre_gst_max]`` (arbitrary but finite — correct channels are
    reliable).  Messages sent at or after ``gst`` are delivered within
    ``delta``.
    """

    def __init__(
        self,
        gst: float = 50.0,
        delta: float = 1.0,
        pre_gst_max: float = 20.0,
        seed: Optional[int] = 0,
    ) -> None:
        self.gst = _check_time("gst", gst)
        self.delta = _check_time("delta", delta, positive=True)
        self.pre_gst_max = _check_time("pre_gst_max", pre_gst_max)
        if pre_gst_max < delta:
            raise ValueError("pre_gst_max must be at least delta")
        self._seed = seed
        self._rng = random.Random(seed)

    def delay(self, channel: Channel, send_time: float) -> float:
        delta = self.delta  # both draws: ``uniform(low, high)``, float for float
        if send_time >= self.gst:
            low = 0.1 * delta
            return low + (delta - low) * self._rng.random()
        # Arbitrary (but finite) delay before GST.  A message sent just before
        # GST may still arrive late, which is allowed by the model.
        return delta + (self.pre_gst_max - delta) * self._rng.random()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


# ---------------------------------------------------------------------- #
# Declarative construction (used by the scenario subsystem)
# ---------------------------------------------------------------------- #
def _build_fixed(seed: Optional[int], **params: Any) -> DelayModel:
    del seed  # deterministic model, no RNG
    return FixedDelay(**params)


def _build_uniform(seed: Optional[int], **params: Any) -> DelayModel:
    return UniformDelay(seed=seed, **params)


def _build_partial_synchrony(seed: Optional[int], **params: Any) -> DelayModel:
    return PartialSynchronyDelay(seed=seed, **params)


register_delay_model(
    "fixed",
    builder=_build_fixed,
    params=("latency",),
    doc="every message is delivered exactly 'latency' time units after sending",
)
register_delay_model(
    "uniform",
    builder=_build_uniform,
    params=("min_delay", "max_delay"),
    doc="asynchronous executions: delays drawn uniformly from [min_delay, max_delay]",
)
register_delay_model(
    "partial-synchrony",
    builder=_build_partial_synchrony,
    params=("gst", "delta", "pre_gst_max"),
    doc="Dwork-Lynch-Stockmeyer: arbitrary delays before GST, within delta after",
)

def build_delay_model(
    kind: str, params: Optional[Mapping[str, Any]] = None, seed: Optional[int] = 0
) -> DelayModel:
    """Build a delay model from a declarative ``(kind, params)`` description.

    ``kind`` names an entry of the :data:`repro.registry.DELAY_MODELS`
    registry; ``params`` supplies the model's keyword arguments (validated
    against the descriptor's schema, so a typo in a scenario file fails loudly
    instead of silently using a default).  ``seed`` feeds the model's RNG and
    is supplied per run, which keeps the description itself free of
    run-specific state.  A value the model refuses is a :class:`ReproError`
    naming the kind and the parameter.
    """
    return DELAY_MODELS.build(kind, seed, **dict(params or {}))
