"""Schedule overrides: replaying a *mutated* delivery schedule.

The nemesis subsystem (:mod:`repro.nemesis`) searches over delivery schedules:
it takes a recorded run and perturbs *when* individual messages arrive without
touching the base delay model's random draw sequence.  The hook lives here, at
the delay-model layer, because the simulator already funnels every delivery
decision through :meth:`repro.sim.DelayModel.delay` — wrapping the base model
is enough to replay an arbitrary finite reordering, and the network/scheduler
stay untouched.

:class:`ScheduleOverride` wraps any registered delay model and applies two
kinds of deterministic perturbation on top of its draws:

* **channel stretches** — multiply every delay on one directed channel by a
  factor (``factor > 1`` starves a channel, ``factor < 1`` races it);
* **delivery nudges** — add extra latency to the *i*-th message sent on a
  channel, which swaps its delivery order with later messages on the same
  channel (and, transitively, across channels).

Both are keyed by the (sender, receiver) channel; nudges additionally carry
the per-channel send index, counted by the wrapper itself.  Because the base
model is consulted first for *every* message — perturbed or not — the base
RNG consumes exactly the same draw sequence as the unperturbed run, so an
empty override replays the original schedule byte for byte.

The model registers as delay-model kind ``"schedule-override"``, whose
parameters are JSON-serializable (the base model as a ``{"kind", "params"}``
description, perturbations as lists), so a mutated schedule is representable
as an ordinary declarative :class:`~repro.scenarios.spec.DelaySpec` and flows
through scenario running, trace recording and ``repro check`` unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import ingress
from ..errors import ReproError
from ..types import Channel
from .delays import DelayModel, build_delay_model, register_delay_model

__all__ = [
    "ScheduleOverride",
    "build_schedule_override",
]


class ScheduleOverride(DelayModel):
    """Perturb a base delay model's schedule without disturbing its RNG.

    Every delivery latency is ``base_delay * stretch(channel) +
    nudge(channel, index)`` clamped to be non-negative, where ``index`` counts
    the messages this wrapper has seen on the channel (0-based, in send
    order).  The base model is always consulted first, so its draw sequence —
    and therefore every *unperturbed* delivery — matches the original run
    exactly.
    """

    #: Stretches and nudges reorder deliveries on purpose, so the override
    #: never qualifies for the FIFO short-circuit lane — even when the base
    #: model would (a stretched FixedDelay is no longer monotone).
    preserves_fifo = False

    def __init__(
        self,
        base: DelayModel,
        stretches: Optional[Mapping[Channel, float]] = None,
        nudges: Optional[Mapping[Tuple[Channel, int], float]] = None,
    ) -> None:
        for channel, factor in (stretches or {}).items():
            if not (math.isfinite(factor) and factor >= 0):
                raise ReproError(
                    "stretches: factor for channel {!r} must be a finite non-negative number, "
                    "got {!r}".format(channel, factor)
                )
        for (channel, index), extra in (nudges or {}).items():
            # A negative nudge is allowed: the latency is clamped at zero.
            if not math.isfinite(extra):
                raise ReproError(
                    "nudges: extra latency of message {} on channel {!r} must be finite, "
                    "got {!r}".format(index, channel, extra)
                )
        self.base = base
        self.stretches = dict(stretches or {})
        self.nudges = dict(nudges or {})
        # Per channel, one record built at its first message: [next send index,
        # stretch, that channel's nudges by index] — a message costs one lookup.
        self._channels: Dict[Channel, List[Any]] = {}

    def delay(self, channel: Channel, send_time: float) -> float:
        latency = self.base.delay(channel, send_time)
        record = self._channels.get(channel)
        if record is None:
            nudges = {i: extra for (c, i), extra in self.nudges.items() if c == channel}
            record = self._channels[channel] = [0, self.stretches.get(channel, 1.0), nudges]
        index, stretch, nudges = record
        record[0] = index + 1
        latency *= stretch
        if nudges:
            latency += nudges.get(index, 0.0)
        # A negative nudge may not deliver into the past.
        return latency if latency > 0.0 else 0.0


def build_schedule_override(
    seed: Optional[int],
    base: Optional[Mapping[str, Any]] = None,
    stretches: Optional[Iterable[Sequence[Any]]] = None,
    nudges: Optional[Iterable[Sequence[Any]]] = None,
) -> ScheduleOverride:
    """Build a :class:`ScheduleOverride` from its declarative description.

    ``base`` is a nested ``{"kind", "params"}`` delay-model description (the
    run seed is forwarded to it, so the wrapped model draws exactly what the
    unwrapped model would); ``stretches``/``nudges`` are ``[src, dst,
    factor]`` / ``[src, dst, index, extra]`` rows
    (:func:`repro.ingress.channel_rows`).
    """
    base = ingress.mapping(base or {}, "'base'")
    kind = ingress.text(base.get("kind", "uniform"), "'base' kind")
    params = ingress.mapping(base.get("params", {}), "'base' params")
    inner = build_delay_model(kind, params, seed=seed)
    stretches = ingress.channel_rows(stretches or [], "stretches", (float,))
    nudges = ingress.channel_rows(nudges or [], "nudges", (int, float))
    return ScheduleOverride(
        inner,
        stretches={(src, dst): factor for src, dst, factor in stretches},
        nudges={((src, dst), index): extra for src, dst, index, extra in nudges},
    )


register_delay_model(
    "schedule-override",
    builder=build_schedule_override,
    params=("base", "stretches", "nudges"),
    doc="a base delay model with per-channel stretches and per-message nudges "
    "(the nemesis subsystem's mutated-schedule replay hook)",
    tags=("nemesis",),
)
