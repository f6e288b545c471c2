"""Central extension registry: one typed mechanism for every dispatch family.

Six registries cover the reproduction's extensible axes.  Each maps names to
:class:`~repro.registry.core.Descriptor` records with deterministic iteration
order (builtins in catalogue order, then plugins in load order) and rich
"unknown name, did you mean…" errors:

=================  ==================================  =========================
registry           builder signature                   registered by
=================  ==================================  =========================
:data:`PROTOCOLS`  ``(quorum_system, params) → factory``  :mod:`repro.experiments.workloads`
:data:`TOPOLOGIES` ``(**params) → FailProneSystem``       :mod:`repro.failures.generators`
:data:`DELAY_MODELS` ``(seed, **params) → DelayModel``    :mod:`repro.sim.delays`
:data:`CHECKERS`   ``(trace) → verdict row``              :mod:`repro.traces.check`
:data:`SCENARIOS`  ``() → ScenarioSpec``                  :mod:`repro.scenarios.registry`
:data:`NEMESIS`    ``(**params) → NemesisStrategy``       :mod:`repro.nemesis.strategies`
=================  ==================================  =========================

Third-party code extends any of them through the ``register_*`` functions
below, typically from a plugin module loaded via ``repro --plugin mod`` or
``REPRO_PLUGINS=mod1,mod2`` (see :mod:`repro.registry.plugins` and
``docs/extending.md``).  The built-in entries are registered when the owning
module imports, and each registry knows its owning modules: it imports them
itself the first time it is looked at or registered into from anywhere else,
and all six do so before a plugin loads.  So a registry is always fully
populated — builtins in catalogue order, then plugins in load order — by the
time user code can observe it, and a command that never looks at a registry
never imports the layer behind it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .core import (
    ALL_REGISTRIES,
    Descriptor,
    Registry,
)
from .plugins import (
    PLUGINS_ENV_VAR,
    load_env_plugins,
    load_plugin,
    load_plugins,
    loaded_plugins,
    plugin_contributions,
)

__all__ = [
    "ALL_REGISTRIES",
    "CHECKERS",
    "DELAY_MODELS",
    "Descriptor",
    "NEMESIS",
    "PLUGINS_ENV_VAR",
    "PROTOCOLS",
    "Registry",
    "SCENARIOS",
    "TOPOLOGIES",
    "load_env_plugins",
    "load_plugin",
    "load_plugins",
    "loaded_plugins",
    "plugin_contributions",
    "register_checker",
    "register_delay_model",
    "register_nemesis_strategy",
    "register_protocol",
    "register_scenario",
    "register_topology",
]

#: Protocol kinds the workload layer can drive (register, snapshot, …).
PROTOCOLS = Registry(
    "protocol", noun="protocol kind", param_noun="protocol",
    homes=("repro.experiments.workloads",),
)

#: Fail-prone system generators (figure1, ring, geo, …).
TOPOLOGIES = Registry(
    "topology", noun="topology kind", param_noun="topology",
    homes=("repro.failures.generators",),
)

#: Message-delay models of the network simulator (fixed, uniform, …).
DELAY_MODELS = Registry(
    "delay-model", noun="delay model kind", param_noun="delay model",
    homes=("repro.sim.delays", "repro.sim.override"),
)

#: Trace re-verification checkers of ``repro check`` (auto, wing-gong, …).
CHECKERS = Registry("checker", noun="checker", homes=("repro.traces.check",))

#: The named scenario catalogue (``repro scenario …``).
SCENARIOS = Registry("scenario", noun="scenario", homes=("repro.scenarios.registry",))

#: Adversarial search strategies of ``repro nemesis hunt`` (random, hill-climb, …).
NEMESIS = Registry(
    "nemesis", noun="nemesis strategy", param_noun="nemesis strategy",
    homes=("repro.nemesis.strategies",),
)


# ---------------------------------------------------------------------- #
# Typed registration helpers (the public plugin surface)
# ---------------------------------------------------------------------- #
def register_protocol(
    name: str,
    *,
    factory: Callable[..., Any],
    schedule: Callable[..., Any],
    judge: Callable[..., Dict[str, Any]],
    defaults: Mapping[str, float],
    params: Optional[Tuple[str, ...]] = (),
    default_delay: Optional[Tuple[str, Mapping[str, Any]]] = None,
    safety_label: Optional[Callable[[bool], str]] = None,
    finalize: Optional[Callable[[Any], None]] = None,
    effort_probe: Optional[Callable[..., int]] = None,
    repeat_ops: bool = False,
    doc: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Descriptor:
    """Register a protocol the workload layer (and hence every scenario,
    ``repro simulate`` and ``repro check``) can drive.

    * ``factory(quorum_system, params)`` → a process factory for
      :class:`repro.sim.Cluster`;
    * ``schedule(invoking, ops_per_process, op_spacing)`` → the client plan, a
      list of :class:`repro.experiments.Invocation`;
    * ``judge(history, quorum_system, pattern)`` → the safety verdict dict
      (``{"safe", "checker", "explored_states"}``) — shared by the inline path
      and trace re-verification, so the two can never drift;
    * ``defaults`` → ``{"op_spacing": …, "max_time": …}`` canonical workload
      values;
    * ``default_delay`` → the ``(kind, params)`` pair naming the
      :data:`DELAY_MODELS` entry a workload uses when it picks none (default:
      the asynchronous ``("uniform", {"min_delay": 0.4, "max_delay": 1.6})``),
      so a run's recorded delay always says how to rebuild it;
    * ``safety_label(verdict)`` → the human-readable CLI verdict line;
    * ``finalize(result)`` → optional post-processing of a finished
      :class:`~repro.experiments.WorkloadResult`;
    * ``effort_probe(history, quorum_system, pattern)`` → optional badness
      signal for the nemesis search (:mod:`repro.nemesis`): how much work
      verifying the history genuinely costs.  Protocols whose ``judge``
      short-circuits (a witness-first checker) supply a probe running the
      complete search, so the nemesis optimizes real verification effort
      rather than a constant; without one the judge's ``explored_states``
      is used;
    * ``repeat_ops`` → whether ``repro simulate --ops N`` issues ``N``
      operations per process (true for register-like protocols) or one.

    Tag a protocol ``"no-safety-claim"`` when it makes no safety claim under
    channel failures (like the Paxos baseline): its simulations then report
    but do not gate on the verdict.
    """
    missing = {key for key in ("op_spacing", "max_time") if key not in defaults}
    if missing:
        raise ValueError("protocol defaults need {}".format(sorted(missing)))
    return PROTOCOLS.register(
        Descriptor(
            name=name,
            kind="protocol",
            builder=factory,
            params=tuple(params) if params is not None else None,
            doc=doc,
            tags=tuple(tags),
            extras={
                "schedule": schedule,
                "judge": judge,
                "defaults": dict(defaults),
                "default_delay": default_delay
                or ("uniform", {"min_delay": 0.4, "max_delay": 1.6}),
                "safety_label": safety_label,
                "finalize": finalize,
                "effort_probe": effort_probe,
                "repeat_ops": repeat_ops,
            },
        ),
        replace=replace,
    )


def register_topology(
    name: str,
    *,
    builder: Callable[..., Any],
    params: Optional[Tuple[str, ...]] = None,
    builtin: Optional[Tuple[str, Callable[[str], Any]]] = None,
    doc: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Descriptor:
    """Register a fail-prone system generator.

    ``builder(**params)`` must return a :class:`repro.failures.FailProneSystem`
    from JSON-representable keyword parameters, so the topology can be named
    in declarative scenario files.  ``builtin`` optionally exposes the
    topology to ``--builtin`` name parsing as a ``(form, matcher)`` pair: the
    ``form`` is the help text (e.g. ``"ring-<n>"``) and ``matcher(text)``
    returns a built system when the name matches, else ``None``; a
    ``ValueError`` it raises reports a name of the form with invalid
    parameters (``built-in system 'NAME': <reason>``).
    """
    extras: Dict[str, Any] = {}
    if builtin is not None:
        form, matcher = builtin
        extras["builtin"] = (form, matcher)
    return TOPOLOGIES.register(
        Descriptor(
            name=name,
            kind="topology",
            builder=builder,
            params=tuple(params) if params is not None else None,
            doc=doc,
            tags=tuple(tags),
            extras=extras,
        ),
        replace=replace,
    )


def register_delay_model(
    name: str,
    *,
    builder: Callable[..., Any],
    params: Tuple[str, ...] = (),
    doc: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Descriptor:
    """Register a message-delay model.

    ``builder(seed, **params)`` must return a :class:`repro.sim.DelayModel`;
    the ``seed`` is supplied per run by the engine so the description itself
    stays free of run-specific state.
    """
    return DELAY_MODELS.register(
        Descriptor(
            name=name,
            kind="delay-model",
            builder=builder,
            params=tuple(params),
            doc=doc,
            tags=tuple(tags),
        ),
        replace=replace,
    )


def register_checker(
    name: str,
    *,
    judge: Callable[[Any], Dict[str, Any]],
    doc: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Descriptor:
    """Register a trace re-verification checker (a ``repro check`` mode).

    ``judge(trace)`` receives a parsed :class:`repro.traces.Trace` and returns
    ``{"safe": bool, "explored": int, "checker": str}``.
    """
    return CHECKERS.register(
        Descriptor(name=name, kind="checker", builder=judge, doc=doc, tags=tuple(tags)),
        replace=replace,
    )


def register_nemesis_strategy(
    name: str,
    *,
    builder: Callable[..., Any],
    params: Tuple[str, ...] = (),
    doc: str = "",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Descriptor:
    """Register an adversarial search strategy for ``repro nemesis hunt``.

    ``builder(**params)`` must return a fresh
    :class:`repro.nemesis.NemesisStrategy` instance — strategies are stateful
    per hunt, so the builder is called once per invocation.  The strategy
    decides which corpus entry each mutant descends from and which evaluated
    mutants survive; see :mod:`repro.nemesis.strategies` for the contract.
    """
    return NEMESIS.register(
        Descriptor(
            name=name,
            kind="nemesis",
            builder=builder,
            params=tuple(params),
            doc=doc,
            tags=tuple(tags),
        ),
        replace=replace,
    )


def register_scenario(spec: Any, replace: bool = False) -> Any:
    """Add a :class:`~repro.scenarios.ScenarioSpec` to the scenario catalogue.

    (Also exported as :func:`repro.scenarios.register_scenario`; the spec's
    components are validated against the other registries on construction, so
    register any protocol or topology the scenario references first.)
    """
    SCENARIOS.register(
        Descriptor(
            name=spec.name,
            kind="scenario",
            builder=lambda spec=spec: spec,
            doc=spec.description,
            extras={"spec": spec},
        ),
        replace=replace,
    )
    return spec
