"""A complete worked example of a ``repro`` plugin.

This module registers a third-party **topology**, **delay model**,
**protocol** and **scenario** through the public ``repro.registry`` surface —
without touching a single core module.  Load it with this file's directory on
``PYTHONPATH`` and either::

    repro --plugin demo_plugin scenario run relay-audit
    REPRO_PLUGINS=demo_plugin repro scenario run relay-audit

After loading, every CLI command treats the extensions as first class:

* ``repro simulate --builtin relay-triangle --object chatty-register``
* ``repro scenario run relay-audit --jobs 2 --record-traces DIR`` (the batch
  shards over the engine like any built-in scenario)
* ``repro check DIR`` (trace re-verification re-judges the plugin protocol
  through its registered judge)
* ``repro plugins list`` (shows this module and what it registered)

The walkthrough in ``docs/extending.md`` explains each step.
"""

import functools

from repro.checkers import check_register_witness_first
from repro.experiments import alternating_write_read_schedule
from repro.failures import FailProneSystem, FailurePattern
from repro.protocols import GQSRegister
from repro.registry import (
    register_delay_model,
    register_protocol,
    register_scenario,
    register_topology,
)
from repro.scenarios import (
    DelaySpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim import UniformDelay


# ---------------------------------------------------------------------- #
# 1. A topology: three relays, any one of which may crash.
# ---------------------------------------------------------------------- #
def relay_triangle(name=None):
    """Three relay processes; each pattern crashes exactly one of them."""
    processes = ("ra", "rb", "rc")
    patterns = [
        FailurePattern.crash_only({p}, name="{}-down".format(p)) for p in processes
    ]
    return FailProneSystem(processes, patterns, name=name or "relay-triangle")


def _relay_triangle_builtin(text):
    """``--builtin relay-triangle`` resolves to this topology."""
    return relay_triangle() if text == "relay-triangle" else None


register_topology(
    "relay-triangle",
    builder=relay_triangle,
    builtin=("relay-triangle", _relay_triangle_builtin),
    doc="three relay processes, any single one of which may crash",
)


# ---------------------------------------------------------------------- #
# 2. A delay model: asymmetric jitter around a base latency.
# ---------------------------------------------------------------------- #
def _build_relay_jitter(seed, base=1.0, jitter=0.5):
    """Uniform noise in ``[base, base + jitter]`` — a skewed LAN."""
    return UniformDelay(base, base + jitter, seed=seed)


register_delay_model(
    "relay-jitter",
    builder=_build_relay_jitter,
    params=("base", "jitter"),
    doc="uniform noise in [base, base + jitter] above a base latency",
)


# ---------------------------------------------------------------------- #
# 3. A protocol: the GQS register pushed aggressively ("chatty").
# ---------------------------------------------------------------------- #
def _chatty_register_factory(quorum_system, params):
    return functools.partial(
        GQSRegister, quorum_system=quorum_system, **{"push_interval": 0.5, **params}
    )


def _judge_chatty_register(history, quorum_system, pattern):
    outcome = check_register_witness_first(history, initial_value=0)
    return {
        "safe": outcome.is_linearizable,
        "checker": "demo-witness-first",
        "explored_states": outcome.explored_states,
    }


register_protocol(
    "chatty-register",
    factory=_chatty_register_factory,
    schedule=alternating_write_read_schedule,
    judge=_judge_chatty_register,
    defaults={"op_spacing": 6.0, "max_time": 4_000.0},
    params=("push_interval",),
    safety_label="linearizable={}".format,
    repeat_ops=True,
    doc="the GQS register with an aggressive 0.5-unit push interval",
)


# ---------------------------------------------------------------------- #
# 4. A scenario wiring the three together (register the parts first: the
#    spec validates its components against the registries on construction).
# ---------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        name="relay-audit",
        description=(
            "Third-party demo: the chatty register on the relay triangle with "
            "relay ra crashed from the start, under jittery LAN delays."
        ),
        paper_section="(plugin demo)",
        topology=TopologySpec("relay-triangle"),
        failure=FailureSpec(pattern="ra-down"),
        delay=DelaySpec("relay-jitter", {"base": 0.8, "jitter": 0.6}),
        protocol=ProtocolSpec("chatty-register", {"push_interval": 0.5}),
        workload=WorkloadSpec(ops_per_process=2, op_spacing=6.0, max_time=4_000.0),
        default_runs=2,
    )
)
