"""Plugin loading: import third-party modules that register extensions.

A plugin is any importable module that calls the public ``register_*``
functions of :mod:`repro.registry` at import time — registering protocols,
topologies, delay models, trace checkers or scenarios without touching a
single core module.  Plugins are named by module path and loaded either

* explicitly, via ``repro --plugin my_module …`` (repeatable), or
* from the environment, via ``REPRO_PLUGINS=mod1,mod2`` (comma-separated;
  honoured by every CLI invocation, including the worker processes the engine
  forks), or
* programmatically, via :func:`load_plugins` from library code.

Loading is idempotent — a module is imported once, and re-requesting it is a
no-op — and attributed: every descriptor registered while the plugin module
imports carries the plugin's name as its ``origin``, which is what
``repro plugins list`` reports.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Iterable, List, Optional

from ..errors import ReproError
from .core import ALL_REGISTRIES, Descriptor, set_current_origin

__all__ = [
    "PLUGINS_ENV_VAR",
    "load_env_plugins",
    "load_plugin",
    "load_plugins",
    "loaded_plugins",
    "plugin_contributions",
]

#: Environment variable naming plugin modules to load (comma-separated).
PLUGINS_ENV_VAR = "REPRO_PLUGINS"

#: Loaded plugin module names, in load order.
_LOADED: Dict[str, None] = {}


def loaded_plugins() -> List[str]:
    """The plugin modules loaded so far, in load order."""
    return list(_LOADED)


def plugin_contributions(module: str) -> List[Descriptor]:
    """Every descriptor a loaded plugin registered, in registry order."""
    contributions: List[Descriptor] = []
    for registry in ALL_REGISTRIES:
        contributions.extend(registry.from_origin(module))
    return contributions


def load_plugin(module: str) -> List[Descriptor]:
    """Import one plugin module and return the descriptors it registered.

    Already-loaded modules are not re-imported (their previous contributions
    are returned).  Import failures — including registration errors raised by
    the plugin itself — surface as :class:`ReproError` naming the module.
    """
    module = module.strip()
    if not module:
        raise ReproError("empty plugin module name")
    if module in _LOADED:
        return plugin_contributions(module)
    for registry in ALL_REGISTRIES:
        # Builtins first: whatever the plugin imports or registers must find
        # them in place, ordered ahead of it and not attributed to it.
        registry._import_homes()
    previous = set_current_origin(module)
    try:
        importlib.import_module(module)
    except ReproError as error:
        _discard_contributions(module)
        raise ReproError("plugin {!r} failed to register: {}".format(module, error))
    except Exception as error:  # noqa: BLE001 - surface any import-time failure
        _discard_contributions(module)
        raise ReproError(
            "plugin {!r} failed to import: {}: {}".format(
                module, type(error).__name__, error
            )
        )
    finally:
        set_current_origin(previous)
    _LOADED[module] = None
    return plugin_contributions(module)


def _discard_contributions(module: str) -> None:
    """Roll back everything a failed plugin import managed to register.

    A module that raises partway through its top level may already have
    registered descriptors; leaving them in place would make the extensions
    show up unattributed (the module never reaches ``loaded_plugins``) and a
    retried import would fail with "already registered".
    """
    for registry in ALL_REGISTRIES:
        registry.discard_origin(module)


def load_plugins(modules: Iterable[str]) -> List[str]:
    """Load several plugin modules in order; returns the names actually loaded."""
    loaded = []
    for module in modules:
        if module.strip():
            load_plugin(module)
            loaded.append(module.strip())
    return loaded


def load_env_plugins(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Load the plugins named by ``REPRO_PLUGINS`` (if set)."""
    env = environ if environ is not None else os.environ
    spec = env.get(PLUGINS_ENV_VAR, "")
    if not spec.strip():
        return []
    return load_plugins(part for part in spec.split(","))
