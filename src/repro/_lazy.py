"""Lazy package exports (PEP 562), shared by every fan-out package ``__init__``.

A package ``__init__`` that imports all its submodules makes every command pay
for every layer.  :func:`lazy_exports` turns a ``{".submodule": names}`` table
into the module-level ``__getattr__`` / ``__dir__`` pair: a name — or a
submodule itself — is imported on first access and cached in the package
namespace, so ``pkg.name``, ``from pkg import name``, ``from pkg import *``
and ``dir(pkg)`` behave exactly as if ``__init__`` had imported it eagerly.
``names`` is a tuple, or a ``{exported name: name in the submodule}`` dict
where the two differ (``repro.api`` re-exports layer functions under its own
names).
"""

import importlib


def lazy_exports(namespace, exports):
    """``(__getattr__, __dir__)`` for the module whose ``globals()`` is ``namespace``."""
    package = namespace["__package__"]
    origin = {
        name: (module, names[name] if isinstance(names, dict) else name)
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name):
        if name in origin:
            module, target = origin[name]
            value = getattr(importlib.import_module(module, package), target)
        elif "." + name in exports:
            value = importlib.import_module("." + name, package)
        else:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(namespace["__name__"], name)
            )
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin) | {module[1:] for module in exports})

    return __getattr__, __dir__
