"""The typed extension registry underpinning every dispatch family.

Historically each extensible axis of the reproduction — protocols, topologies,
delay models, trace checkers, named scenarios — kept its own hardcoded tuple of
names plus an ``if/elif`` chain, and adding an entry meant editing core
modules.  This module provides the one mechanism they all share:

* :class:`Descriptor` — a typed record of one extension: its name, which
  registry kind it belongs to, the builder callable that materializes it, the
  parameter names it accepts, a doc string, free-form tags, the module that
  registered it (``origin``, ``"builtin"`` for the library's own entries) and a
  kind-specific ``extras`` mapping for additional hooks (e.g. a protocol's
  client-schedule builder and safety judge).
* :class:`Registry` — a per-kind, insertion-ordered mapping from names to
  descriptors with rich "unknown name" errors: candidates are always listed in
  sorted order and a close miss earns a "did you mean" suggestion.

Registries are deterministic by construction: iteration follows registration
order (the built-in catalogue order, then plugins in load order), and error
messages depend only on the registered names — never on hash seeds.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - Python < 3.9 keeps the typing aliases
    from collections.abc import Mapping as MappingABC
except ImportError:  # pragma: no cover
    from collections import Mapping as MappingABC  # type: ignore

from ..errors import ReproError

__all__ = [
    "ALL_REGISTRIES",
    "Descriptor",
    "Registry",
    "current_origin",
    "set_current_origin",
]

#: The origin recorded for descriptors registered by the library itself.
BUILTIN_ORIGIN = "builtin"

#: Module name of the plugin currently being imported (see
#: :mod:`repro.registry.plugins`); descriptors registered while it is set are
#: attributed to that plugin.
_CURRENT_ORIGIN: Optional[str] = None

#: Every registry ever constructed, in construction order — the plugin layer
#: uses this to report what a loaded module contributed.
ALL_REGISTRIES: List["Registry"] = []

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_MISSING = object()


def current_origin() -> str:
    """The origin attributed to registrations happening right now."""
    return _CURRENT_ORIGIN if _CURRENT_ORIGIN is not None else BUILTIN_ORIGIN


def set_current_origin(origin: Optional[str]) -> Optional[str]:
    """Set the registration origin; returns the previous value (for restore)."""
    global _CURRENT_ORIGIN
    previous = _CURRENT_ORIGIN
    _CURRENT_ORIGIN = origin
    return previous


@dataclass(frozen=True)
class Descriptor:
    """One registered extension: name, builder, parameter schema, metadata.

    ``builder`` is the kind-specific constructor (each registry documents its
    builder signature); ``params`` lists the parameter names the builder
    accepts (``None`` disables validation); ``extras`` carries additional
    kind-specific hooks — for example a protocol descriptor's client-schedule
    builder, safety judge and workload defaults.
    """

    name: str
    kind: str
    builder: Callable[..., Any]
    params: Optional[Tuple[str, ...]] = None
    doc: str = ""
    tags: Tuple[str, ...] = ()
    origin: str = BUILTIN_ORIGIN
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a {} descriptor needs a non-empty name".format(self.kind))

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


class Registry(MappingABC):
    """An insertion-ordered name → :class:`Descriptor` mapping for one kind.

    ``noun`` is the phrase used in "unknown …" errors (e.g. ``"protocol
    kind"``); ``param_noun`` the shorter phrase used in parameter-validation
    errors (e.g. ``"protocol"``).  Iteration order is registration order, so
    every listing derived from a registry is deterministic.

    ``homes`` names the modules that register the built-in entries when they
    import.  The registry imports them itself, in order, the first time anyone
    looks at it — or registers into it from outside them — so it is fully
    populated, builtins first, by the time it can be observed, without any
    package ``__init__`` having to import every layer up front.
    """

    def __init__(
        self,
        kind: str,
        noun: str,
        param_noun: Optional[str] = None,
        homes: Tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.noun = noun
        self.param_noun = param_noun if param_noun is not None else noun
        self._homes = tuple(homes)
        self._table: Dict[str, Descriptor] = {}
        ALL_REGISTRIES.append(self)

    def _import_homes(self) -> None:
        """Import the pending home modules, in order.

        They are cleared first, so the ``register`` calls the homes make (and
        anything they look up meanwhile) pass straight through.
        """
        homes, self._homes = self._homes, ()
        for home in homes:
            importlib.import_module(home)

    @property
    def _entries(self) -> Dict[str, Descriptor]:
        """The name → descriptor table, once every home module has registered."""
        if self._homes:
            self._import_homes()
        return self._table

    # ------------------------------------------------------------------ #
    # Mapping protocol (iteration yields names, lookup yields descriptors)
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, name: str) -> Descriptor:
        # Mapping contract: missing keys raise KeyError, so ``name in registry``
        # returns False and inherited ``Mapping`` helpers behave normally.  The
        # rich unknown-name error lives in :meth:`get`.
        return self._entries[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Registry({!r}, entries={})".format(self.kind, list(self._entries))

    # ------------------------------------------------------------------ #
    # Registration and lookup
    # ------------------------------------------------------------------ #
    def register(self, descriptor: Descriptor, replace: bool = False) -> Descriptor:
        """Add a descriptor (``replace=True`` overwrites an existing entry)."""
        if descriptor.kind != self.kind:
            raise ReproError(
                "descriptor {!r} has kind {!r}, expected {!r}".format(
                    descriptor.name, descriptor.kind, self.kind
                )
            )
        if not any(home in sys.modules for home in self._homes):
            # No home is importing or imported, so this is not a home registering
            # itself: the builtins go in first.
            self._import_homes()
        if descriptor.name in self._table and not replace:
            raise ReproError(
                "{} {!r} is already registered".format(self.noun, descriptor.name)
            )
        if descriptor.origin == BUILTIN_ORIGIN and current_origin() != BUILTIN_ORIGIN:
            descriptor = Descriptor(
                name=descriptor.name,
                kind=descriptor.kind,
                builder=descriptor.builder,
                params=descriptor.params,
                doc=descriptor.doc,
                tags=descriptor.tags,
                origin=current_origin(),
                extras=dict(descriptor.extras),
            )
        self._table[descriptor.name] = descriptor
        return descriptor

    def get(self, name: str, default: Any = _MISSING) -> Any:
        """Look up a descriptor; unknown names raise a rich :class:`ReproError`.

        With an explicit ``default`` this behaves like :meth:`Mapping.get`
        instead, returning the default for a missing name.
        """
        try:
            return self._entries[name]
        except KeyError:
            if default is not _MISSING:
                return default
            raise self.unknown_name_error(name)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def descriptors(self) -> List[Descriptor]:
        """Registered descriptors, in registration order."""
        return list(self._entries.values())

    def from_origin(self, origin: str) -> List[Descriptor]:
        """The descriptors a given origin (plugin module) contributed."""
        return [d for d in self._entries.values() if d.origin == origin]

    def discard_origin(self, origin: str) -> List[str]:
        """Remove every descriptor a given origin registered; returns the names.

        Used to roll back a plugin whose import failed partway, so a retry
        does not trip over "already registered" and half-registered extensions
        never linger unattributed.
        """
        removed = [name for name, d in self._entries.items() if d.origin == origin]
        for name in removed:
            del self._entries[name]
        return removed

    # ------------------------------------------------------------------ #
    # Errors
    # ------------------------------------------------------------------ #
    def unknown_name_error(self, name: str, extra: Sequence[str] = ()) -> ReproError:
        """The canonical unknown-name error: sorted candidates + did-you-mean."""
        import difflib  # only the error path pays for it

        candidates = sorted(set(self._entries) | set(extra))
        message = "unknown {} {!r}; expected one of {}".format(self.noun, name, candidates)
        close = difflib.get_close_matches(str(name), candidates, n=1, cutoff=0.6)
        if close:
            message += " (did you mean {!r}?)".format(close[0])
        return ReproError(message)

    def build(self, name: str, /, *args: Any, **params: Any) -> Any:
        """What ``name``'s builder makes of ``args`` and ``params``; the only builder call.

        ``params`` are checked against the schema first.  A ``TypeError`` or
        ``ValueError`` becomes a :class:`ReproError` starting ``<param_noun>
        '<name>': ``; a ``ReproError`` (``HistoryError`` too) already says what
        was refused and passes through unchanged.
        """
        descriptor = self.validate_params(name, params)
        try:
            return descriptor.builder(*args, **params)
        except (TypeError, ValueError) as error:
            raise ReproError("{} {!r}: {}".format(self.param_noun, name, error)) from error

    def validate_params(self, name: str, params: Mapping[str, Any]) -> Descriptor:
        """Look up ``name`` and check ``params`` against its schema.

        A schema of ``None`` accepts anything (the builder checks for itself);
        otherwise an unknown key raises :class:`ReproError` listing the
        offenders in sorted order.
        """
        descriptor = self.get(name)
        unknown = set(params) - set(params if descriptor.params is None else descriptor.params)
        if unknown:
            raise ReproError(
                "{} {!r} does not accept parameter(s) {}".format(
                    self.param_noun, name, sorted(unknown)
                )
            )
        return descriptor
