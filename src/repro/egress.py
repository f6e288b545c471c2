"""Egress: how an answer becomes bytes, the mirror of :mod:`repro.ingress`.

Every JSON a command prints or writes is spelled here.  :func:`canonical` is
compact with sorted keys: a trace line, the sort key of an unordered operation
value, what a digest of an answer hashes.  ``--format json`` prints
:func:`indented` (keys sorted) or :func:`indented_in_order` (keys as
``to_dict`` built them: ``scenario list|show|run|sweep``, ``check DIR``,
``plugins list``).  Both forms stay because both are pinned byte for byte: the
``cli-cold`` benchmark workload hashes ``scenario run --format json`` stdout,
and ``tests/golden`` holds the rest.  A file is written all or nothing
(write-then-rename), so a killed worker or a full disk never leaves a partial
file that would parse as a shorter trace, schedule, incident or report.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from .errors import ReproError


def canonical(value: Any) -> str:
    """``value`` as compact JSON with sorted keys: one line, the same bytes every run."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def indented(value: Any) -> str:
    """``value`` as two-space-indented JSON with sorted keys."""
    return json.dumps(value, indent=2, sort_keys=True)


def indented_in_order(value: Any) -> str:
    """``value`` as two-space-indented JSON, keys in insertion order."""
    return json.dumps(value, indent=2)


class JsonDocument:
    """A result type's ``to_json()``: its ``to_dict()``, :func:`indented`, or
    :func:`indented_in_order` where the class sets ``json_in_order``."""

    json_in_order = False

    def to_json(self) -> str:
        """The ``--format json`` text of this result: the same bytes for every job count."""
        return (indented_in_order if self.json_in_order else indented)(self.to_dict())


def _write(path: str, text: str) -> None:
    partial = "{}.tmp".format(path)
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(partial, path)
    except OSError as error:
        failed = error.filename or path
        raise ReproError("{}: {}".format(failed, error.strerror or error)) from error


def write_json(path: str, payload: Any) -> None:
    """Write ``payload`` to ``path`` as :func:`indented` JSON, all or nothing."""
    _write(path, indented(payload))


def write_json_lines(path: str, records: Iterable[Any]) -> None:
    """Write one :func:`canonical` line per record to ``path``, all or nothing."""
    _write(path, "\n".join(canonical(record) for record in records))
