"""Ingress: how a file from outside becomes data, or one attributed error.

Every file the CLI loads — a fail-prone spec, a membership-delta stream, a
trace, a nemesis schedule, an incident report — is read by :func:`read_json`
or :func:`read_json_lines`.  Each hands the decoded value to the caller's
``build`` function, and whatever is wrong with the file — unreadable, not
UTF-8, not JSON, nested past the decoder's depth, or a field ``build``
refuses — ends in one :class:`~repro.errors.ReproError` that starts with
``PATH:`` (``PATH:LINE:`` for JSON lines).  The field checks below are the
ones ``build`` functions use, so one rule decides what a number, a process id
or a row is, whichever file it comes from.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .errors import ReproError

T = TypeVar("T")


# ---------------------------------------------------------------------- #
# Readers
# ---------------------------------------------------------------------- #
def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise ReproError("{}: {}".format(path, error.strerror or error)) from error


def _build(where: str, raw: bytes, build: Callable[[Any], T]) -> T:
    """``build`` of the JSON text ``raw``; an error is re-raised naming ``where``."""
    try:
        try:
            value = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # JSONDecodeError, UnicodeDecodeError, or nesting past the decoder's depth
            raise ReproError("invalid JSON: {}".format(error)) from error
        try:
            return build(value)
        except RecursionError as error:  # valid JSON, nested past a reader's depth
            raise ReproError("nested too deeply to read: {}".format(error)) from error
    except ReproError as error:
        raise type(error)("{}: {}".format(where, error)) from error


def read_json(path: str, build: Callable[[Any], T]) -> T:
    """``build`` of the JSON document at ``path``; every error starts with ``path``."""
    return _build(path, _read(path), build)


def read_json_lines(
    path: str, build: Callable[[Any], T], comments: bool = False
) -> List[Tuple[str, T]]:
    """``(PATH:LINE, build(record))`` for every non-blank line of the JSONL file at ``path``.

    Every error starts with ``PATH:LINE`` (or ``PATH`` when the file cannot be
    read).  With ``comments``, lines starting with ``#`` are skipped too.
    """
    records = []
    for number, raw in enumerate(_read(path).split(b"\n"), start=1):
        raw = raw.strip()
        if raw and not (comments and raw.startswith(b"#")):
            where = "{}:{}".format(path, number)
            records.append((where, _build(where, raw, build)))
    return records


# ---------------------------------------------------------------------- #
# Field checks: ``what`` names the field in the error, the value is returned
# ---------------------------------------------------------------------- #
def mapping(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ReproError("{} must be a JSON object, got {!r}".format(what, value))
    return value


def required(data: Dict[str, Any], key: str, what: str) -> Any:
    if key not in data:
        raise ReproError("{} is missing {!r}".format(what, key))
    return data[key]


def schema(data: Dict[str, Any], version: int, what: str) -> None:
    """``data["schema"]`` is ``version``: a reader refuses layouts it does not know."""
    if data.get("schema") != version:
        raise ReproError("unsupported {} schema {!r} (this build reads schema {})".format(
            what, data.get("schema"), version))


def text(value: Any, what: str, optional: bool = False) -> Optional[str]:
    if not (isinstance(value, str) or (optional and value is None)):
        raise ReproError("{} must be a string, got {!r}".format(what, value))
    return value


def names(value: Any, what: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ReproError("{} must be a list of strings, got {!r}".format(what, value))
    return value


def number(value: Any, what: str, kind: type = float, finite: bool = False) -> Any:
    """``value`` as ``kind``: a JSON number that is not a boolean.

    An ``int`` takes an integral value (``2.0`` is 2, ``2.7`` is refused); a
    ``finite`` number (every time) takes neither NaN nor an infinity.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int:
            if isinstance(value, int) or value.is_integer():
                return int(value)
        elif not finite or math.isfinite(value):
            try:
                return float(value)
            except OverflowError:  # an integer literal past the float range
                pass
    noun = "an integer" if kind is int else "a finite number" if finite else "a number"
    raise ReproError("{} must be {}, got {!r}".format(what, noun, value))


def numeric_field(
    data: Dict[str, Any], key: str, kind: type = float, default: Any = None, finite: bool = False
) -> Any:
    """``data[key]`` by the :func:`number` rule; absent or ``null`` is ``default``."""
    value = data.get(key)
    if value is None:
        return default
    return number(value, "field {!r}".format(key), kind, finite)


def is_process_id(value: Any) -> bool:
    """Whether outside data names a process: a string or a finite number, never a boolean."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def process_id(value: Any, what: str) -> Any:
    if not is_process_id(value):
        raise ReproError(
            "{} must name a process (a string or number), got {!r}".format(what, value)
        )
    return value


def process_ids(value: Any, what: str) -> List[Any]:
    if not isinstance(value, (list, tuple)) or not all(map(is_process_id, value)):
        raise ReproError(
            "{} must be a list of process ids (strings or numbers), got {!r}".format(what, value)
        )
    return value


def channel_rows(value: Any, what: str, kinds: Sequence[type] = ()) -> Tuple[tuple, ...]:
    """``value`` as ``(sender, receiver, *numbers)`` rows, one number per ``kinds`` entry:
    a channel list (no ``kinds``), schedule stretches ``(float,)`` or nudges ``(int, float)``."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and len(row) == 2 + len(kinds)
        and all(map(is_process_id, row[:2]))
        for row in value
    ):
        shape = ["sender", "receiver"] + ["integer" if kind is int else "number" for kind in kinds]
        raise ReproError("{} must be a list of [{}] rows, got {!r}".format(
            what, ", ".join(shape), value))
    return tuple(
        tuple(row[:2]) + tuple(map(number, row[2:], [what + " entry"] * len(kinds), kinds))
        for row in value
    )
