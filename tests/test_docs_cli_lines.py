"""Every ``repro ...`` command line the prose shows must still parse.

README.md and ``docs/*.md`` teach the CLI through fenced shell blocks.  A flag
or a registry name that leaves the program must leave the prose with it, so
this test feeds each documented ``repro ...`` / ``python -m repro ...`` line
through :func:`repro.cli.build_parser` — the real parser, with its
registry-generated ``choices`` — and fails on the first usage error.

Placeholders the docs use for "your value here" are substituted with a value
the parser accepts (:data:`PLACEHOLDERS`); lines that cannot be parsed without
side effects are skipped by an explicit marker (:data:`SKIP_MARKERS`), never
silently.
"""

from __future__ import annotations

import glob
import os
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTS = [os.path.join(ROOT, "README.md")] + sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

#: Stand-ins for "your value here", replaced token by token.
PLACEHOLDERS = {
    "<name>": "unidirectional-ring",
    "DIR": "traces/",
    "…": None,  # an elided tail: the token is dropped
    "...": None,
}

#: A line containing one of these is not parsed, for the reason given.
SKIP_MARKERS = {
    "--plugin": "plugin choices exist only after the plugin is imported, and "
    "importing one here would leak into the in-process registries",
    "REPRO_PLUGINS": "same: the plugin's names are not registered in this process",
}

FENCE = re.compile(r"^```")
ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
#: Shell syntax after which the rest of the line is not ``repro`` arguments.
SHELL_BREAKS = {"|", ">", ">>", "2>", "2>&1", "&&", ";", "<"}


def _fenced_lines(path):
    """``(line number, logical line)`` for every line inside a code fence,
    with backslash continuations joined."""
    inside = False
    pending, pending_at = "", 0
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if FENCE.match(line.strip()):
                inside = not inside
                pending = ""
                continue
            if not inside:
                continue
            if not pending:
                pending_at = number
            if line.rstrip().endswith("\\"):
                pending += line.rstrip()[:-1] + " "
                continue
            yield pending_at, pending + line
            pending = ""


def _repro_argv(line):
    """The ``repro`` arguments of a shell line, or ``None`` if it runs something else."""
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError:
        return None
    while tokens and (tokens[0] == "$" or ASSIGNMENT.match(tokens[0])):
        tokens = tokens[1:]
    if tokens[:3] in (["python", "-m", "repro"], ["python3", "-m", "repro"]):
        tokens = tokens[3:]
    elif tokens[:1] == ["repro"]:
        tokens = tokens[1:]
    else:
        return None
    argv = []
    for token in tokens:
        if token in SHELL_BREAKS:
            break
        token = PLACEHOLDERS.get(token, token)
        if token is not None:
            argv.append(token)
    return argv


def documented_commands():
    for path in DOCUMENTS:
        for number, line in _fenced_lines(path):
            argv = _repro_argv(line)
            if argv is None:
                continue
            where = "{}:{}".format(os.path.relpath(path, ROOT), number)
            skip = next((why for marker, why in SKIP_MARKERS.items() if marker in line), None)
            yield where, argv, skip


COMMANDS = list(documented_commands())


def test_the_docs_show_enough_commands_to_be_worth_checking():
    parsed = [where for where, _, skip in COMMANDS if skip is None]
    assert len(parsed) >= 40, parsed
    assert any(where.startswith("README.md") for where in parsed)
    assert any(where.startswith(os.path.join("docs", "cli.md")) for where in parsed)


@pytest.mark.parametrize(
    "where,argv,skip", COMMANDS, ids=[where for where, _, _ in COMMANDS]
)
def test_documented_command_line_parses(where, argv, skip, capsys):
    if skip is not None:
        pytest.skip(skip)
    try:
        build_parser(argv).parse_args(argv)
    except SystemExit as exit_:
        # ``--help`` / ``--version`` print and exit 0; a usage error exits 2.
        assert exit_.code == 0, "{}: repro {} -> {}".format(
            where, " ".join(argv), capsys.readouterr().err.strip()
        )


def test_a_removed_name_in_prose_would_be_caught():
    """The guard is real: the parser rejects what this PR's docs stopped saying."""
    argv = _repro_argv("python -m repro check traces/ --checker streaming   # gone")
    assert argv == ["check", "traces/", "--checker", "streaming"]
    with pytest.raises(SystemExit) as exit_:
        build_parser(argv).parse_args(argv)
    assert exit_.value.code == 2
