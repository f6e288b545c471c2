"""The paper's running example (Figure 1, Examples 1, 2, 7, 8, 9) as library objects.

Four processes ``a, b, c, d``; four failure patterns ``f1..f4`` obtained from
one another by rotating the roles one position around the ring ``a → b → c →
d``.  Under ``f1``: process ``d`` may crash, channels ``(c, a)``, ``(a, b)``
and ``(b, a)`` are reliable and every other channel may disconnect.  The
families ``R = {R_i}`` and ``W = {W_i}`` with ``W_1 = {a, b}``,
``R_1 = {a, c}`` (and rotations) form a generalized quorum system even though
no read quorum is strongly connected.

Example 9's modification — additionally failing channel ``(a, b)`` in ``f1`` —
destroys the property: the resulting fail-prone system admits *no* generalized
quorum system, so by Theorem 2 none of the objects considered in the paper is
implementable under it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..failures import FailProneSystem, FailurePattern
from ..quorums import GeneralizedQuorumSystem
from ..types import ProcessId, ProcessSet

FIGURE1_PROCESSES: Tuple[ProcessId, ...] = ("a", "b", "c", "d")

_RING: Tuple[ProcessId, ...] = ("a", "b", "c", "d")


def _rotate(process: ProcessId, offset: int) -> ProcessId:
    index = _RING.index(process)
    return _RING[(index + offset) % len(_RING)]


def _pattern(offset: int) -> FailurePattern:
    """The pattern ``f_{offset+1}``: the rotation of ``f1`` by ``offset`` positions."""
    crashed = _rotate("d", offset)
    correct_channels = {
        (_rotate("c", offset), _rotate("a", offset)),
        (_rotate("a", offset), _rotate("b", offset)),
        (_rotate("b", offset), _rotate("a", offset)),
    }
    survivors = [p for p in FIGURE1_PROCESSES if p != crashed]
    disconnect = [
        (src, dst)
        for src in survivors
        for dst in survivors
        if src != dst and (src, dst) not in correct_channels
    ]
    return FailurePattern([crashed], disconnect, name="f{}".format(offset + 1))


def figure1_patterns() -> List[FailurePattern]:
    """The four failure patterns ``f1, f2, f3, f4`` of Figure 1."""
    return [_pattern(offset) for offset in range(4)]


def figure1_fail_prone_system() -> FailProneSystem:
    """The fail-prone system ``F = {f1, f2, f3, f4}`` of Figure 1."""
    return FailProneSystem(FIGURE1_PROCESSES, figure1_patterns(), name="figure1")


def figure1_read_quorums() -> List[ProcessSet]:
    """The read quorums ``R_1..R_4`` (``R_1 = {a, c}`` and rotations)."""
    return [
        frozenset({_rotate("a", offset), _rotate("c", offset)}) for offset in range(4)
    ]


def figure1_write_quorums() -> List[ProcessSet]:
    """The write quorums ``W_1..W_4`` (``W_1 = {a, b}`` and rotations)."""
    return [
        frozenset({_rotate("a", offset), _rotate("b", offset)}) for offset in range(4)
    ]


def figure1_quorum_system() -> GeneralizedQuorumSystem:
    """The generalized quorum system ``(F, R, W)`` of Example 8 (validated)."""
    return GeneralizedQuorumSystem(
        figure1_fail_prone_system(), figure1_read_quorums(), figure1_write_quorums()
    )


def figure1_modified_fail_prone_system() -> FailProneSystem:
    """Example 9's ``F'``: like ``F`` but ``f1`` additionally fails channel ``(a, b)``.

    The paper shows that ``F'`` admits no generalized quorum system, so none of
    the objects is implementable under it with any non-trivial liveness.
    """
    patterns = figure1_patterns()
    f1 = patterns[0]
    f1_prime = FailurePattern(
        f1.crash_prone, set(f1.disconnect_prone) | {("a", "b")}, name="f1'"
    )
    return FailProneSystem(
        FIGURE1_PROCESSES, [f1_prime] + patterns[1:], name="figure1-modified"
    )
