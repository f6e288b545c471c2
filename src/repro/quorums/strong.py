"""The strongly-connected quorum-system condition QS+ used as a baseline.

Section 1 of the paper discusses the "plausible conjecture" that tolerating
process/channel failures requires a quorum system in which, for every failure
pattern, the available read and write quorums are *strongly connected* by
correct channels (so that some process can run an ABD/Paxos-style
request/response exchange with both).  That condition — called QS+ in the paper
— is sufficient but, as the paper shows, **not necessary**.  We decide it so
the experiments can measure how many fail-prone systems admit a GQS but not a
QS+ (experiment E6); the set-form validator of a given QS+ lives with the tests
(``tests/oracles/predicates.py``).
"""

from __future__ import annotations

from ..failures import FailProneSystem
from .discovery import _candidates, choose_candidates


def strong_system_exists(fail_prone: FailProneSystem) -> bool:
    """Decide whether the fail-prone system admits *some* QS+.

    The canonical witness mirrors the GQS construction: for every failure
    pattern pick a strongly connected component ``S`` of the residual graph and
    use ``S`` both as read and write quorum (the union ``R ∪ W = S`` is then
    strongly connected by construction).  Taking whole components is without
    loss of generality — any valid QS+ quorums for ``f`` live inside a single
    component, and enlarging quorums can only help Consistency.  A QS+ exists
    iff components ``S_f`` can be chosen so that ``S_f ∩ S_g ≠ ∅`` for every
    pair of patterns: :func:`~repro.quorums.choose_candidates` over the
    candidates ``(S, S)``, taken in discovery's order from the components the
    residual graph memoizes, so a classification enumerates each pattern's
    components once for both answers.
    """
    per_pattern = [[(s, s) for _, s in _candidates(fail_prone, f)] for f in fail_prone]
    return choose_candidates(per_pattern)[0] is not None
