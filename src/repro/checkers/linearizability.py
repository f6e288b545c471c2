"""Linearizability checking for register and snapshot histories.

"Is this history linearizable?" is answered by **one** search:

* :func:`search_linearization` — the complete decision procedure (Wing–Gong /
  Lowe): it explores all linearization orders consistent with the history's
  real-time precedence, memoizing on the pair (mask of linearized operations,
  abstract object state).  Exponential in the worst case but fast for the
  history sizes produced by the experiments, and it handles incomplete
  operations (crashed writers) correctly: incomplete updates may or may not
  take effect, incomplete queries impose no constraint.  The object enters
  only through its sequential specification (a :class:`SequentialSpec` plus an
  ``apply(state, op)`` function): :func:`check_register_linearizability` here
  and :func:`repro.checkers.check_snapshot_linearizability` are its clients.

Beside it sits a different procedure for registers:

* :class:`DependencyGraphChecker` — the dependency-graph criterion of the
  paper's Appendix B (Theorem 7): given a write→read ("wr") matching derived
  from values and a candidate total order on writes ("ww"), linearizability is
  equivalent to acyclicity of the graph over real-time, wr, ww and the derived
  read→write ("rw") edges.  It is used as a fast *witness* checker;
  :func:`check_register_witness_first` wires it as the default fast path with
  automatic fallback to the complete search when the witness fails.

All operate on :class:`repro.history.History` objects; register records use the
operation kinds ``"write"`` (argument = value written) and ``"read"``
(result = value read).
"""

from __future__ import annotations

import sys
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import HistoryError
from ..history import History, OperationRecord

#: Returned by an ``apply`` function when the operation cannot be linearized
#: in the given state (any other return value, ``None`` included, is a state).
REJECT = object()


class LinearizabilityResult:
    """Outcome of a linearizability check."""

    def __init__(
        self,
        is_linearizable: bool,
        witness: Optional[List[OperationRecord]] = None,
        explored_states: int = 0,
        reason: str = "",
    ) -> None:
        self.is_linearizable = is_linearizable
        self.witness = witness
        self.explored_states = explored_states
        self.reason = reason

    def __bool__(self) -> bool:
        return self.is_linearizable

    def __repr__(self) -> str:
        return "LinearizabilityResult(linearizable={}, explored={}{})".format(
            self.is_linearizable,
            self.explored_states,
            ", reason={!r}".format(self.reason) if self.reason else "",
        )


class SequentialSpec(NamedTuple):
    """The object-specific constants of one linearizability search.

    ``update_kind`` / ``query_kind`` are the two operation kinds of the object
    (an incomplete update is optional, an incomplete query is dropped); the
    three texts keep each object's error and verdict wording: ``foreign_kind``
    is formatted with an operation kind that is neither, ``exhausted`` with the
    ``max_states`` bound, and ``no_order`` is the reason of a negative verdict.
    """

    update_kind: str
    query_kind: str
    foreign_kind: str
    exhausted: str
    no_order: str


REGISTER = SequentialSpec(
    update_kind="write",
    query_kind="read",
    foreign_kind="register histories may only contain read/write operations, got {!r}",
    exhausted="linearizability search exceeded {} states; history too large",
    no_order="no valid linearization order exists",
)

#: Frames kept free below the recursion limit for what one search level calls.
_RECURSION_MARGIN = 50

#: A history split for the search: complete operations, then optional updates.
Partition = Tuple[List[OperationRecord], List[OperationRecord]]


def partition_history(history: History, spec: SequentialSpec) -> Partition:
    """Split a history into complete operations and optional (incomplete) updates.

    This is the one place operation kinds are validated: a kind the object
    does not have raises :class:`HistoryError`, so no checker can certify a
    history after silently ignoring operations it does not understand.
    """
    complete: List[OperationRecord] = []
    optional_updates: List[OperationRecord] = []
    for record in history:
        if record.kind != spec.update_kind and record.kind != spec.query_kind:
            raise HistoryError(spec.foreign_kind.format(record.kind))
        if record.is_complete:
            complete.append(record)
        elif record.kind == spec.update_kind:
            optional_updates.append(record)
        # Incomplete queries impose no constraint and are dropped.
    return complete, optional_updates


def search_linearization(
    partition: Partition,
    spec: SequentialSpec,
    initial_state: Hashable,
    apply: Callable[[Any, OperationRecord], Any],
    max_states: int,
) -> LinearizabilityResult:
    """The memoized Wing–Gong search over a partitioned history.

    ``apply(state, op)`` is the object's sequential specification: the state
    after linearizing ``op`` in ``state``, or :data:`REJECT` when ``op`` (a
    query whose result does not match) cannot take effect there.  States must
    be hashable.  ``max_states`` is a safety bound on the memoized states; a
    :class:`HistoryError` is raised when exceeded, so that callers never
    mistake an aborted search for a verdict.  The search recurses once per
    linearized operation, so a history too long for the interpreter's
    recursion limit is refused the same way, before any state is explored.
    """
    complete, optional_updates = partition
    operations = complete + optional_updates
    if not operations:
        return LinearizabilityResult(True, witness=[], explored_states=0)
    _check_depth(len(operations))
    # Complete operations occupy the low positions, so "every complete
    # operation is linearized" is one mask test; whatever is left then is an
    # optional update and the linearization may stop.
    required = (1 << len(complete)) - 1

    # Real-time precedence among *complete* operations only: an operation can
    # be linearized only after every complete operation that precedes it.
    candidates: List[Tuple[int, int, OperationRecord]] = []
    for i, op in enumerate(operations):
        before = 0
        for j, other in enumerate(complete):
            if other.precedes(op):
                before |= 1 << j
        candidates.append((1 << i, before, op))

    memo: Set[Tuple[int, Hashable]] = set()
    explored = 0
    witness: List[OperationRecord] = []

    def search(linearized: int, state: Any) -> bool:
        nonlocal explored
        key = (linearized, state)
        if key in memo:
            return False
        memo.add(key)
        explored += 1
        if explored > max_states:
            raise HistoryError(spec.exhausted.format(max_states))
        if linearized & required == required:
            return True
        pending = ~linearized
        for bit, before, op in candidates:
            if not pending & bit or before & pending:
                continue
            next_state = apply(state, op)
            if next_state is not REJECT and search(linearized | bit, next_state):
                witness.append(op)
                return True
        return False

    if search(0, initial_state):
        witness.reverse()
        return LinearizabilityResult(True, witness=witness, explored_states=explored)
    return LinearizabilityResult(False, explored_states=explored, reason=spec.no_order)


def _check_depth(operations: int) -> None:
    """Raise :class:`HistoryError` unless a search over ``operations``
    operations fits below the recursion limit from the current stack depth."""
    depth = 0
    frame: Any = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    if depth + operations + _RECURSION_MARGIN > limit:
        raise HistoryError(
            "linearizability search over {} operations needs more recursion than "
            "the interpreter allows (recursion limit {}, {} frames in use)".format(
                operations, limit, depth
            )
        )


def _apply_register(value: Any, op: OperationRecord) -> Any:
    """The register's sequential specification: a write sets the value, a
    read must return it."""
    if op.kind == REGISTER.update_kind:
        return op.argument
    return value if op.result == value else REJECT


def check_register_linearizability(
    history: History,
    initial_value: Any = 0,
    max_states: int = 2_000_000,
) -> LinearizabilityResult:
    """Decide whether a register history is linearizable (Wing–Gong search).

    Parameters
    ----------
    history:
        The history to check.
    initial_value:
        The register's initial value (reads before any write must return it).
    max_states:
        Safety bound on the number of memoized states explored; a
        :class:`HistoryError` is raised when exceeded.
    """
    return search_linearization(
        partition_history(history, REGISTER), REGISTER, initial_value, _apply_register, max_states
    )


# ---------------------------------------------------------------------- #
# Witness-first checking
# ---------------------------------------------------------------------- #
def check_register_witness_first(
    history: History,
    initial_value: Any = 0,
    max_states: int = 2_000_000,
) -> LinearizabilityResult:
    """Check linearizability via a dependency-graph witness, falling back.

    Fast path: build the :class:`DependencyGraphChecker` and test one
    candidate write order — the completion-time order of the writes, which is
    the order any linearizable register execution with quickly-propagated
    writes tends to realize.  Acyclicity of the dependency graph is *sound*
    (Theorem 7), so a passing witness decides immediately in polynomial time;
    incomplete operations are simply dropped, which is always permitted.

    Fallback: when the witness order fails — a cycle, duplicated written
    values, or a read whose value only an incomplete write can explain — the
    complete Wing–Gong search delivers the exact verdict.  The combination is
    therefore sound *and* complete, and on protocol-produced histories almost
    always takes the polynomial path.
    """
    # Kinds are validated before either path: the witness checker filters by
    # kind, so a foreign operation would otherwise be ignored, not rejected.
    partition = partition_history(history, REGISTER)
    try:
        checker = DependencyGraphChecker(history, initial_value=initial_value)
        order = sorted(checker.writes, key=lambda w: (w.completed_at, w.invoked_at, w.op_id))
        if checker.check(order):
            return LinearizabilityResult(
                True,
                explored_states=len(checker.reads) + len(checker.writes),
                reason="dependency-graph witness accepted",
            )
    except HistoryError:
        pass
    result = search_linearization(partition, REGISTER, initial_value, _apply_register, max_states)
    result.reason = (
        "complete search after witness failure"
        if result.is_linearizable
        else result.reason
    )
    return result


# ---------------------------------------------------------------------- #
# Dependency-graph criterion (Appendix B, Theorem 7)
# ---------------------------------------------------------------------- #
class DependencyGraphChecker:
    """The acyclic-dependency-graph criterion for register histories.

    Given a history whose written values are pairwise distinct, the checker
    derives the write→read matching ``wr`` from values and, for a supplied
    total order ``ww`` on writes, builds the relations of Appendix B:

    * ``rt`` — real-time precedence,
    * ``wr`` — each read depends on the write whose value it returned,
    * ``ww`` — the candidate total order on writes,
    * ``rw`` — anti-dependencies: a read precedes every write that overwrites
      the write it read from (and every write at all if it read the initial
      value).

    Theorem 7: the history is linearizable **iff** some choice of ``ww`` makes
    the union of these relations acyclic.  With an explicit ``ww`` the check is
    therefore *sound* (acyclic ⇒ linearizable); completeness requires trying
    write orders, which callers usually obtain from the protocol's versions.
    """

    def __init__(self, history: History, initial_value: Any = 0) -> None:
        self.history = history
        self.initial_value = initial_value
        self.reads = [r for r in history.complete_records() if r.kind == REGISTER.query_kind]
        self.writes = [r for r in history.complete_records() if r.kind == REGISTER.update_kind]
        values = [w.argument for w in self.writes]
        if len(set(values)) != len(values):
            raise HistoryError(
                "the dependency-graph checker requires pairwise distinct written values"
            )
        self._write_by_value = {w.argument: w for w in self.writes}

    def _wr_edges(self) -> List[Tuple[OperationRecord, OperationRecord]]:
        edges = []
        for read in self.reads:
            if read.result == self.initial_value and read.result not in self._write_by_value:
                continue
            writer = self._write_by_value.get(read.result)
            if writer is None:
                raise HistoryError(
                    "read returned value {!r} that no write wrote and that is not "
                    "the initial value".format(read.result)
                )
            edges.append((writer, read))
        return edges

    def check(self, write_order: Sequence[OperationRecord]) -> bool:
        """Return whether the dependency graph induced by ``write_order`` is acyclic."""
        order_index = {id(w): i for i, w in enumerate(write_order)}
        if set(order_index) != {id(w) for w in self.writes}:
            raise HistoryError("write_order must be a permutation of the complete writes")

        operations = self.reads + self.writes
        index = {id(op): i for i, op in enumerate(operations)}
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(operations))}

        def add_edge(src: OperationRecord, dst: OperationRecord) -> None:
            if id(src) != id(dst):
                adjacency[index[id(src)]].add(index[id(dst)])

        # rt edges.
        for first in operations:
            for second in operations:
                if first is not second and first.precedes(second):
                    add_edge(first, second)
        # ww edges.
        for i, earlier in enumerate(write_order):
            for later in write_order[i + 1 :]:
                add_edge(earlier, later)
        # wr and rw edges.
        wr = self._wr_edges()
        wr_by_read = {id(read): writer for writer, read in wr}
        for writer, read in wr:
            add_edge(writer, read)
        for read in self.reads:
            writer = wr_by_read.get(id(read))
            if writer is None:
                # Read of the initial value precedes every write.
                for write in self.writes:
                    add_edge(read, write)
            else:
                for write in self.writes:
                    if order_index[id(writer)] < order_index[id(write)]:
                        add_edge(read, write)
        return not _has_cycle(adjacency)


def _has_cycle(adjacency: Dict[int, Set[int]]) -> bool:
    """Detect a cycle in a directed graph given as an adjacency mapping."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    for start in adjacency:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if color[neighbour] == GRAY:
                    return True
                if color[neighbour] == WHITE:
                    color[neighbour] = GRAY
                    stack.append((neighbour, iter(adjacency[neighbour])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False
