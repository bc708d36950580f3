"""History-tree (view) machinery shared by the DV and KM counters.

Di Luna & Viglietta (arXiv 2204.02128) count anonymous 1-interval
connected networks in linear time by having every node maintain its
*view*: the full unfolding of what it has observed.  Two nodes share a
level-``t`` view exactly when no sequence of ``t`` rounds can have
distinguished them, so the views at level ``t`` partition the nodes
into *classes*; the leader reconstructs the class multiplicities -- and
hence ``n`` -- from three families of exact linear constraints:

* **anchor** -- the marked classes (the unique leader, or the ``ell``
  indistinguishable supervisors of the Kowalski-Mosteiro relaxation,
  arXiv 2104.02937) have known total multiplicity;
* **refinement** -- a class's multiplicity is the sum of its children's
  (views only ever split);
* **edge balance** -- for classes ``A``, ``B`` at level ``t``, the
  round-``t`` adjacencies between them counted from ``A``'s side equal
  those counted from ``B``'s side (every edge has two endpoints).

This module implements the executable adaptation: hash-consed view
records (:class:`ViewTable`), the full-information flooding process
(:class:`HistoryProcess`), and the exact multiplicity solver
(:func:`solve_multiplicities`).  Termination follows the paper's
*linear margin*: a solution counting ``N`` nodes from level-``T``
classes is only trusted once ``T + N + slack`` rounds have elapsed --
by then every level-``T`` record has had time to flood to the decider
(knowledge expands by at least one node per round in a connected
round), and the level-``T`` and level-``T+1`` systems must agree.  The
margin is our adaptation of the paper's ``O(n)``-round guarantee; the
``repro.verify`` counting suite fuzzes it across every network family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "HistoryProcess",
    "ViewRecord",
    "ViewTable",
    "solve_multiplicities",
]


@dataclass(frozen=True)
class ViewRecord:
    """One hash-consed view: a node's indistinguishability class.

    Attributes:
        level: Refinement depth; the level-``t`` view exists after the
            receive phase of round ``t - 1`` (level 0 is the initial
            marked/unmarked split).
        marked: Whether the node carries the distinguished bit (the
            leader, or one of the KM supervisors).
        parent: Table id of the node's level-``level - 1`` view
            (``None`` at level 0).
        inbox: The anonymous receive profile that refined the parent:
            sorted ``(neighbour view id, multiplicity)`` pairs over
            level-``level - 1`` views.
    """

    level: int
    marked: bool
    parent: int | None
    inbox: tuple[tuple[int, int], ...]


class ViewTable:
    """Interning table mapping structurally equal views to one id.

    One table is shared by all processes of a run (an implementation
    convenience only -- ids never travel between runs, and equality of
    ids coincides with structural equality of views, which is exactly
    the anonymity relation the protocol reasons about).
    """

    def __init__(self) -> None:
        self._ids: dict[ViewRecord, int] = {}
        self._records: list[ViewRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def intern(self, record: ViewRecord) -> int:
        """The canonical id of ``record``, creating it if new."""
        found = self._ids.get(record)
        if found is not None:
            return found
        view_id = len(self._records)
        self._ids[record] = view_id
        self._records.append(record)
        return view_id

    def record(self, view_id: int) -> ViewRecord:
        return self._records[view_id]

    def records(self, ids: Iterable[int]) -> list[tuple[int, ViewRecord]]:
        return [(view_id, self._records[view_id]) for view_id in ids]


def solve_multiplicities(
    table: ViewTable,
    known: Iterable[int],
    *,
    level: int,
    anchor_total: int,
) -> int | None:
    """Solve for the class multiplicities at ``level``; ``None`` if open.

    The anchor/refinement/balance system over every known view of
    level at most ``level`` is solved in reduced form: substituting the
    refinement rows turns every known class into the sum of its known
    level-``level`` descendants, so the only unknowns are the deepest
    classes (at most ``n`` of them).  A solution is accepted only when
    it is *fully determined*: unique (full column rank), consistent,
    integral and positive (every known class is inhabited), all
    decided in exact integer arithmetic.

    Returns:
        The total multiplicity of the level-``level`` classes (the
        node count those classes account for), or ``None`` when the
        system is underdetermined, inconsistent, or non-integral.
    """
    by_level: dict[int, list[tuple[int, ViewRecord]]] = {}
    for view_id, record in table.records(known):
        if record.level <= level:
            by_level.setdefault(record.level, []).append((view_id, record))
    deepest = by_level.get(level)
    if not deepest:
        return None
    width = len(deepest)
    # Refinement substitution: span[c] lists the unknowns (deepest
    # classes) whose sum is class c.  Spans of distinct classes of one
    # level are disjoint, since views only ever split.
    span: dict[int, list[int]] = {
        view_id: [index] for index, (view_id, _record) in enumerate(deepest)
    }
    for t in range(level - 1, -1, -1):
        parents = by_level.get(t, [])
        for parent_id, _record in parents:
            span[parent_id] = []
        for child_id, child in by_level.get(t + 1, []):
            if child.parent in span:
                span[child.parent].extend(span[child_id])
        if any(not span[parent_id] for parent_id, _record in parents):
            return None  # a class with no known descendant is forced to 0

    rows: dict[tuple[int, ...], None] = {}  # insertion-ordered set

    def add_row(terms: Iterable[tuple[int, int]], rhs: int) -> None:
        row = [0] * (width + 1)
        for view_id, coefficient in terms:
            for index in span[view_id]:
                row[index] += coefficient
        row[width] = rhs
        rows[tuple(row)] = None

    for t in range(level + 1):
        add_row(
            (
                (view_id, 1)
                for view_id, record in by_level.get(t, [])
                if record.marked
            ),
            anchor_total,
        )
    for t in range(level):
        # Edge balance: round-t adjacencies between classes A and B,
        # counted from both sides through their level-(t+1) children.
        incidence: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for child_id, child in by_level.get(t + 1, []):
            for neighbour_id, count in child.inbox:
                incidence.setdefault((child.parent, neighbour_id), []).append(
                    (child_id, count)
                )
        for (side_a, side_b), from_a in sorted(incidence.items()):
            if side_a >= side_b:
                continue  # each unordered pair once; A == B is trivial
            from_b = incidence.get((side_b, side_a), [])
            add_row(
                from_a + [(child_id, -count) for child_id, count in from_b], 0
            )

    counts = _solve_exact(list(rows), width)
    if counts is None or any(value < 1 for value in counts):
        return None  # every known class is inhabited by a real node
    for row in rows:
        if sum(c * x for c, x in zip(row, counts)) != row[width]:
            return None
    return sum(counts)


def _solve_exact(
    rows: list[tuple[int, ...]], width: int
) -> list[int] | None:
    """The unique integer solution of ``rows`` (``[coefficients..., rhs]``).

    Fraction-free, gcd-normalised echelon elimination in Python ints,
    stopping as soon as the rank reaches ``width``; ``None`` when the
    system is rank-deficient, when a row reduces to ``0 = rhs != 0``,
    or when the unique solution is not integral.  Rows left unreduced
    after full rank are *not* checked here: the caller checks every row
    against the returned solution.
    """
    pivots: list[tuple[int, list[int]]] = []
    for original in rows:
        row = list(original)
        for col, pivot in pivots:
            factor = row[col]
            if factor:
                lead = pivot[col]
                row = [lead * a - factor * b for a, b in zip(row, pivot)]
        col = next((c for c in range(width) if row[c]), None)
        if col is None:
            if row[width]:
                return None  # inconsistent: 0 == rhs != 0
            continue
        divisor = gcd(*row)
        if divisor > 1:
            row = [value // divisor for value in row]
        pivots.append((col, row))
        if len(pivots) == width:
            break
    if len(pivots) < width:
        return None  # underdetermined: some multiplicity is still free
    # Pivot k is zero in the columns of every earlier pivot, so solving
    # from the last pivot back only ever reads columns already solved.
    solution = [0] * width
    for col, pivot in reversed(pivots):
        numerator = pivot[width] - sum(
            c * x for c, x in zip(pivot[:width], solution)
        )
        value, remainder = divmod(numerator, pivot[col])
        if remainder:
            return None  # the unique solution is not integral
        solution[col] = value
    return solution


class HistoryProcess(Process):
    """Full-information view flooding with the linear-margin decider.

    Every round the process broadcasts its current view id, which names
    its whole hash-consed view tree; on receive it refines its view with
    the anonymous profile of the ids it heard and, when it is a decider,
    attempts the multiplicity solve at every level over :attr:`known`.

    Args:
        table: The run-shared interning table.
        marked: Whether this node carries the distinguished bit.
        anchor_total: How many marked nodes exist network-wide (1 for
            the DV leader, ``ell`` for KM supervisors).
        decide: Whether this process runs the solver (deciders are the
            marked nodes; others only flood).
        slack: Extra rounds added to the ``T + N`` margin before an
            agreeing solution is trusted.
    """

    def __init__(
        self,
        table: ViewTable,
        *,
        marked: bool,
        anchor_total: int,
        decide: bool,
        slack: int = 2,
    ) -> None:
        if anchor_total < 1:
            raise ValueError("anchor_total must be at least 1")
        if slack < 1:
            raise ValueError("slack must be at least 1")
        self.table = table
        self.marked = marked
        self.anchor_total = anchor_total
        self.decide = decide
        self.slack = slack
        self.view = table.intern(
            ViewRecord(level=0, marked=marked, parent=None, inbox=())
        )
        self.level = 0
        self.decided_level: int | None = None
        self._known: set[int] = set()
        self._by_level: list[list[int]] = []  # known ids, indexed by level
        self._solve_cache: dict[tuple[int, int], int | None] = {}
        self._output: int | None = None

    @property
    def known(self) -> frozenset[int]:
        """Every record the node has heard of: the closure of :attr:`view`
        under ``parent`` and ``inbox`` links, walked every round on a
        decider and only when read on any other node."""
        return frozenset(self._close())

    def _close(self) -> set[int]:
        missing = self.level + 1 - len(self._by_level)
        self._by_level.extend([] for _ in range(missing))
        stack = [self.view]
        while stack:
            view_id = stack.pop()
            if view_id in self._known:
                continue  # so is its whole closure
            self._known.add(view_id)
            record = self.table.record(view_id)
            self._by_level[record.level].append(view_id)
            if record.parent is not None:
                stack.append(record.parent)
            stack.extend(neighbour for neighbour, _count in record.inbox)
        return self._known

    def compose(self, round_no: int) -> int:
        return self.view

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self.view = self.table.intern(
            ViewRecord(
                level=self.level + 1,
                marked=self.marked,
                parent=self.view,
                inbox=tuple(sorted(Counter(inbox).items())),
            )
        )
        self.level += 1
        if self.decide and self._output is None:
            self._close()
            self._try_decide(rounds_done=round_no + 1)

    def output(self) -> int | None:
        return self._output

    def _solve(self, level: int) -> int | None:
        # Known ids of level <= ``level`` only grow: their number is the set.
        below = self._by_level[: level + 1]
        key = (level, sum(map(len, below)))
        if key not in self._solve_cache:
            self._solve_cache[key] = solve_multiplicities(
                self.table,
                [view_id for ids in below for view_id in ids],
                level=level,
                anchor_total=self.anchor_total,
            )
        return self._solve_cache[key]

    def _try_decide(self, *, rounds_done: int) -> None:
        # Deepest candidate level first costs nothing: levels above the
        # margin cannot fire, so only small T are ever attempted early.
        for level in range(self.level):
            width = len(self._by_level[level])
            if rounds_done < level + 1 + width + self.slack:
                continue  # a positive solution counts >= width nodes
            count = self._solve(level)
            if count is None:
                continue
            if rounds_done < level + 1 + count + self.slack:
                continue  # records of level T+1 may still be in flight
            if self._solve(level + 1) != count:
                continue  # cross-level agreement filters partial views
            self._output = count
            self.decided_level = level
            return
