"""Differential tests for the exact history-tree multiplicity solver.

``reference_solve_multiplicities`` is the dense float solver the exact
reduced solver replaced: it builds the anchor/refinement/balance system
over every known view, checks the rank with an SVD, solves it with
``lstsq`` and re-checks the rounded solution in integers.  The reduced
solver must return the same value or ``None`` on every view table --
real ones from ``HistoryProcess`` runs, arbitrary subsets of their
known sets (including subsets not closed under parent), and hand-built
degenerate systems.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting.history import (
    HistoryProcess,
    ViewRecord,
    ViewTable,
    solve_multiplicities,
)
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.t_interval import t_interval_network
from repro.simulation.engine import EngineConfig, SynchronousEngine


def reference_solve_multiplicities(table, known, *, level, anchor_total):
    by_level: dict[int, list[tuple[int, ViewRecord]]] = {}
    for view_id, record in table.records(known):
        if record.level <= level:
            by_level.setdefault(record.level, []).append((view_id, record))
    if level not in by_level:
        return None
    ids = sorted(
        view_id for entries in by_level.values() for view_id, _ in entries
    )
    column = {view_id: index for index, view_id in enumerate(ids)}
    rows: list[dict[int, int]] = []
    rhs: list[int] = []

    for t in range(level + 1):
        anchor_row = {
            column[view_id]: 1
            for view_id, record in by_level.get(t, [])
            if record.marked
        }
        rows.append(anchor_row)
        rhs.append(anchor_total)

    for t in range(level):
        children = by_level.get(t + 1, [])
        for parent_id, _record in by_level.get(t, []):
            row = {column[parent_id]: 1}
            for child_id, child in children:
                if child.parent == parent_id:
                    row[column[child_id]] = row.get(column[child_id], 0) - 1
            rows.append(row)
            rhs.append(0)
        # Edge balance: round-t adjacencies between classes A and B,
        # counted from both sides through their level-(t+1) children.
        incidence: dict[tuple[int, int], dict[int, int]] = {}
        for child_id, child in children:
            if child.parent is None:
                continue
            for neighbour_id, count in child.inbox:
                incidence.setdefault((child.parent, neighbour_id), {})[
                    child_id
                ] = count
        for (side_a, side_b), from_a in sorted(incidence.items()):
            if side_a >= side_b:
                continue  # each unordered pair once; A == B is trivial
            row: dict[int, int] = {}
            for child_id, count in from_a.items():
                row[column[child_id]] = row.get(column[child_id], 0) + count
            for child_id, count in incidence.get((side_b, side_a), {}).items():
                row[column[child_id]] = row.get(column[child_id], 0) - count
            rows.append(row)
            rhs.append(0)

    matrix = np.zeros((len(rows), len(ids)), dtype=np.float64)
    for row_index, row in enumerate(rows):
        for col, coefficient in row.items():
            matrix[row_index, col] = coefficient
    vector = np.asarray(rhs, dtype=np.float64)
    if np.linalg.matrix_rank(matrix) < len(ids):
        return None  # underdetermined: some multiplicity is still free
    solution = np.linalg.lstsq(matrix, vector, rcond=None)[0]
    rounded = np.rint(solution)
    if np.max(np.abs(solution - rounded)) > 1e-6:
        return None
    counts = [int(value) for value in rounded]
    if any(value < 1 for value in counts):
        return None  # every known class is inhabited by a real node
    residual = matrix @ rounded - vector
    if np.max(np.abs(residual)) > 1e-6:
        return None
    # Exact integer re-check: float round-off must not certify a wrong
    # solution, so every constraint is re-evaluated in integer math.
    for row, target in zip(rows, rhs):
        if sum(coefficient * counts[col] for col, coefficient in row.items()) != target:
            return None
    return sum(
        counts[column[view_id]] for view_id, _record in by_level[level]
    )


FAMILIES = {
    "random": lambda n, seed: RandomConnectedAdversary(
        n, seed=seed
    ).as_dynamic_graph(),
    "markov": lambda n, seed: edge_markov_network(n, seed=seed),
    "t-interval": lambda n, seed: t_interval_network(n, 2, seed=seed),
}


@lru_cache(maxsize=None)
def view_run(family: str, n: int, seed: int, marked: int, rounds: int):
    """The shared table and every node's known set after ``rounds``."""
    table = ViewTable()
    processes = [
        HistoryProcess(
            table, marked=index < marked, anchor_total=marked, decide=False
        )
        for index in range(n)
    ]
    SynchronousEngine(
        processes,
        FAMILIES[family](n, seed),
        leader=None,
        config=EngineConfig(max_rounds=rounds, stop_when="budget"),
    ).run()
    return table, tuple(frozenset(process.known) for process in processes)


def assert_agree(table, known, *, level, anchor_total):
    known = sorted(known)
    expected = reference_solve_multiplicities(
        table, known, level=level, anchor_total=anchor_total
    )
    got = solve_multiplicities(
        table, known, level=level, anchor_total=anchor_total
    )
    assert got == expected, (level, anchor_total, known)
    return got


runs = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(2, 9),
    st.integers(0, 3),
    st.sampled_from([1, 2]),
    st.integers(1, 14),
)


class TestAgainstReferenceSolver:
    @settings(max_examples=150, deadline=None)
    @given(run=runs, node=st.integers(0, 8), claimed=st.sampled_from([1, 2]))
    def test_known_sets_of_real_runs(self, run, node, claimed):
        family, n, seed, marked, rounds = run
        table, known_sets = view_run(family, n, seed, marked, rounds)
        known = known_sets[node % n]
        for level in range(rounds + 1):
            assert_agree(table, known, level=level, anchor_total=claimed)

    @settings(max_examples=150, deadline=None)
    @given(
        run=runs,
        node=st.integers(0, 8),
        claimed=st.sampled_from([1, 2]),
        keep=st.floats(0.5, 1.0),
        rng=st.randoms(use_true_random=False),
    )
    def test_arbitrary_subsets(self, run, node, claimed, keep, rng):
        # Dropping views at random leaves sets that are not closed under
        # parent: orphaned children, childless parents, missing anchors.
        family, n, seed, marked, rounds = run
        table, known_sets = view_run(family, n, seed, marked, rounds)
        subset = [
            view_id
            for view_id in sorted(known_sets[node % n])
            if rng.random() < keep
        ]
        for level in range(rounds + 1):
            assert_agree(table, subset, level=level, anchor_total=claimed)

    def test_fuzz_reaches_determined_systems(self):
        # The differential is not vacuous: full views do get counted.
        for family in sorted(FAMILIES):
            for marked in (1, 2):
                table, known_sets = view_run(family, 6, 1, marked, 14)
                counts = {
                    assert_agree(table, known_sets[0], level=level,
                                 anchor_total=marked)
                    for level in range(6)
                }
                assert 6 in counts

    def test_random_subset_sweep(self):
        rng = random.Random(5)
        determined = 0
        for family in sorted(FAMILIES):
            table, known_sets = view_run(family, 5, 2, 1, 12)
            for _ in range(20):
                subset = [v for v in known_sets[1] if rng.random() < 0.9]
                for level in range(8):
                    got = assert_agree(table, subset, level=level, anchor_total=1)
                    determined += got is not None
        assert determined > 0


def two_node_table(follower_sees_leaders: int = 1):
    """A leader L and a follower U joined by one edge, to level 1."""
    table = ViewTable()
    leader0 = table.intern(ViewRecord(0, True, None, ()))
    follower0 = table.intern(ViewRecord(0, False, None, ()))
    leader1 = table.intern(ViewRecord(1, True, leader0, ((follower0, 1),)))
    follower1 = table.intern(
        ViewRecord(1, False, follower0, ((leader0, follower_sees_leaders),))
    )
    return table, leader0, follower0, leader1, follower1


class TestHandCases:
    def test_two_nodes_are_counted(self):
        table, *views = two_node_table()
        assert assert_agree(table, views, level=1, anchor_total=1) == 2

    def test_class_without_known_child(self):
        table, leader0, follower0, leader1, _follower1 = two_node_table()
        known = [leader0, follower0, leader1]
        assert assert_agree(table, known, level=1, anchor_total=1) is None

    def test_underdetermined(self):
        # Level 0: the anchor pins the leader, nothing pins the rest.
        table, leader0, follower0, _leader1, _follower1 = two_node_table()
        known = [leader0, follower0]
        assert assert_agree(table, known, level=0, anchor_total=1) is None

    def test_inconsistent_anchors(self):
        # The level-0 anchor row reads 0 == 1: the marked level-0 class
        # is missing although its level-1 child is known.
        table, _leader0, follower0, leader1, follower1 = two_node_table()
        known = [follower0, leader1, follower1]
        assert assert_agree(table, known, level=1, anchor_total=1) is None

    def test_half_integral_solution(self):
        # The follower hears two leaders over one edge from the leader's
        # side: balance forces U = L / 2 = 1/2.
        table, *views = two_node_table(follower_sees_leaders=2)
        assert assert_agree(table, views, level=1, anchor_total=1) is None

    def test_uninhabited_class(self):
        # A marked level-1 class under the unmarked root: the level-0 and
        # level-1 anchors then force it to 0 in an otherwise unique
        # solution (L = U = 1, S = 0).
        table, *views = two_node_table()
        stray = table.intern(ViewRecord(1, True, views[1], ()))
        known = [*views, stray]
        assert assert_agree(table, known, level=1, anchor_total=1) is None
