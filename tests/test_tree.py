"""Tests for the AND/OR tree store and its dump format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subplan.gridworld import StateId, generate_maze, sample_task
from subplan.tree import (
    BudgetExhausted,
    OrKey,
    SearchTree,
    candidate_subgoals,
    dump_tree,
    expand_node,
    load_tree_dump,
    touch_and_node,
    update_or_stats,
)

# the cells of an open 4x4 grid in row-major order: index 4·row + col
CELLS = [StateId(r, c) for r in range(4) for c in range(4)]


def ix(s: StateId) -> int:
    return 4 * s.row + s.col


def make_tree(budget=10, max_depth=8):
    root = OrKey(StateId(1, 1), StateId(3, 3))
    return SearchTree(root=root, budget_max=budget, max_depth=max_depth, cells=CELLS)


def expand(tree, key, v0=0.5):
    """Expand key and give it the value v0.  A tree without a planning
    context holds no bootstrap values, so the helper sets one."""
    i, j = ix(key.s), ix(key.s2)
    expand_node(tree, i, j)
    tree.V[i, j] = v0


def update(tree, key, g):
    return update_or_stats(tree, ix(key.s), ix(key.s2), g)


def touch(tree, key, mid):
    touch_and_node(tree, ix(key.s), ix(key.s2), 0 if mid is None else ix(mid) + 1)


def stats(tree, key):
    """(V, N) of an expanded key."""
    i, j = ix(key.s), ix(key.s2)
    assert i * tree.n + j in tree.and_counts
    return float(tree.V[i, j]), int(tree.N[i, j])


def counts(tree, key):
    return tree.and_counts[ix(key.s) * tree.n + ix(key.s2)]


# ---------------------------------------------------------------------------
# expand


def test_expand_charges_budget_and_keeps_the_statistics():
    tree = make_tree()
    i, j = ix(tree.root.s), ix(tree.root.s2)
    tree.V[i, j] = 0.7
    V, N = tree.V.copy(), tree.N.copy()
    assert expand_node(tree, i, j) is None
    assert np.array_equal(tree.V, V, equal_nan=True) and np.array_equal(tree.N, N)
    assert list(tree.and_counts) == [i * tree.n + j]
    assert np.array_equal(tree.and_counts[i * tree.n + j], np.zeros(tree.n + 1))
    assert tree.budget_used == 1


def test_expand_budget_exhaustion_leaves_tree_unchanged():
    tree = make_tree(budget=1)
    expand(tree, tree.root)
    other = OrKey(StateId(1, 2), StateId(3, 3))
    V, N = tree.V.copy(), tree.N.copy()
    with pytest.raises(BudgetExhausted):
        expand(tree, other)
    assert list(tree.and_counts) == [ix(tree.root.s) * tree.n + ix(tree.root.s2)]
    assert np.array_equal(tree.V, V, equal_nan=True) and np.array_equal(tree.N, N)
    assert tree.budget_used == 1


def test_expand_duplicate_is_error():
    tree = make_tree()
    expand(tree, tree.root)
    with pytest.raises(ValueError):
        expand(tree, tree.root)


def test_budget_used_counts_expansions():
    tree = make_tree(budget=50)
    keys = [OrKey(StateId(c // 4, c % 4), StateId(2, 2)) for c in range(10)]
    for i, k in enumerate(keys):
        expand(tree, k, 0.1)
        assert tree.budget_used == i + 1 == len(tree.and_counts)
        assert np.count_nonzero(~np.isnan(tree.V)) == i + 1


# ---------------------------------------------------------------------------
# update


def test_update_running_average_example():
    tree = make_tree()
    expand(tree, tree.root)
    update(tree, tree.root, 0.5)
    v, n = update(tree, tree.root, 1.0)
    assert v == 0.75 and n == 2
    assert stats(tree, tree.root) == (0.75, 2)


def test_first_update_overwrites_initialization():
    tree = make_tree()
    expand(tree, tree.root, 0.9)
    v, n = update(tree, tree.root, 0.3)
    assert v == 0.3 and n == 1


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_update_sequence_is_mean(gs):
    tree = make_tree()
    expand(tree, tree.root, 0.42)
    for g in gs:
        update(tree, tree.root, g)
    V, N = stats(tree, tree.root)
    assert N == len(gs)
    assert V == pytest.approx(float(np.mean(gs)), abs=1e-12)


def test_update_unexpanded_is_error():
    tree = make_tree()
    with pytest.raises(ValueError):
        update(tree, tree.root, 0.5)
    # a value alone does not make a key expanded: the split counts do
    tree.V[ix(tree.root.s), ix(tree.root.s2)] = 0.5
    with pytest.raises(ValueError):
        update(tree, tree.root, 0.5)
    assert tree.N.sum() == 0


# ---------------------------------------------------------------------------
# touch


def test_touch_and_node_counts():
    tree = make_tree()
    expand(tree, tree.root)
    for k in range(1, 7):
        touch(tree, tree.root, StateId(2, 2))
        assert counts(tree, tree.root)[ix(StateId(2, 2)) + 1] == k
    assert counts(tree, tree.root).sum() == 6


def test_touch_unexpanded_is_error():
    tree = make_tree()
    with pytest.raises(ValueError):
        touch(tree, tree.root, None)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_sibling_and_counts_sum_to_parent_n(script):
    # random traversal script: each entry selects one of four candidate mids,
    # touching the AND edge then completing the visit with an OR update.
    tree = make_tree(budget=5)
    expand(tree, tree.root)
    mids = [None, StateId(1, 2), StateId(2, 2), StateId(2, 1)]
    for pick in script:
        touch(tree, tree.root, mids[pick])
        update(tree, tree.root, 0.5)
    N = stats(tree, tree.root)[1]
    assert counts(tree, tree.root).sum() == N == len(script)
    assert counts(tree, tree.root).max() <= N


# ---------------------------------------------------------------------------
# candidates


def test_candidates_open_3x3():
    maze = generate_maze(5, 5, 0.0, seed=0)  # 3x3 open interior
    cands = candidate_subgoals(maze)
    assert len(cands) == 10
    assert cands[0] is None
    assert list(cands[1:]) == list(maze.empty_cells)
    rows_cols = [(s.row, s.col) for s in cands[1:]]
    assert rows_cols == sorted(rows_cols)


def test_candidates_count_and_determinism():
    cells = np.full((3, 7), 1, dtype=np.uint8)
    cells[1, 1:6] = 0
    from subplan.gridworld import Maze

    maze = Maze(7, 3, cells, 1.0, 0)
    a = candidate_subgoals(maze)
    b = candidate_subgoals(Maze(7, 3, cells.copy(), 1.0, 0))
    assert len(a) == 6
    assert a == b


# ---------------------------------------------------------------------------
# dump format


def populated_tree():
    tree = make_tree(budget=20)
    keys = [
        OrKey(StateId(1, 1), StateId(3, 3)),
        OrKey(StateId(2, 2), StateId(3, 3)),
        OrKey(StateId(1, 1), StateId(2, 2)),
    ]
    for k in keys:
        expand(tree, k)
    update(tree, keys[0], 0.25)
    update(tree, keys[0], 1.0)
    update(tree, keys[1], 0.1)
    touch(tree, keys[0], None)
    touch(tree, keys[0], StateId(2, 2))
    touch(tree, keys[0], StateId(2, 2))
    return tree


def by_key(tree):
    """The tree's statistics keyed by cells: {OrKey: (V, N)} and
    {(s, mid, s''): count}, independent of the tree's cell indexing."""
    cells, n = tree.cells, tree.n
    ors, ands = {}, {}
    for f, c in tree.and_counts.items():
        i, j = divmod(f, n)
        ors[OrKey(cells[i], cells[j])] = (float(tree.V[i, j]), int(tree.N[i, j]))
        for pick in np.flatnonzero(c):
            ands[(cells[i], None if pick == 0 else cells[pick - 1], cells[j])] = int(c[pick])
    return ors, ands


def test_dump_lines_sorted_and_formatted():
    text = dump_tree(populated_tree())
    lines = text.splitlines()
    assert lines[0] == "OR 1,1 2,2 0.5 0 true"
    assert lines[1] == "OR 1,1 3,3 0.625 2 true"
    assert lines[2] == "OR 2,2 3,3 0.1 1 true"
    assert lines[3] == "AND 1,1 ∅ 3,3 1"
    assert lines[4] == "AND 1,1 2,2 3,3 2"


def test_dump_round_trip_identical_stats():
    from subplan.heuristics import UntrainedHeuristics
    from subplan.planner import PlannerConfig, run_search

    tree = populated_tree()
    loaded = load_tree_dump(dump_tree(tree))
    assert loaded.cells == (StateId(1, 1), StateId(2, 2), StateId(3, 3))
    maze = generate_maze(9, 9, 0.6, seed=2)
    searched = run_search(sample_task(maze, 2), UntrainedHeuristics(), PlannerConfig(budget=40)).tree
    for tree in (populated_tree(), searched):
        text = dump_tree(tree)
        loaded = load_tree_dump(text, root=tree.root)
        assert by_key(loaded) == by_key(tree)
        assert loaded.root == tree.root
        assert loaded.budget_used == tree.budget_used
        assert dump_tree(loaded) == text


def test_dump_null_sorts_before_cells():
    tree = make_tree()
    expand(tree, tree.root)
    touch(tree, tree.root, StateId(0, 0))
    touch(tree, tree.root, None)
    lines = dump_tree(tree).splitlines()
    assert lines[1].startswith("AND 1,1 ∅")
    assert lines[2].startswith("AND 1,1 0,0")


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_tree_dump("NOPE 1,1 2,2\n")
    with pytest.raises(ValueError):
        load_tree_dump("OR 1,1 2,2 0.5 0\n")  # missing expanded flag
    with pytest.raises(ValueError):
        load_tree_dump("")


# Dumps that dump_tree cannot write: each names the first thing wrong with it.
BAD_DUMPS = {
    "negative N": "OR 1,1 2,2 0.5 -3 true\n",
    "V is nan": "OR 1,1 2,2 nan 0 true\n",
    "V above 1": "OR 1,1 2,2 7.5 0 true\n",
    "unexpanded flag": "OR 1,1 2,2 0.5 0 false\n",
    "AND without its OR": "OR 1,1 2,2 0.5 1 true\nAND 1,1 ∅ 3,3 1\n",
    "AND count 0": "OR 1,1 2,2 0.5 1 true\nAND 1,1 ∅ 2,2 0\n",
    "AND count negative": "OR 1,1 2,2 0.5 1 true\nAND 1,1 ∅ 2,2 -4\n",
}


@pytest.mark.parametrize("name", sorted(BAD_DUMPS))
def test_load_rejects_what_the_writer_cannot_emit(name):
    with pytest.raises(ValueError):
        load_tree_dump(BAD_DUMPS[name])


def test_load_accepts_the_edges_of_the_valid_range():
    tree = load_tree_dump("OR 1,1 2,2 0.0 0 true\nOR 2,2 1,1 1.0 1 true\nAND 2,2 1,1 1,1 1\n")
    assert by_key(tree) == (
        {OrKey(StateId(1, 1), StateId(2, 2)): (0.0, 0), OrKey(StateId(2, 2), StateId(1, 1)): (1.0, 1)},
        {(StateId(2, 2), StateId(1, 1), StateId(1, 1)): 1},
    )
