"""Heuristics tests: features, the trainable model, replay buffer,
hindsight parsers, gradient correctness, persistence, and the training loop."""

from __future__ import annotations

import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subplan.heuristics as heuristics_module
from subplan.gridworld import WALL, Maze, StateId, Task, adjacent, encode_task, generate_maze, sample_task
from subplan.heuristics import (
    BOARD_CACHE_SIZE,
    PARSER_KINDS,
    PATCH,
    PRIOR_DIM,
    VALUE_DIM,
    EnvConfig,
    PriorEntry,
    ReplayBuffer,
    TrainConfig,
    TrainableModel,
    TrainingRun,
    UntrainedHeuristics,
    ValueEntry,
    load_checkpoint,
    load_replay,
    parse_trajectory,
    prior_features,
    prior_targets_from_tree,
    save_checkpoint,
    save_replay,
    train_step,
    training_loop,
    value_features,
)
from subplan.planner import PlannerConfig, PlanningContext, run_search
from subplan.tree import OrKey, SearchTree, expand_node, update_or_stats


def open_grid(width: int, height: int | None = None) -> Maze:
    h = height if height is not None else width
    return Maze(width, h, np.zeros((h, width), dtype=np.uint8), 0.0, -1)


def row_maze(n: int) -> Maze:
    return open_grid(n, 1)


def cell(r: int, c: int) -> StateId:
    return StateId(r, c)


def line_states(n: int) -> list[StateId]:
    return [cell(0, t) for t in range(n)]


class VhatStub:
    """Constant value estimate with a uniform prior."""

    def __init__(self, vhat: float = 0.0):
        self.vhat = vhat

    def values(self, maze, pairs):
        return np.full(len(pairs), self.vhat)

    def prior(self, task, key):
        m = len(task.maze.empty_cells) + 1
        return np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------
# features


def reference_patch(cells: np.ndarray, s: StateId) -> np.ndarray:
    """The PATCH×PATCH wall window centred on s, off-board cells as walls."""
    padded = np.pad((cells == WALL).astype(float), PATCH // 2, constant_values=1.0)
    return padded[s.row : s.row + PATCH, s.col : s.col + PATCH].ravel()


def reference_offsets(a: StateId, b: StateId, scale: float) -> list[float]:
    dr = b.row - a.row
    dc = b.col - a.col
    return [dr / scale, dc / scale, (abs(dr) + abs(dc)) / scale]


def reference_value_features(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Loop form of value_features, one pair at a time."""
    height, width = cells.shape
    scale = float(max(height, width))
    pp = PATCH * PATCH
    out = np.empty((len(pairs), VALUE_DIM))
    for k, (r1, c1, r2, c2) in enumerate(np.asarray(pairs)):
        a = StateId(int(r1), int(c1))
        b = StateId(int(r2), int(c2))
        out[k, 0:3] = reference_offsets(a, b, scale)
        out[k, 3] = 1.0 if adjacent(a, b) else 0.0
        out[k, 4] = 1.0 if a == b else 0.0
        out[k, 5 : 5 + pp] = reference_patch(cells, a)
        out[k, 5 + pp : 5 + 2 * pp] = reference_patch(cells, b)
        out[k, -2] = height / 32.0
        out[k, -1] = width / 32.0
    return out


def end_rows(*pairs) -> np.ndarray:
    """The (E, 4) end rows (r1, c1, r2, c2) of (s, s'') cell pairs."""
    return np.array([(*s, *s2) for s, s2 in pairs], dtype=np.int64).reshape(-1, 4)


def reference_prior_features(cells, s: StateId, s2: StateId) -> np.ndarray:
    """Loop form of prior_features, one candidate at a time: ∅, then every
    non-wall cell of the board in row-major order."""
    height, width = cells.shape
    candidates = [None, *(StateId(r, c) for r in range(height) for c in range(width)
                          if cells[r, c] != WALL)]
    scale = float(max(height, width))
    pp = PATCH * PATCH
    base = np.zeros(PRIOR_DIM)
    base[7:10] = reference_offsets(s, s2, scale)
    base[12] = 1.0 if adjacent(s, s2) else 0.0
    base[15] = 1.0 if s == s2 else 0.0
    base[16 + 0 * pp : 16 + 1 * pp] = reference_patch(cells, s)
    base[16 + 2 * pp : 16 + 3 * pp] = reference_patch(cells, s2)
    base[-2] = height / 32.0
    base[-1] = width / 32.0
    out = np.tile(base, (len(candidates), 1))
    for k, x in enumerate(candidates):
        if x is None:
            out[k, 0] = 1.0  # the ∅ candidate
            continue
        out[k, 1:4] = reference_offsets(s, x, scale)
        out[k, 4:7] = reference_offsets(x, s2, scale)
        out[k, 10] = 1.0 if adjacent(s, x) else 0.0
        out[k, 11] = 1.0 if adjacent(x, s2) else 0.0
        out[k, 13] = 1.0 if s == x else 0.0
        out[k, 14] = 1.0 if x == s2 else 0.0
        out[k, 16 + 1 * pp : 16 + 2 * pp] = reference_patch(cells, x)
    return out


@st.composite
def boards(draw):
    """A random board up to 15×15 (height and width drawn apart), its walls
    drawn at a density that includes 0 and 1."""
    height = draw(st.integers(1, 15))
    width = draw(st.integers(1, 15))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cells = (rng.random((height, width)) < density).astype(np.uint8)
    return cells, rng


def on_board(rng, cells, k: int) -> np.ndarray:
    """k random (row, col) cells of the board, walls included."""
    height, width = cells.shape
    return np.stack([rng.integers(0, height, k), rng.integers(0, width, k)], axis=1)


def as_cell(rc) -> StateId:
    return StateId(int(rc[0]), int(rc[1]))


class TestFeaturesMatchLoopForm:
    @settings(max_examples=150, deadline=None)
    @given(boards(), st.integers(0, 40))
    def test_value_features(self, board, k):
        cells, rng = board
        pairs = np.hstack([on_board(rng, cells, k), on_board(rng, cells, k)])
        got = value_features(cells, pairs)
        assert got.shape == (k, VALUE_DIM)
        assert got.tobytes() == reference_value_features(cells, pairs).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(boards())
    def test_prior_features(self, board):
        cells, rng = board
        s, s2 = (as_cell(rc) for rc in on_board(rng, cells, 2))
        got = prior_features(cells, end_rows((s, s2)))
        assert got.shape == (1 + np.count_nonzero(cells != WALL), PRIOR_DIM)
        assert got.tobytes() == reference_prior_features(cells, s, s2).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(boards(), st.integers(0, 6))
    def test_prior_features_over_many_entries(self, board, e):
        """E end rows give the E one-row reference blocks, entry-major."""
        cells, rng = board
        ends = np.hstack([on_board(rng, cells, e), on_board(rng, cells, e)])
        got = prior_features(cells, ends)
        assert got.shape == (e * (1 + np.count_nonzero(cells != WALL)), PRIOR_DIM)
        blocks = [reference_prior_features(cells, as_cell(row[:2]), as_cell(row[2:]))
                  for row in ends]
        want = np.concatenate(blocks) if blocks else np.empty((0, PRIOR_DIM))
        assert got.tobytes() == want.tobytes()

    def test_empty_pair_array(self):
        cells = generate_maze(7, 5, 0.5, seed=1).cells
        pairs = np.empty((0, 4), dtype=np.int64)
        got = value_features(cells, pairs)
        assert got.shape == (0, VALUE_DIM)
        assert got.tobytes() == reference_value_features(cells, pairs).tobytes()

    def test_null_only_and_equal_ends(self):
        maze = generate_maze(6, 9, 0.5, seed=4)
        s = maze.empty_cells[3]
        got = prior_features(maze.cells, end_rows((s, s)))
        assert got.tobytes() == reference_prior_features(maze.cells, s, s).tobytes()
        walls = np.full((4, 3), WALL, dtype=np.uint8)  # no cell: ∅ is the only candidate
        w = StateId(1, 1)
        got = prior_features(walls, end_rows((w, w)))
        assert got.shape == (1, PRIOR_DIM)
        assert got.tobytes() == reference_prior_features(walls, w, w).tobytes()
        assert np.array_equal(got[0, [0, 15]], [1.0, 1.0])

    def test_boards_of_one_shape_do_not_share_features(self):
        a = np.zeros((7, 7), dtype=np.uint8)
        b = a.copy()
        b[3, 4] = WALL
        pairs = np.array([[3, 3, 3, 5]])
        ends = end_rows((StateId(3, 3), StateId(3, 5)))
        for cells in (a, b, a, b):
            assert value_features(cells, pairs).tobytes() == \
                reference_value_features(cells, pairs).tobytes()
            assert prior_features(cells, ends).tobytes() == \
                reference_prior_features(cells, StateId(3, 3), StateId(3, 5)).tobytes()
        assert not np.array_equal(value_features(a, pairs), value_features(b, pairs))

    def test_cells_changed_in_place_between_calls(self):
        cells = np.zeros((5, 8), dtype=np.uint8)
        pairs = np.array([[2, 2, 2, 3], [0, 0, 4, 7]])
        before = value_features(cells, pairs)
        cells[2, 4] = WALL
        after = value_features(cells, pairs)
        assert after.tobytes() == reference_value_features(cells, pairs).tobytes()
        assert not np.array_equal(before, after)
        cells[2, 4] = 0
        assert value_features(cells, pairs).tobytes() == before.tobytes()

    def test_encoding_gives_the_features_of_its_maze(self):
        maze = generate_maze(9, 7, 0.75, seed=5)
        task = sample_task(maze, seed=2)
        enc = encode_task(task)
        pairs = np.array([[task.start.row, task.start.col, task.goal.row, task.goal.col]])
        assert value_features(enc, pairs).tobytes() == value_features(maze.cells, pairs).tobytes()
        ends = end_rows((task.start, task.goal))
        assert prior_features(enc, ends).tobytes() == prior_features(maze.cells, ends).tobytes()

    def test_board_cache_is_bounded_and_read_only(self):
        pairs = np.array([[0, 0, 1, 1]])
        rng = np.random.default_rng(3)
        for _ in range(BOARD_CACHE_SIZE + 10):
            value_features((rng.random((6, 6)) < 0.5).astype(np.uint8), pairs)
        assert heuristics_module._board_of_walls.cache_info().currsize == BOARD_CACHE_SIZE
        board = heuristics_module._board(np.zeros((4, 6), dtype=np.uint8))
        assert board.patches.shape == (4, 6, PATCH * PATCH)
        assert not board.patches.flags.writeable
        with pytest.raises(ValueError):
            board.patches[0, 0, 0] = 1


class TestFeatures:
    def test_value_feature_shape_and_finiteness(self):
        maze = generate_maze(7, 7, 0.5, seed=1)
        cells = maze.empty_cells
        pairs = np.array([[a.row, a.col, b.row, b.col] for a in cells[:5] for b in cells[:5]])
        X = value_features(maze.cells, pairs)
        assert X.shape == (25, VALUE_DIM)
        assert np.all(np.isfinite(X))

    def test_prior_feature_shape_and_null_flag(self):
        maze = generate_maze(7, 7, 0.5, seed=2)
        task = Task(maze, maze.empty_cells[0], maze.empty_cells[-1])
        X = prior_features(maze.cells, end_rows((task.start, task.goal)))
        assert X.shape == (len(maze.empty_cells) + 1, PRIOR_DIM)
        assert X[0, 0] == 1.0
        assert np.all(X[1:, 0] == 0.0)
        assert np.all(np.isfinite(X))

    def test_nearby_wall_changes_features_far_wall_does_not(self):
        base = np.zeros((11, 11), dtype=np.uint8)
        near = base.copy()
        near[5, 7] = 1  # inside the 5x5 window around the pair
        far = base.copy()
        far[0, 0] = 1  # far outside both windows
        pair = np.array([[5, 5, 5, 6]])
        x_base = value_features(base, pair)
        x_near = value_features(near, pair)
        x_far = value_features(far, pair)
        assert not np.array_equal(x_base, x_near)
        assert np.array_equal(x_base, x_far)


# ---------------------------------------------------------------------------
# fresh model behavior


class TestFreshModel:
    def test_untrained_value_is_half(self):
        model = TrainableModel(hidden=8, seed=0)
        maze = generate_maze(5, 5, 0.5, seed=3)
        cells = maze.empty_cells
        pairs = np.array([[a.row, a.col, b.row, b.col] for a in cells[:3] for b in cells[:3]])
        assert np.all(model.values(maze, pairs) == 0.5)

    def test_untrained_prior_is_uniform(self):
        model = TrainableModel(hidden=8, seed=0)
        maze = generate_maze(5, 5, 0.5, seed=3)
        task = Task(maze, maze.empty_cells[0], maze.empty_cells[-1])
        p = model.prior(task, OrKey(task.start, task.goal))
        assert p.shape == (len(maze.empty_cells) + 1,)
        assert np.allclose(p, 1.0 / len(p), atol=1e-15)

    def test_inference_temperature_sharpens_prior(self):
        model = TrainableModel(hidden=8, temperature=0.003, seed=0)
        rng = np.random.default_rng(7)
        model.params["prior_w2"] = rng.normal(0, 1.0, model.hidden)
        model.params["prior_b2"] = rng.normal(0, 1.0, 1)
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        z = model.prior_logits(maze.cells, task.start, task.goal)
        zs = z - z.max()
        flat = np.exp(zs) / np.exp(zs).sum()  # temperature-1 softmax
        sharp = model.prior(task, OrKey(task.start, task.goal))
        assert np.argmax(sharp) == np.argmax(flat)
        assert sharp.max() > flat.max()
        assert sharp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_untrained_heuristics_object(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        heur = UntrainedHeuristics()
        pairs = np.array([[0, 0, 0, 2]])
        assert np.all(heur.values(maze, pairs) == 0.0)
        assert np.array_equal(heur.prior(task, OrKey(task.start, task.goal)), np.full(4, 0.25))

    def test_optimizer_validated(self):
        with pytest.raises(ValueError):
            TrainableModel(optimizer="momentum")


# ---------------------------------------------------------------------------
# replay buffer


def value_entry(maze: Maze, target: float) -> ValueEntry:
    key = OrKey(maze.empty_cells[0], maze.empty_cells[-1])
    return ValueEntry(encode_task(Task(maze, key.s, key.s2)), key, target)


def prior_entry(maze: Maze, target: np.ndarray) -> PriorEntry:
    a, b = maze.empty_cells[0], maze.empty_cells[-1]
    return PriorEntry(encode_task(Task(maze, a, b)), a, None, b, np.asarray(target, dtype=float))


class TestReplayBuffer:
    def uniform_target(self, maze: Maze) -> np.ndarray:
        k = len(maze.empty_cells) + 1
        return np.full(k, 1.0 / k)

    def test_target_validation(self):
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=8)
        with pytest.raises(ValueError):
            buf.add_value(value_entry(maze, 1.5))
        with pytest.raises(ValueError):
            buf.add_value(value_entry(maze, -0.1))
        with pytest.raises(ValueError):
            buf.add_prior(prior_entry(maze, [0.5, 0.2, 0.1, 0.1]))  # sums to 0.9
        buf.add_value(value_entry(maze, 0.0))
        buf.add_value(value_entry(maze, 1.0))
        buf.add_prior(prior_entry(maze, self.uniform_target(maze)))

    def test_fifo_eviction(self):
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=3)
        for t in (0.1, 0.2, 0.3, 0.4):
            buf.add_value(value_entry(maze, t))
        assert [e.target for e in buf.value_entries] == [0.2, 0.3, 0.4]
        for _ in range(5):
            buf.add_prior(prior_entry(maze, self.uniform_target(maze)))
        assert len(buf.prior_entries) == 3

    def test_can_sample_needs_both_streams(self):
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=8)
        for _ in range(4):
            buf.add_value(value_entry(maze, 0.5))
        assert not buf.can_sample(2)  # prior stream still empty
        for _ in range(4):
            buf.add_prior(prior_entry(maze, self.uniform_target(maze)))
        assert buf.can_sample(4)
        assert not buf.can_sample(5)

    def test_sample_is_seeded_and_sized(self):
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=16)
        for t in range(8):
            buf.add_value(value_entry(maze, t / 10))
            buf.add_prior(prior_entry(maze, self.uniform_target(maze)))
        a = buf.sample(np.random.default_rng(0), 5)
        b = buf.sample(np.random.default_rng(0), 5)
        assert len(a["prior"]) == len(a["value"]) == 5
        assert [e.target for e in a["value"]] == [e.target for e in b["value"]]

    def test_eviction_order_and_sample_match_list_form(self):
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=5)
        values = [value_entry(maze, t / 20) for t in range(12)]
        priors = [prior_entry(maze, [a, 0.5 - a, 0.25, 0.25]) for a in np.linspace(0, 0.5, 12)]
        for v, p in zip(values, priors):
            buf.add_value(v)
            buf.add_prior(p)
        # oldest evicted first: the streams hold the last `capacity` adds, in order
        assert list(buf.value_entries) == values[-5:]
        assert [e.target for e in buf.value_entries] == [0.35, 0.4, 0.45, 0.5, 0.55]
        assert all(a is b for a, b in zip(buf.prior_entries, priors[-5:], strict=True))
        # the list form drew prior indices, then value indices, from one rng
        rng = np.random.default_rng(3)
        pi, vi = rng.integers(5, size=16), rng.integers(5, size=16)
        got = buf.sample(np.random.default_rng(3), 16)
        assert all(a is priors[-5:][i] for a, i in zip(got["prior"], pi, strict=True))
        assert all(a is values[-5:][i] for a, i in zip(got["value"], vi, strict=True))


# ---------------------------------------------------------------------------
# hindsight parsers


def as_index_triplets(triplets, states):
    pos = {s: i for i, s in enumerate(states)}
    return [(pos[a], pos[m], pos[b]) for a, m, b in triplets]


class TestParsers:
    def test_goldens_length_3_to_6(self):
        goldens = {
            # length: (left_first, right_first, temporally_balanced)
            3: ([(0, 1, 2)], [(0, 1, 2)], [(0, 1, 2)]),
            4: ([(0, 1, 3), (1, 2, 3)],
                [(0, 1, 2), (0, 2, 3)],
                [(0, 1, 3), (1, 2, 3)]),
            5: ([(0, 1, 4), (1, 2, 4), (2, 3, 4)],
                [(0, 1, 2), (0, 2, 3), (0, 3, 4)],
                [(0, 2, 4), (0, 1, 2), (2, 3, 4)]),
            6: ([(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5)],
                [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)],
                [(0, 2, 5), (0, 1, 2), (2, 3, 5), (3, 4, 5)]),
        }
        for n, (lf, rf, tb) in goldens.items():
            states = line_states(n)
            assert as_index_triplets(parse_trajectory("left_first", states), states) == lf
            assert as_index_triplets(parse_trajectory("right_first", states), states) == rf
            assert as_index_triplets(
                parse_trajectory("temporally_balanced", states), states
            ) == tb

    def test_triplet_count_law(self):
        # every parser yields exactly T-2 triplets on a T-state trajectory
        for n in range(3, 11):
            states = line_states(n)
            for kind in ("left_first", "right_first", "temporally_balanced"):
                assert len(parse_trajectory(kind, states)) == n - 2

    def test_balanced_triplets_are_ordered(self):
        for n in range(3, 11):
            states = line_states(n)
            for a, m, b in parse_trajectory("temporally_balanced", states):
                assert a.col < m.col < b.col

    def test_weight_balanced_matches_symmetric_values(self):
        states = line_states(5)

        def v(a, b):
            return 1.0 / (1.0 + abs(b.col - a.col))

        got = as_index_triplets(
            parse_trajectory("weight_balanced", states, v), states
        )
        assert got == [(0, 2, 4), (0, 1, 2), (2, 3, 4)]

    def test_weight_balanced_tie_takes_first_index(self):
        states = line_states(5)
        got = as_index_triplets(
            parse_trajectory("weight_balanced", states, lambda a, b: 0.5), states
        )
        assert got == [(0, 1, 4), (1, 2, 4), (2, 3, 4)]

    def test_weight_balanced_requires_value_fn(self):
        with pytest.raises(ValueError):
            parse_trajectory("weight_balanced", line_states(4))

    def test_degenerate_trajectories(self):
        assert parse_trajectory("left_first", line_states(2)) == []
        with pytest.raises(ValueError):
            parse_trajectory("left_first", line_states(1))
        with pytest.raises(ValueError):
            parse_trajectory("middle_out", line_states(4))

    def test_revisiting_states_still_parse(self):
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        states = [a, b, a, b, c]  # a walk that backtracks
        triplets = parse_trajectory("left_first", states)
        assert len(triplets) == 3
        assert triplets[0] == (a, b, c)


# ---------------------------------------------------------------------------
# training targets


def built_tree():
    """1x3 row with the root updated to V=0.6 and both split children at 1."""
    maze = row_maze(3)
    task = Task(maze, cell(0, 0), cell(0, 2))
    cfg = PlannerConfig(budget=10, seed=0)
    tree = search_tree(task, 10)
    ctx = PlanningContext(tree, task, VhatStub(0.35), cfg)
    for key in (tree.root, OrKey(cell(0, 0), cell(0, 1)), OrKey(cell(0, 1), cell(0, 2))):
        expand_node(tree, *ctx.kidx(key))
    for g in (0.5, 0.7):
        update_or_stats(tree, *ctx.kidx(tree.root), g)
    return tree, task


def search_tree(task, budget):
    return SearchTree(root=OrKey(task.start, task.goal), budget_max=budget, max_depth=8,
                      cells=task.maze.empty_cells)


class TestTargets:
    def test_value_targets_mirror_solution_returns(self):
        maze = generate_maze(7, 7, 0.5, seed=4)
        task = sample_task(maze, seed=5)
        res = run_search(task, VhatStub(0.3), PlannerConfig(budget=25, seed=1))
        assert res.returns == tuple((n.key, n.G) for n in res.solution_tree.nodes())
        for key, g in res.returns:
            assert 0.0 <= g <= 1.0

    def test_prior_targets_follow_select_weights(self):
        tree, task = built_tree()
        target = prior_targets_from_tree(tree, tree.root)
        v_root = float(tree.V[tree.context.kidx(tree.root)])
        w = np.array([0.0, v_root, 1.0, v_root])
        assert np.allclose(target, w / w.sum(), atol=1e-15)
        assert target[0] == 0.0
        assert target.sum() == pytest.approx(1.0, abs=1e-12)

    def test_prior_targets_none_when_unscorable(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))

        class DeadPolicy:
            def value(self, m, s, t):
                return 1.0 if s == t else 0.0

            def step(self, rng, m, s, sub):
                return s

        cfg = PlannerConfig(budget=5, seed=0)
        tree = search_tree(task, 5)
        ctx = PlanningContext(tree, task, VhatStub(0.0), cfg, DeadPolicy())
        expand_node(tree, *ctx.kidx(tree.root))
        assert prior_targets_from_tree(tree, tree.root) is None

    def test_prior_targets_error_paths(self):
        tree, task = built_tree()
        with pytest.raises(ValueError):
            prior_targets_from_tree(tree, OrKey(cell(0, 1), cell(0, 0)))  # unexpanded
        with pytest.raises(ValueError):
            prior_targets_from_tree(tree, OrKey(cell(0, 0), cell(2, 2)))  # off the maze
        bare = search_tree(task, 1)
        with pytest.raises(ValueError):
            prior_targets_from_tree(bare, tree.root)


# ---------------------------------------------------------------------------
# train_step


def make_batch(maze: Maze, rng) -> dict:
    cells_list = maze.empty_cells
    enc = encode_task(Task(maze, cells_list[0], cells_list[-1]))
    k = len(cells_list) + 1
    values = []
    for t in (0.25, 0.9, 0.5):
        i, j = rng.integers(len(cells_list), size=2)
        values.append(ValueEntry(enc, OrKey(cells_list[int(i)], cells_list[int(j)]), t))
    priors = []
    for _ in range(2):
        w = rng.random(k)
        priors.append(PriorEntry(enc, cells_list[0], None, cells_list[-1], w / w.sum()))
    return {"value": values, "prior": priors}


def manual_losses(params: dict, batch: dict) -> tuple[float, float]:
    """Independent forward pass and cross-entropy computation."""

    def head(prefix, X):
        A = np.tanh(X @ params[f"{prefix}_w1"] + params[f"{prefix}_b1"])
        return A @ params[f"{prefix}_w2"] + params[f"{prefix}_b2"][0]

    value_loss = 0.0
    for e in batch["value"]:
        walls = (e.encoding == WALL).astype(np.uint8)
        X = reference_value_features(walls, np.array([[e.key.s.row, e.key.s.col,
                                                       e.key.s2.row, e.key.s2.col]]))
        z = head("value", X)[0]
        p = 1.0 / (1.0 + math.exp(-z))
        value_loss += -(e.target * math.log(p) + (1.0 - e.target) * math.log(1.0 - p))
    value_loss /= len(batch["value"])

    prior_loss = 0.0
    for e in batch["prior"]:
        walls = (e.encoding == WALL).astype(np.uint8)
        X = reference_prior_features(walls, e.s, e.s2)
        z = head("prior", X)
        zs = z - z.max()
        logp = zs - math.log(np.exp(zs).sum())
        prior_loss += -float(e.target @ logp)
    prior_loss /= len(batch["prior"])
    return prior_loss, value_loss


def reference_train_step(model: TrainableModel, batch: dict) -> tuple[float, float]:
    """train_step one entry at a time: a feature block per entry, a softmax
    per entry, and the np.outer backward pass."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}

    def backward(head, X, A, dz):
        w2 = model.params[f"{head}_w2"]
        grads[f"{head}_w2"] += A.T @ dz
        grads[f"{head}_b2"] += np.array([np.sum(dz)])
        dZ1 = np.outer(dz, w2) * (1.0 - A * A)
        grads[f"{head}_w1"] += X.T @ dZ1
        grads[f"{head}_b1"] += np.sum(dZ1, axis=0)

    value_loss = 0.0
    if batch.get("value"):
        entries = batch["value"]
        X = np.concatenate([reference_value_features(e.encoding, np.array([[*e.key.s, *e.key.s2]]))
                            for e in entries])
        g = np.array([e.target for e in entries])
        z, A = model._head_forward("value", X)
        value_loss = float(np.mean(g * np.logaddexp(0.0, -z) + (1.0 - g) * np.logaddexp(0.0, z)))
        backward("value", X, A, (heuristics_module._sigmoid(z) - g) / len(entries))

    prior_loss = 0.0
    if batch.get("prior"):
        entries = batch["prior"]
        X = np.concatenate([
            reference_prior_features(e.encoding, e.s, e.s2) for e in entries
        ])
        z, A = model._head_forward("prior", X)
        dz = np.empty_like(z)
        off = 0
        for e in entries:
            zs = z[off : off + len(e.target)]
            top = np.max(zs)
            ez = np.exp(zs - top)
            total = np.sum(ez)
            prior_loss += float(-np.dot(e.target, zs - (top + math.log(total))))
            dz[off : off + len(e.target)] = (ez / total - e.target) / len(entries)
            off += len(e.target)
        prior_loss /= len(entries)
        backward("prior", X, A, dz)

    heuristics_module._apply_gradients(model, grads)
    return prior_loss, value_loss


@st.composite
def training_batches(draw):
    """A batch over 2-3 boards with different cell counts: encodings of one
    maze carry different starts and goals, entries repeat, and mids are
    cells or ∅."""
    shapes = draw(st.lists(st.tuples(st.integers(5, 9), st.integers(5, 9)), min_size=2,
                           max_size=3, unique_by=lambda hw: hw[0] * hw[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mazes = [generate_maze(w, h, float(rng.random()), seed=int(rng.integers(2**31)))
             for h, w in shapes]

    def pick(cells):
        return cells[int(rng.integers(len(cells)))]

    def encoding(maze):
        start, goal = rng.choice(len(maze.empty_cells), 2, replace=False)
        return encode_task(Task(maze, maze.empty_cells[start], maze.empty_cells[goal]))

    priors, values = [], []
    for _ in range(draw(st.integers(1, 12))):
        maze = mazes[int(rng.integers(len(mazes)))]
        w = rng.random(len(maze.empty_cells) + 1) ** 4
        mid = None if rng.random() < 0.3 else pick(maze.empty_cells)
        priors.append(PriorEntry(encoding(maze), pick(maze.empty_cells), mid,
                                 pick(maze.empty_cells), w / w.sum()))
        maze = mazes[int(rng.integers(len(mazes)))]
        key = OrKey(pick(maze.empty_cells), pick(maze.empty_cells))
        values.append(ValueEntry(encoding(maze), key, float(rng.random())))
    repeats = draw(st.lists(st.integers(0, len(priors) - 1), max_size=6))
    return {"prior": priors + [priors[k] for k in repeats],
            "value": values + [values[k] for k in repeats[::-1]]}


class TestTrainStep:
    def test_fresh_model_losses_are_entropy(self):
        maze = row_maze(3)
        model = TrainableModel(hidden=8, seed=0)
        batch = make_batch(maze, np.random.default_rng(0))
        prior_loss, value_loss = train_step(model, batch)
        assert value_loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert prior_loss == pytest.approx(math.log(4.0), abs=1e-12)  # 4 candidates

    def test_reported_losses_match_manual_computation(self):
        maze = generate_maze(5, 5, 0.5, seed=6)
        rng = np.random.default_rng(1)
        model = TrainableModel(hidden=6, seed=2)
        for k in model.params:
            model.params[k] = rng.normal(0, 0.4, model.params[k].shape)
        batch = make_batch(maze, rng)
        expected = manual_losses(model.params, batch)
        got = train_step(model, batch)
        assert got[0] == pytest.approx(expected[0], rel=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=1e-12)

    def test_value_rows_built_once_per_board_in_entry_order(self, monkeypatch):
        # value entries of two boards, interleaved; encodings of one maze
        # with other starts and goals share its board
        mazes = [generate_maze(5, 5, 0.5, seed=6), generate_maze(5, 5, 0.5, seed=8)]
        rng = np.random.default_rng(4)
        model = TrainableModel(hidden=6, seed=2)
        for k in model.params:
            model.params[k] = rng.normal(0, 0.4, model.params[k].shape)
        values = []
        for k in range(8):
            cells = mazes[k % 2].empty_cells
            a, b = rng.integers(len(cells), size=2)
            enc = encode_task(Task(mazes[k % 2], cells[k], cells[-1 - k]))
            values.append(ValueEntry(enc, OrKey(cells[int(a)], cells[int(b)]), float(rng.random())))
        batch = {**make_batch(mazes[0], rng), "value": values}
        expected = manual_losses(model.params, batch)
        calls = []
        value_features = heuristics_module.value_features

        def counted(cells, pairs):
            calls.append(len(pairs))
            return value_features(cells, pairs)

        monkeypatch.setattr(heuristics_module, "value_features", counted)
        got = train_step(model, batch)
        assert calls == [4, 4]
        assert got[1] == pytest.approx(expected[1], rel=1e-12)

    def test_prior_loss_is_the_per_entry_form_bit_for_bit(self):
        # entries of two board sizes (two candidate counts), interleaved
        mazes = [generate_maze(5, 5, 0.5, seed=6), generate_maze(7, 7, 0.5, seed=8)]
        rng = np.random.default_rng(5)
        model = TrainableModel(hidden=6, seed=2)
        for k in model.params:
            model.params[k] = rng.normal(0, 2.0, model.params[k].shape)
        priors = []
        for k in range(7):
            maze = mazes[k % 2]
            cells = maze.empty_cells
            w = rng.random(len(cells) + 1)
            enc = encode_task(Task(maze, cells[0], cells[-1]))
            priors.append(PriorEntry(enc, cells[k], None, cells[-1 - k], w / w.sum()))
        X = np.concatenate([prior_features(e.encoding, end_rows((e.s, e.s2))) for e in priors])
        z, _ = model._head_forward("prior", X)
        total, off = 0.0, 0
        for e in priors:
            zs = z[off : off + len(e.target)]
            off += len(e.target)
            logp = zs - (np.max(zs) + math.log(np.sum(np.exp(zs - np.max(zs)))))
            total += float(-np.dot(e.target, logp))
        assert train_step(model, {"prior": priors})[0] == total / len(priors)

    @settings(max_examples=40, deadline=None)
    @given(training_batches(), st.sampled_from(["sgd", "adam"]), st.integers(0, 2**32 - 1),
           st.sampled_from([(True, True), (True, False), (False, True)]))
    def test_matches_the_per_entry_reference_byte_for_byte(self, batch, optimizer, seed, heads):
        batch = {k: v for (k, v), keep in zip(batch.items(), heads) if keep}
        rng = np.random.default_rng(seed)
        model = TrainableModel(hidden=7, optimizer=optimizer, learning_rate=0.05, seed=seed % 97)
        for k in model.params:
            model.params[k] = rng.normal(0, 0.6, model.params[k].shape)
        reference = load_checkpoint(save_checkpoint(model))[0]
        for _ in range(2):
            assert train_step(model, batch) == reference_train_step(reference, batch)
        for name in model.params:
            assert model.params[name].tobytes() == reference.params[name].tobytes(), name
            assert model.adam_m[name].tobytes() == reference.adam_m[name].tobytes(), name
            assert model.adam_v[name].tobytes() == reference.adam_v[name].tobytes(), name
        assert model.adam_t == reference.adam_t

    def test_repeated_steps_reduce_loss(self):
        maze = generate_maze(5, 5, 0.5, seed=7)
        model = TrainableModel(hidden=8, learning_rate=0.05, seed=3)
        batch = make_batch(maze, np.random.default_rng(2))
        first = sum(train_step(model, batch))
        for _ in range(60):
            last = sum(train_step(model, batch))
        assert last < first

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        maze = generate_maze(5, 5, 0.5, seed=8)
        for _ in range(2):
            lr = 1e-3
            model = TrainableModel(hidden=5, learning_rate=lr, seed=4)
            for k in model.params:
                model.params[k] = rng.normal(0, 0.4, model.params[k].shape)
            batch = make_batch(maze, rng)
            before = {k: v.copy() for k, v in model.params.items()}
            train_step(model, batch)
            analytic = {k: (before[k] - model.params[k]) / lr for k in before}

            h = 1e-5
            for name, base in before.items():
                fd = np.zeros_like(base)
                flat = base.ravel()
                fd_flat = fd.ravel()
                for idx in range(flat.size):
                    saved = flat[idx]
                    probe = {k: (v if k != name else base) for k, v in before.items()}
                    flat[idx] = saved + h
                    up = sum(manual_losses(probe, batch))
                    flat[idx] = saved - h
                    down = sum(manual_losses(probe, batch))
                    flat[idx] = saved
                    fd_flat[idx] = (up - down) / (2 * h)
                num = np.linalg.norm(fd - analytic[name])
                den = max(np.linalg.norm(analytic[name]), 1e-8)
                assert num / den <= 1e-4, f"gradient mismatch in {name}"

    def test_adam_changes_all_touched_blocks(self):
        maze = row_maze(4)
        model = TrainableModel(hidden=8, optimizer="adam", learning_rate=1e-3, seed=5)
        batch = make_batch(maze, np.random.default_rng(3))
        before = {k: v.copy() for k, v in model.params.items()}
        train_step(model, batch)
        assert model.adam_t == 1
        for head in ("value", "prior"):
            assert not np.array_equal(before[f"{head}_w2"], model.params[f"{head}_w2"])

    def test_empty_batch_rejected(self):
        model = TrainableModel(hidden=4, seed=0)
        with pytest.raises(ValueError):
            train_step(model, {"value": [], "prior": []})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_rejected(self):
        maze = row_maze(3)
        model = TrainableModel(hidden=4, seed=0)
        model.params["value_w1"][:] = np.nan
        batch = make_batch(maze, np.random.default_rng(4))
        with pytest.raises(ValueError, match="non-finite"):
            train_step(model, batch)

    def test_features_are_built_through_the_module_attributes(self, monkeypatch):
        """The model and train_step look the feature functions up by name,
        so wrapping those two module attributes sees every feature row."""
        calls = []

        def counted(name):
            fn = getattr(heuristics_module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(heuristics_module, "value_features", counted("value_features"))
        monkeypatch.setattr(heuristics_module, "prior_features", counted("prior_features"))
        maze = generate_maze(5, 5, 0.5, seed=6)
        model = TrainableModel(hidden=4, seed=0)
        pairs = np.array([[a.row, a.col, b.row, b.col] for a in maze.empty_cells[:2]
                          for b in maze.empty_cells[:2]])
        model.values(maze, pairs)
        assert calls == ["value_features"]
        task = Task(maze, maze.empty_cells[0], maze.empty_cells[-1])
        model.prior(task, OrKey(task.start, task.goal))
        assert calls == ["value_features", "prior_features"]
        calls.clear()
        batch = make_batch(maze, np.random.default_rng(2))
        train_step(model, batch)
        assert calls == ["value_features", "prior_features"]  # one call per board
        calls.clear()
        other = make_batch(generate_maze(7, 7, 0.5, seed=8), np.random.default_rng(3))
        mixed = {"prior": batch["prior"] + other["prior"] + batch["prior"],
                 "value": other["value"] + batch["value"]}
        train_step(model, mixed)
        assert calls == ["value_features"] * 2 + ["prior_features"] * 2

    def test_mismatched_prior_target_rejected(self):
        maze = row_maze(3)
        model = TrainableModel(hidden=4, seed=0)
        enc = encode_task(Task(maze, cell(0, 0), cell(0, 2)))
        bad = PriorEntry(enc, cell(0, 0), None, cell(0, 2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="length"):
            train_step(model, {"prior": [bad]})

    def test_prior_targets_are_checked_before_any_features(self, monkeypatch):
        good = make_batch(generate_maze(5, 5, 0.5, seed=6), np.random.default_rng(0))["prior"]
        enc = encode_task(Task(row_maze(3), cell(0, 0), cell(0, 2)))
        bad = PriorEntry(enc, cell(0, 0), None, cell(0, 2), np.array([0.5, 0.5]))
        calls = []
        monkeypatch.setattr(heuristics_module, "prior_features", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="length"):
            train_step(TrainableModel(hidden=4, seed=0), {"prior": [*good, bad]})
        assert calls == []


# ---------------------------------------------------------------------------
# persistence


class TestCheckpoints:
    def test_round_trip_preserves_model(self):
        model = TrainableModel(hidden=6, temperature=0.01, learning_rate=5e-3,
                               optimizer="sgd", seed=11)
        maze = generate_maze(5, 5, 0.5, seed=9)
        batch = make_batch(maze, np.random.default_rng(5))
        train_step(model, batch)
        text = save_checkpoint(model, episode=17)
        loaded, episode = load_checkpoint(text)
        assert episode == 17
        assert loaded.hidden == 6
        assert loaded.temperature == 0.01
        assert loaded.learning_rate == 5e-3
        assert loaded.optimizer == "sgd"
        assert loaded.seed == 11
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])
        pairs = np.array([[0, 0, 2, 2]])
        assert np.array_equal(loaded.values(maze, pairs), model.values(maze, pairs))

    def test_resave_is_byte_identical(self):
        model = TrainableModel(hidden=5, seed=12)
        maze = row_maze(4)
        train_step(model, make_batch(maze, np.random.default_rng(6)))
        text = save_checkpoint(model, episode=3)
        loaded, episode = load_checkpoint(text)
        assert save_checkpoint(loaded, episode=episode) == text

    def test_adam_state_round_trips(self):
        model = TrainableModel(hidden=5, optimizer="adam", seed=13)
        maze = row_maze(4)
        batch = make_batch(maze, np.random.default_rng(7))
        train_step(model, batch)
        train_step(model, batch)
        text = save_checkpoint(model, episode=2)
        loaded, _ = load_checkpoint(text)
        assert loaded.adam_t == 2
        for k in model.params:
            assert np.array_equal(loaded.adam_m[k], model.adam_m[k])
            assert np.array_equal(loaded.adam_v[k], model.adam_v[k])
        # one more identical step on both stays in lockstep
        train_step(model, batch)
        train_step(loaded, batch)
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    def test_malformed_checkpoints_rejected(self):
        model = TrainableModel(hidden=4, seed=0)
        text = save_checkpoint(model)
        with pytest.raises(ValueError, match="header"):
            load_checkpoint("model v2\n" + text.split("\n", 1)[1])
        # drop value_w1 (its param line and data rows) to hit the missing-param path
        kept = []
        skip = 0
        for l in text.splitlines():
            if l.startswith("param value_w1"):
                skip = int(l.split()[3]) + 1
            if skip > 0:
                skip -= 1
                continue
            kept.append(l)
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint("\n".join(kept) + "\n")
        model.params["value_w2"][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(save_checkpoint(model))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("model v1\nmeta hidden\n", id="meta-without-value"),
            pytest.param("model v1\nmeta\n", id="meta-alone"),
            pytest.param("model v1\nparam value_b1\n", id="param-without-ndim"),
            pytest.param("model v1\nparam value_b1 1\n", id="param-1d-without-length"),
            pytest.param("model v1\nparam value_w1 2 3\n", id="param-2d-without-columns"),
            pytest.param("model v1\nparam value_b1 1 4\n", id="row-missing"),
            pytest.param("model v1\nparam value_w1 2 3 4\n0.0 0.0 0.0 0.0\n", id="rows-missing"),
        ],
    )
    def test_truncated_lines_are_value_errors(self, text):
        with pytest.raises(ValueError):
            load_checkpoint(text)

    def test_a_checkpoint_cut_short_is_a_value_error(self):
        lines = save_checkpoint(TrainableModel(hidden=3, seed=1)).splitlines()
        for k in range(1, len(lines)):
            with pytest.raises(ValueError):
                load_checkpoint("\n".join(lines[:k]) + "\n")


# hidden, temperature and learning_rate a model cannot train or infer with
BAD_MODEL_SETTINGS = [
    {"hidden": 0},
    {"hidden": -2},
    {"temperature": 0.0},
    {"temperature": -0.5},
    {"temperature": float("nan")},
    {"temperature": float("inf")},
    {"learning_rate": 0.0},
    {"learning_rate": -1e-3},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"optimizer": "rmsprop"},
]


class TestModelSettings:
    @pytest.mark.parametrize("bad", BAD_MODEL_SETTINGS, ids=repr)
    def test_model_and_train_config_reject_the_same_settings(self, bad):
        with pytest.raises(ValueError):
            TrainableModel(**bad)
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_train_config_needs_a_batch(self):
        for size in (0, -4):
            with pytest.raises(ValueError):
                TrainConfig(batch_size=size)
        assert TrainConfig(batch_size=1).batch_size == 1

    def test_train_config_rejects_a_run_that_can_never_train(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=4096, capacity=2048)
        with pytest.raises(ValueError, match="episodes must be non-negative"):
            TrainConfig(episodes=-3)
        assert TrainConfig(batch_size=64, capacity=64).capacity == 64
        assert TrainConfig(episodes=0).episodes == 0

    def test_the_smallest_valid_settings_are_accepted(self):
        kw = {"hidden": 1, "temperature": 5e-324, "learning_rate": 5e-324}
        assert TrainableModel(**kw).hidden == 1
        assert TrainConfig(**kw).temperature == 5e-324

    def test_checkpoint_meta_is_checked_like_the_constructor(self):
        text = save_checkpoint(TrainableModel(hidden=3, seed=1))
        with pytest.raises(ValueError, match="temperature"):
            load_checkpoint(text.replace("meta temperature 0.003", "meta temperature 0.0"))


class TestReplayPersistence:
    def test_round_trip_preserves_entries(self):
        maze = generate_maze(5, 5, 0.6, seed=10)
        buf = ReplayBuffer(capacity=32)
        k = len(maze.empty_cells) + 1
        rng = np.random.default_rng(8)
        enc = encode_task(Task(maze, maze.empty_cells[0], maze.empty_cells[-1]))
        for t in (0.0, 0.3, 1.0):
            buf.add_value(ValueEntry(enc, OrKey(maze.empty_cells[0], maze.empty_cells[1]), t))
        w = rng.random(k)
        buf.add_prior(PriorEntry(enc, maze.empty_cells[0], None,
                                 maze.empty_cells[-1], w / w.sum()))
        buf.add_prior(PriorEntry(enc, maze.empty_cells[0], maze.empty_cells[2],
                                 maze.empty_cells[-1], w / w.sum()))
        text = save_replay(buf)
        loaded = load_replay(text)
        assert loaded.capacity == 32
        assert len(loaded.value_entries) == 3
        assert len(loaded.prior_entries) == 2
        for a, b in zip(loaded.value_entries, buf.value_entries):
            assert a.target == b.target
            assert a.key == b.key
            assert np.array_equal(a.encoding, b.encoding)
        for a, b in zip(loaded.prior_entries, buf.prior_entries):
            assert (a.s, a.mid, a.s2) == (b.s, b.mid, b.s2)
            assert np.array_equal(a.target, b.target)
            assert np.array_equal(a.encoding, b.encoding)
        assert save_replay(loaded) == text

    def test_malformed_replay_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_replay("replays v1\n")
        with pytest.raises(ValueError, match="capacity"):
            load_replay("replay v1\n")
        with pytest.raises(ValueError, match="meta"):
            load_replay("replay v1\nmeta capacity\n")
        with pytest.raises(ValueError, match="repeats"):
            load_replay("replay v1\nmeta capacity 4\nmeta capacity 8\n")

    def snapshot(self, capacity: int, values=(), priors=()) -> str:
        """save_replay of a buffer filled without add_* validation or the
        capacity's eviction (unbounded streams)."""
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=capacity)
        buf.value_entries = deque(value_entry(maze, t) for t in values)
        buf.prior_entries = deque(prior_entry(maze, t) for t in priors)
        return save_replay(buf)

    def test_entries_beyond_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            load_replay(self.snapshot(1, values=(0.2, 0.4)))
        uniform = np.full(4, 0.25)
        with pytest.raises(ValueError, match="capacity"):
            load_replay(self.snapshot(1, priors=(uniform, uniform)))
        assert len(load_replay(self.snapshot(2, values=(0.2, 0.4))).value_entries) == 2

    def test_value_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="value target"):
            load_replay(self.snapshot(4, values=(7.5,)))

    def test_prior_target_must_sum_to_one(self):
        with pytest.raises(ValueError, match="prior target"):
            load_replay(self.snapshot(4, priors=([0.3, 0.1, 0.1, 0.1],)))

    @pytest.mark.parametrize("entry, match", [
        ("value 0,0 0,2 0.5 1 3 979", "labels"),
        ("value 0,0 0,1 0.5 1 3 210", "wall"),
        ("value 0,0 0,7 0.5 1 3 203", "outside"),
        ("prior 0,0 0,1 0,2 1 3 213 0.5 0.25 0.25", "wall"),
        ("prior 0,0 ∅ 0,2 1 3 203 0.5 0.5", "one per candidate"),
    ], ids=["bad-label", "key-on-wall", "key-out-of-bounds", "mid-on-wall", "target-length"])
    def test_invalid_entry_rejected(self, entry, match):
        with pytest.raises(ValueError, match=match):
            load_replay(f"replay v1\nmeta capacity 4\n{entry}\n")

    def test_valid_entries_load(self):
        buf = load_replay("replay v1\nmeta capacity 4\n"
                          "value 0,0 0,2 0.5 1 3 213\n"
                          "prior 0,0 ∅ 0,2 1 3 203 0.25 0.25 0.25 0.25\n")
        assert len(buf.value_entries) == len(buf.prior_entries) == 1

    def test_data_before_meta_rejected(self):
        lines = self.snapshot(4, values=(0.5,)).splitlines()
        moved = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
        with pytest.raises(ValueError, match="before"):
            load_replay(moved)


# ---------------------------------------------------------------------------
# training loop


GOLDEN_TRAINING_SHA256 = "5808ecafdd76e687bc63326be8e3e29efcb21aefacc1d89d2e26cf0be5ea0d8f"


def tiny_configs(episodes: int, **train_kw):
    env = EnvConfig(width=5, height=5, density=0.45)
    pcfg = PlannerConfig(budget=6, seed=0)
    tcfg = TrainConfig(episodes=episodes, batch_size=4, capacity=32,
                       hidden=8, learning_rate=1e-2, **train_kw)
    return env, pcfg, tcfg


class TestTrainingLoop:
    def test_records_and_invariants(self):
        env, pcfg, tcfg = tiny_configs(4)
        run = training_loop(env, pcfg, tcfg, seed=101)
        assert isinstance(run, TrainingRun)
        assert [r.episode for r in run.records] == [0, 1, 2, 3]
        for r in run.records:
            assert 0.0 <= r.L <= r.G + 1e-12
            assert r.G <= 1.0 + 1e-12
            assert abs(r.L - r.G) <= 1e-12  # extraction realizes its promise
            assert r.budget <= pcfg.budget
            assert r.plan_length >= 2
            assert r.seed == 101
        assert len(run.buffer.value_entries) > 0

    def test_deterministic_across_runs(self):
        env, pcfg, tcfg = tiny_configs(4)
        a = training_loop(env, pcfg, tcfg, seed=55)
        b = training_loop(env, pcfg, tcfg, seed=55)
        assert a.records == b.records
        assert save_checkpoint(a.model, 4) == save_checkpoint(b.model, 4)
        assert save_replay(a.buffer) == save_replay(b.buffer)

    def test_seed_changes_run(self):
        env, pcfg, tcfg = tiny_configs(3)
        a = training_loop(env, pcfg, tcfg, seed=1)
        b = training_loop(env, pcfg, tcfg, seed=2)
        assert a.records != b.records

    def test_resume_matches_uninterrupted(self):
        env, pcfg, _ = tiny_configs(0)
        full_cfg = tiny_configs(6)[2]
        half_cfg = tiny_configs(3)[2]
        full = training_loop(env, pcfg, full_cfg, seed=77)

        half = training_loop(env, pcfg, half_cfg, seed=77)
        model, episode = load_checkpoint(save_checkpoint(half.model, episode=3))
        buffer = load_replay(save_replay(half.buffer))
        resumed = training_loop(env, pcfg, full_cfg, seed=77,
                                model=model, buffer=buffer, start_episode=episode)
        assert resumed.records == full.records[3:]
        assert save_checkpoint(resumed.model, 6) == save_checkpoint(full.model, 6)
        assert save_replay(resumed.buffer) == save_replay(full.buffer)

    def test_replay_below_batch_size_rejected(self):
        """A buffer that can never hold a batch would run every episode
        without a train_step; the loop refuses it up front."""
        env = EnvConfig(width=7, height=7, density=0.75)
        pcfg = PlannerConfig(budget=20)
        tcfg = TrainConfig(episodes=12, batch_size=16, capacity=64)
        with pytest.raises(ValueError, match="capacity 8 is below batch_size 16"):
            training_loop(env, pcfg, tcfg, seed=1, buffer=ReplayBuffer(8))
        run = training_loop(env, pcfg, tcfg, seed=1, buffer=ReplayBuffer(64))
        assert sum(r.prior_loss is not None for r in run.records) == 7

    def test_mc_value_targets_are_outcomes(self):
        env, pcfg, tcfg = tiny_configs(3, mc_value_targets=True)
        run = training_loop(env, pcfg, tcfg, seed=9)
        assert len(run.buffer.value_entries) == 3  # one root indicator per episode
        assert all(e.target in (0.0, 1.0) for e in run.buffer.value_entries)

    def test_weight_balanced_parser_runs(self):
        env, pcfg, tcfg = tiny_configs(2, parser="weight_balanced")
        run = training_loop(env, pcfg, tcfg, seed=3)
        assert len(run.records) == 2

    def test_on_episode_callback(self):
        env, pcfg, tcfg = tiny_configs(3)
        seen = []
        run = training_loop(env, pcfg, tcfg, seed=4,
                            on_episode=lambda e, rec, m, b: seen.append(e))
        assert seen == [0, 1, 2]

    def test_training_golden_checkpoint(self):
        """A short 7×7 run with six train_step calls reproduces a pinned
        checkpoint, so any change to the features, their row order or the
        gradient sums shows up here."""
        env = EnvConfig(width=7, height=7, density=0.75)
        pcfg = PlannerConfig(budget=20, c_puct=5.0)
        tcfg = TrainConfig(episodes=8, batch_size=4, capacity=64, hidden=8, learning_rate=1e-2)
        run = training_loop(env, pcfg, tcfg, seed=7)
        assert sum(r.prior_loss is not None for r in run.records) == 6
        digest = hashlib.sha256(save_checkpoint(run.model, 8).encode()).hexdigest()
        assert digest == GOLDEN_TRAINING_SHA256

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(parser="sideways")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
