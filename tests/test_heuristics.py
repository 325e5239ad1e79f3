"""Heuristics tests: features, the trainable model, replay buffer,
hindsight parsers, gradient correctness, persistence, and the training loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from subplan.gridworld import Maze, StateId, Task, encode_task, generate_maze, sample_task
from subplan.heuristics import (
    PARSER_KINDS,
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
    uniform_prior,
    value_features,
    value_targets_from_result,
    zero_value,
)
from subplan.planner import PlannerConfig, PlanningContext, run_search
from subplan.tree import OrKey, SearchTree, candidate_subgoals, expand_node, update_or_stats


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

    def prior(self, task, key, candidates):
        return np.full(len(candidates), 1.0 / len(candidates))


# ---------------------------------------------------------------------------
# features


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
        cands = candidate_subgoals(task)
        X = prior_features(maze.cells, task.start, task.goal, cands)
        assert X.shape == (len(cands), PRIOR_DIM)
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
        cands = candidate_subgoals(task)
        p = model.prior(task, OrKey(task.start, task.goal), cands)
        assert np.allclose(p, 1.0 / len(cands), atol=1e-15)

    def test_inference_temperature_sharpens_prior(self):
        model = TrainableModel(hidden=8, temperature=0.003, seed=0)
        rng = np.random.default_rng(7)
        model.params["prior_w2"] = rng.normal(0, 1.0, model.hidden)
        model.params["prior_b2"] = rng.normal(0, 1.0, 1)
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        cands = candidate_subgoals(task)
        z = model.prior_logits(maze.cells, task.start, task.goal, cands)
        zs = z - z.max()
        flat = np.exp(zs) / np.exp(zs).sum()  # temperature-1 softmax
        sharp = model.prior(task, OrKey(task.start, task.goal), cands)
        assert np.argmax(sharp) == np.argmax(flat)
        assert sharp.max() > flat.max()
        assert sharp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_untrained_heuristics_object(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        heur = UntrainedHeuristics()
        pairs = np.array([[0, 0, 0, 2]])
        assert np.all(heur.values(maze, pairs) == 0.0)
        cands = candidate_subgoals(task)
        assert np.allclose(heur.prior(task, OrKey(task.start, task.goal), cands), 0.25)
        assert zero_value(task, OrKey(task.start, task.goal)) == 0.0
        assert np.allclose(uniform_prior(task, OrKey(task.start, task.goal)), 0.25)

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
    ctx = PlanningContext(task, VhatStub(0.35), cfg)
    tree = SearchTree(root=OrKey(task.start, task.goal), budget_max=10, max_depth=8)
    tree.context = ctx
    for key in (tree.root, OrKey(cell(0, 0), cell(0, 1)), OrKey(cell(0, 1), cell(0, 2))):
        v0 = expand_node(tree, key, ctx.vpi_key(key), ctx.vhat_key(key), ctx.prior_key(key))
        ctx.on_expand(tree, key, v0)
    for g in (0.5, 0.7):
        v, _ = update_or_stats(tree, tree.root, g)
        ctx.on_update(tree.root, v)
    return tree, task


class TestTargets:
    def test_value_targets_mirror_solution_returns(self):
        maze = generate_maze(7, 7, 0.5, seed=4)
        task = sample_task(maze, seed=5)
        res = run_search(task, VhatStub(0.3), PlannerConfig(budget=25, seed=1))
        targets = value_targets_from_result(res)
        assert targets == list(res.returns)
        for key, g in targets:
            assert 0.0 <= g <= 1.0

    def test_prior_targets_follow_select_weights(self):
        tree, task = built_tree()
        target = prior_targets_from_tree(tree, tree.root)
        v_root = tree.or_nodes[tree.root].V
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
        ctx = PlanningContext(task, VhatStub(0.0), cfg, DeadPolicy())
        tree = SearchTree(root=OrKey(task.start, task.goal), budget_max=5, max_depth=8)
        tree.context = ctx
        v0 = expand_node(tree, tree.root, ctx.vpi_key(tree.root),
                         ctx.vhat_key(tree.root), ctx.prior_key(tree.root))
        ctx.on_expand(tree, tree.root, v0)
        assert prior_targets_from_tree(tree, tree.root) is None

    def test_prior_targets_error_paths(self):
        tree, task = built_tree()
        with pytest.raises(ValueError):
            prior_targets_from_tree(tree, OrKey(cell(0, 1), cell(0, 0)))  # unexpanded
        bare = SearchTree(root=tree.root, budget_max=1, max_depth=8)
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
    from subplan.heuristics import _empty_cells_of, _walls_from_encoding

    def head(prefix, X):
        A = np.tanh(X @ params[f"{prefix}_w1"] + params[f"{prefix}_b1"])
        return A @ params[f"{prefix}_w2"] + params[f"{prefix}_b2"][0]

    value_loss = 0.0
    for e in batch["value"]:
        walls = _walls_from_encoding(e.encoding)
        X = value_features(walls, np.array([[e.key.s.row, e.key.s.col,
                                             e.key.s2.row, e.key.s2.col]]))
        z = head("value", X)[0]
        p = 1.0 / (1.0 + math.exp(-z))
        value_loss += -(e.target * math.log(p) + (1.0 - e.target) * math.log(1.0 - p))
    value_loss /= len(batch["value"])

    prior_loss = 0.0
    for e in batch["prior"]:
        walls = _walls_from_encoding(e.encoding)
        cands = [None, *_empty_cells_of(walls)]
        X = prior_features(walls, e.s, e.s2, cands)
        z = head("prior", X)
        zs = z - z.max()
        logp = zs - math.log(np.exp(zs).sum())
        prior_loss += -float(e.target @ logp)
    prior_loss /= len(batch["prior"])
    return prior_loss, value_loss


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

    def test_mismatched_prior_target_rejected(self):
        maze = row_maze(3)
        model = TrainableModel(hidden=4, seed=0)
        enc = encode_task(Task(maze, cell(0, 0), cell(0, 2)))
        bad = PriorEntry(enc, cell(0, 0), None, cell(0, 2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="length"):
            train_step(model, {"prior": [bad]})


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
        """save_replay of a buffer filled without add_* validation."""
        maze = row_maze(3)
        buf = ReplayBuffer(capacity=capacity)
        buf.value_entries.extend(value_entry(maze, t) for t in values)
        buf.prior_entries.extend(prior_entry(maze, t) for t in priors)
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

    def test_data_before_meta_rejected(self):
        lines = self.snapshot(4, values=(0.5,)).splitlines()
        moved = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
        with pytest.raises(ValueError, match="before"):
            load_replay(moved)


# ---------------------------------------------------------------------------
# training loop


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(parser="sideways")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
