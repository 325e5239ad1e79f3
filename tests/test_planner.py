"""Planner tests: selection arithmetic, traversal semantics, extraction,
search invariants, baselines, and determinism."""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from subplan.gridworld import Maze, Pi0, StateId, Task, generate_maze, sample_task
from subplan.heuristics import (
    TrainableModel,
    UntrainedHeuristics,
    load_checkpoint,
    prior_targets_from_tree,
)
from subplan.oracle import ExactHeuristics, StochasticTestPolicy, exact_value_table
from subplan.planner import (
    IDLE_TRAVERSAL_LIMIT,
    MODES,
    PlannerConfig,
    PlanningContext,
    _argmax_with_ties,
    _reachable_key_cap,
    _TieBreaker,
    _traverse,
    descend_one,
    extract_plan,
    plan_objective,
    run_search,
    selection_scores,
)
from subplan.tree import (
    OrKey,
    SearchTree,
    dump_tree,
    expand_node,
    touch_and_node,
    update_or_stats,
)

import subplan.planner as planner_mod

BENCH_FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "bench" / "fixtures" / "trained_11x11_b100_seed0_ep150.ckpt"
)


def open_grid(width: int, height: int | None = None) -> Maze:
    h = height if height is not None else width
    return Maze(width, h, np.zeros((h, width), dtype=np.uint8), 0.0, -1)


def row_maze(n: int) -> Maze:
    return open_grid(n, 1)


def cell(r: int, c: int) -> StateId:
    return StateId(r, c)


class PairValues:
    """Low-level policy stub with a fixed pairwise value table."""

    def __init__(self, pairs: dict, default: float = 0.0):
        self.pairs = dict(pairs)
        self.default = default

    def value(self, maze: Maze, s: StateId, t: StateId) -> float:
        if s == t:
            return 1.0
        return float(self.pairs.get((s, t), self.default))

    def value_matrix(self, maze: Maze) -> np.ndarray:
        cells = maze.empty_cells
        n = len(cells)
        out = np.empty((n, n))
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                out[i, j] = self.value(maze, a, b)
        return out

    def step(self, rng, maze, s, subgoal):
        return subgoal


class StubHeuristics:
    """Constant value estimate; per-key, fixed, or uniform prior."""

    def __init__(self, vhat: float = 0.0, prior=None, prior_map=None):
        self.vhat = vhat
        self._prior = prior
        self._prior_map = prior_map

    def values(self, maze, pairs):
        return np.full(len(pairs), self.vhat)

    def prior(self, task, key, candidates):
        if self._prior_map is not None and key in self._prior_map:
            return np.asarray(self._prior_map[key], dtype=float)
        if self._prior is not None:
            return np.asarray(self._prior, dtype=float)
        return np.full(len(candidates), 1.0 / len(candidates))


def make_search(task, heuristics, config, low_level=None):
    """A fresh tree with its context attached, for handcrafted tests."""
    tree = SearchTree(root=OrKey(task.start, task.goal), budget_max=config.budget,
                      max_depth=config.max_depth, cells=task.maze.empty_cells)
    return tree, PlanningContext(tree, task, heuristics, config, low_level)


def expand(tree, ctx, key):
    """Expand key the way _traverse does: it keeps its bootstrap V."""
    expand_node(tree, *ctx.kidx(key))


def update(tree, ctx, key, g):
    return update_or_stats(tree, *ctx.kidx(key), g)


def touch(tree, ctx, key, mid):
    touch_and_node(tree, *ctx.kidx(key), 0 if mid is None else ctx.index[mid] + 1)


def keys(tree) -> list[OrKey]:
    """The expanded keys of a tree, in key order."""
    return [OrKey(tree.cells[f // tree.n], tree.cells[f % tree.n]) for f in sorted(tree.and_counts)]


def expanded_mask(tree) -> np.ndarray:
    """(n, n) bool: True where a key is expanded."""
    mask = np.zeros((tree.n, tree.n), dtype=bool)
    for f in tree.and_counts:
        mask[divmod(f, tree.n)] = True
    return mask


def stats(tree, key) -> tuple[float, int]:
    """(V, N) of an expanded key."""
    i, j = tree.context.kidx(key)
    assert i * tree.n + j in tree.and_counts
    return float(tree.V[i, j]), int(tree.N[i, j])


def vpi(ctx, key) -> float:
    return float(ctx.v_pi[ctx.kidx(key)])


def scores(tree, key, c_puct):
    return selection_scores(tree, *tree.context.kidx(key), c_puct)


def select(tree, key, c_puct, rng):
    """The sub-goal Select picks at key, ties broken with rng."""
    pick = _argmax_with_ties(scores(tree, key, c_puct), lambda _, n: int(rng.integers(n)), 0)
    return tree.context.candidates[pick]


# ---------------------------------------------------------------------------
# plan_objective


class TestPlanObjective:
    def test_adjacent_chain_is_one(self):
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        sigma = [cell(0, 0), cell(0, 1), cell(0, 2), cell(0, 3)]
        assert plan_objective(task, sigma) == 1.0

    def test_non_adjacent_pair_zeroes_product(self):
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        assert plan_objective(task, [cell(0, 0), cell(0, 2), cell(0, 3)]) == 0.0

    def test_stochastic_pairwise_product(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        pol = PairValues({
            (cell(0, 0), cell(0, 1)): 0.5,
            (cell(0, 1), cell(0, 2)): 0.8,
        })
        sigma = [cell(0, 0), cell(0, 1), cell(0, 2)]
        assert plan_objective(task, sigma, pol) == pytest.approx(0.4, abs=1e-15)

    def test_malformed_plans_rejected(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        with pytest.raises(ValueError):
            plan_objective(task, [cell(0, 0)])
        with pytest.raises(ValueError):
            plan_objective(task, [cell(0, 1), cell(0, 2)])
        with pytest.raises(ValueError):
            plan_objective(task, [cell(0, 0), cell(0, 1)])


# ---------------------------------------------------------------------------
# selection


class TestSelect:
    def build_updated_root(self):
        # 1x3 row; root ((0,0),(0,2)) expanded with both split children, two
        # updates, and AND visits on ∅ and the middle cell.
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        prior = [0.1, 0.2, 0.4, 0.3]  # ∅, (0,0), (0,1), (0,2)
        cfg = PlannerConfig(budget=10, c_puct=5.0)
        tree, ctx = make_search(task, StubHeuristics(vhat=0.35, prior=prior), cfg)
        root = tree.root
        expand(tree, ctx, root)
        expand(tree, ctx, OrKey(cell(0, 0), cell(0, 1)))
        expand(tree, ctx, OrKey(cell(0, 1), cell(0, 2)))
        update(tree, ctx, root, 0.5)
        update(tree, ctx, root, 0.7)
        touch(tree, ctx, root, None)
        touch(tree, ctx, root, cell(0, 1))
        return tree, ctx, root

    def test_hand_computed_score_table(self):
        tree, ctx, root = self.build_updated_root()
        # exploitation by hand: ∅ -> v_pi(root)=0; mids use expanded V where
        # present (root itself V=0.6 after updates 0.5, 0.7) and the
        # bootstrap max(v_pi, 0.35) elsewhere.
        exploit = np.array([
            0.0,
            max(1.0, 0.35) * 0.6,   # (0,0): left (s,s) bootstrap, right = root
            1.0 * 1.0,              # (0,1): both children expanded with V=1
            0.6 * max(1.0, 0.35),   # (0,2): left = root, right (g,g) bootstrap
        ])
        explore = 5.0 * np.array([0.1, 0.2, 0.4, 0.3]) * (
            math.sqrt(2.0) / (1.0 + np.array([1, 0, 1, 0]))
        )
        expected = exploit + explore
        got = scores(tree, root, 5.0)
        assert np.max(np.abs(got - expected)) <= 1e-12

        pick = select(tree, root, 5.0, np.random.default_rng(0))
        assert pick == cell(0, 2)  # argmax of the hand table

    def test_c_zero_reduces_to_exploitation(self):
        tree, ctx, root = self.build_updated_root()
        got = scores(tree, root, 0.0)
        assert np.allclose(got, [0.0, 0.6, 1.0, 0.6], atol=1e-12)
        pick = select(tree, root, 0.0, np.random.default_rng(0))
        assert pick == cell(0, 1)

    def test_unvisited_node_scores_exploitation_only(self):
        # N(s,s'')=0: sqrt(0)=0 kills exploration even with c_puct > 0
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        cfg = PlannerConfig(budget=10, c_puct=5.0)
        tree, ctx = make_search(task, StubHeuristics(vhat=0.35), cfg)
        expand(tree, ctx, tree.root)
        got = scores(tree, tree.root, 5.0)
        exploit = scores(tree, tree.root, 0.0)
        assert np.array_equal(got, exploit)

    def test_prior_breaks_equal_products(self):
        # two non-degenerate candidates with equal V-products: the one with
        # prior weight 0.9 wins once exploration is active
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        prior = [0.0, 0.0, 0.9, 0.1, 0.0]  # ∅, (0,0), (0,1), (0,2), (0,3)
        cfg = PlannerConfig(budget=10, c_puct=5.0)
        tree, ctx = make_search(task, StubHeuristics(vhat=0.5, prior=prior), cfg)
        root = tree.root
        expand(tree, ctx, root)
        update(tree, ctx, root, 0.5)
        update(tree, ctx, root, 0.5)
        update(tree, ctx, root, 0.5)
        update(tree, ctx, root, 0.5)
        assert stats(tree, root)[1] == 4
        got = scores(tree, root, 5.0)
        # (0,1) and (0,2) tie on exploitation (bootstrap products), differ on prior
        assert got[2] > got[3]
        pick = select(tree, root, 5.0, np.random.default_rng(0))
        assert pick == cell(0, 1)

    def test_equal_scores_pick_least_visited(self):
        # flat values + uniform prior: selection degenerates to least-visited
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        cfg = PlannerConfig(budget=10, c_puct=5.0)
        tree, ctx = make_search(task, StubHeuristics(vhat=0.5), cfg)
        root = tree.root
        expand(tree, ctx, root)
        for g in (0.5, 0.5, 0.5):
            update(tree, ctx, root, g)
        # visit three of the five candidates
        touch(tree, ctx, root, None)
        touch(tree, ctx, root, cell(0, 0))
        touch(tree, ctx, root, cell(0, 1))
        got = scores(tree, root, 5.0)
        mids = got[1:]
        # ∅ exploits v_pi=0, so the unvisited mids (0,2), (0,3) are the argmax set
        assert np.argmax(got) in (3, 4)
        assert mids[2] == mids[3] > mids[0] == mids[1]
        picks = {select(tree, root, 5.0, np.random.default_rng(s)) for s in range(20)}
        assert picks == {cell(0, 2), cell(0, 3)}


# ---------------------------------------------------------------------------
# traverse


def graded_row_setup(values, n, heur_prior=None, heur_prior_map=None, **cfg_kw):
    maze = row_maze(n)
    task = Task(maze, cell(0, 0), cell(0, n - 1))
    pol = PairValues(values)
    heur = StubHeuristics(vhat=0.0, prior=heur_prior, prior_map=heur_prior_map)
    cfg = PlannerConfig(**{"budget": 50, "seed": 0, **cfg_kw})
    tree, ctx = make_search(task, heur, cfg, pol)
    return tree, ctx, task


class TestTraverse:
    def test_first_traversal_expands_root_and_bootstraps(self):
        tree, ctx, task = graded_row_setup({}, 3)
        tie = _TieBreaker(0).next_traversal()
        g = _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, tie)
        assert g == 0.0  # max(v_pi=0, vhat=0)
        assert tree.budget_used == 1
        assert stats(tree, tree.root)[1] == 0  # bootstrap pass: no update

    def test_adjacent_root_floor_keeps_value_one(self):
        # pi0 solves an adjacent root (v_pi = 1), so the root is terminal: it
        # returns 1.0 and is never expanded, visited or charged budget
        maze = row_maze(2)
        task = Task(maze, cell(0, 0), cell(0, 1))
        tree, ctx = make_search(task, StubHeuristics(), PlannerConfig(budget=5))
        breaker = _TieBreaker(0)
        for _ in range(3):
            g = _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
            assert g == 1.0
        assert tree.budget_used == 0
        assert not tree.and_counts
        assert tree.V[ctx.kidx(tree.root)] == 1.0
        assert tree.N[ctx.kidx(tree.root)] == 0

    def test_product_of_child_returns(self):
        # G_left=0.9, G_right=0.8, v_pi=0 -> G = 0.72
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.9, (b, c): 0.8}
        prior = [0.0, 0.0, 1.0, 0.0]  # force mid (0,1)
        tree, ctx, task = graded_row_setup(values, 3, heur_prior=prior)
        breaker = _TieBreaker(0)
        _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
        g = _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
        assert g == pytest.approx(0.72, abs=1e-15)
        V, N = stats(tree, tree.root)
        assert V == pytest.approx(0.72, abs=1e-15)
        assert N == 1

    def test_depth_cap_returns_v_pi(self):
        # 1x5 row where (a,c) decomposes through b for 0.81 but is worth 0.3
        # directly; with max_depth=1 the sub-node must be scored v_pi.
        a, b, c, d, e = (cell(0, k) for k in range(5))
        values = {(a, b): 0.9, (b, c): 0.9, (a, c): 0.3, (c, e): 0.5}
        prior_map = {
            OrKey(a, e): [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # root splits at c
            OrKey(a, c): [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # (a,c) splits at b
        }
        capped, ctx1, _ = graded_row_setup(values, 5, heur_prior_map=prior_map,
                                           max_depth=1)
        deep, ctx2, _ = graded_row_setup(values, 5, heur_prior_map=prior_map,
                                         max_depth=4)
        for tree, ctx in ((capped, ctx1), (deep, ctx2)):
            breaker = _TieBreaker(0)
            for _ in range(6):
                _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
        sub = OrKey(a, c)
        assert stats(capped, sub)[0] == pytest.approx(0.3, abs=1e-12)
        assert stats(deep, sub)[0] == pytest.approx(0.81, abs=1e-12)
        # the depth-capped node still got selected and counted
        assert stats(capped, sub)[1] > 0

    def test_budget_exhaustion_completes_with_bootstrap(self):
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.9, (b, c): 0.8}
        prior = [0.0, 0.0, 1.0, 0.0]
        tree, ctx, task = graded_row_setup(values, 3, heur_prior=prior, budget=2)
        breaker = _TieBreaker(0)
        _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
        g = _traverse(ctx, tree, *ctx.kidx(tree.root), 0, 1, breaker.next_traversal())
        # left child took the last budget unit; right was evaluated as
        # bootstrap max(v_pi=0.8, vhat=0) without being expanded
        assert tree.budget_used == 2
        assert OrKey(a, b) in keys(tree)
        assert OrKey(b, c) not in keys(tree)
        assert g == pytest.approx(0.72, abs=1e-15)
        assert stats(tree, tree.root)[1] == 1  # the update still happened


# ---------------------------------------------------------------------------
# priors


class CountingHeuristics(StubHeuristics):
    """StubHeuristics that records the key of every prior call."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.prior_calls = []

    def prior(self, task, key, candidates):
        self.prior_calls.append(key)
        return super().prior(task, key, candidates)


class TestLazyPrior:
    def test_budget_one_computes_no_prior(self):
        maze = generate_maze(9, 9, 0.6, seed=1)
        heur = CountingHeuristics(vhat=0.3)
        res = run_search(sample_task(maze, 1), heur, PlannerConfig(budget=1))
        assert res.budget_used == 1
        assert heur.prior_calls == []

    @pytest.mark.parametrize("mode", MODES)
    def test_prior_once_per_key_selected_after_a_visit(self, mode):
        # Select reads a key's prior only at N >= 1, and that visit makes
        # N >= 2; a key expanded and never revisited needs no prior
        maze = generate_maze(9, 9, 0.6, seed=3)
        heur = CountingHeuristics(vhat=0.3)
        res = run_search(sample_task(maze, 3), heur, PlannerConfig(budget=60, mode=mode, seed=3))
        assert heur.prior_calls
        assert len(set(heur.prior_calls)) == len(heur.prior_calls)
        for key in heur.prior_calls:
            assert stats(res.tree, key)[1] >= 2

    def test_no_prior_without_exploration(self):
        maze = generate_maze(9, 9, 0.6, seed=3)
        heur = CountingHeuristics(vhat=0.3)
        run_search(sample_task(maze, 3), heur, PlannerConfig(budget=60, c_puct=0.0))
        assert heur.prior_calls == []


# ---------------------------------------------------------------------------
# bookkeeping properties


class TestBookkeeping:
    def run_random_search(self, seed):
        maze = generate_maze(7, 7, 0.5, seed=seed)
        task = sample_task(maze, seed=seed + 100)
        return run_search(task, StubHeuristics(vhat=0.3), PlannerConfig(budget=40, seed=seed))

    def test_and_visits_match_or_updates(self):
        for seed in range(8):
            tree = self.run_random_search(seed).tree
            for key in keys(tree):
                i, j = tree.context.kidx(key)
                assert tree.and_counts[i * tree.n + j].sum() == stats(tree, key)[1]
            assert not tree.N[~expanded_mask(tree)].any()  # unexpanded keys have no visits

    def test_budget_counts_expansions_exactly(self):
        for seed in range(8):
            res = self.run_random_search(seed)
            assert res.budget_used == len(res.tree.and_counts)
            assert res.budget_used == np.count_nonzero(expanded_mask(res.tree))
            assert res.budget_used <= 40

    def test_threshold_floor_after_search(self):
        for seed in range(8):
            res = self.run_random_search(seed)
            ctx = res.tree.context
            for key in keys(res.tree):
                assert stats(res.tree, key)[0] >= vpi(ctx, key) - 1e-12

    def test_running_average_is_exact_mean(self, monkeypatch):
        recorded: dict[tuple[int, int], list[float]] = {}
        orig = planner_mod.update_or_stats

        def recording(tree, i, j, g):
            recorded.setdefault((i, j), []).append(g)
            return orig(tree, i, j, g)

        monkeypatch.setattr(planner_mod, "update_or_stats", recording)
        res = self.run_random_search(3)
        assert recorded
        for (i, j), gs in recorded.items():
            assert res.tree.N[i, j] == len(gs)
            assert res.tree.V[i, j] == pytest.approx(float(np.mean(gs)), abs=1e-12)


# ---------------------------------------------------------------------------
# solved sub-tasks are terminal


def reachable_open_keys(ctx, root, max_depth) -> int:
    """Keys with v_pi < 1 that a chain of splits from root reaches within
    max_depth levels, by breadth-first search over keys: an unsolved key
    splits at every cell x into (i, x) and (x, j), or into (x, j) alone in
    sequential mode."""
    seq = ctx.config.mode == "sequential_right"
    seen = {root}
    frontier = [root]
    for _ in range(max_depth):
        grown = []
        for i, j in frontier:
            if ctx.v_pi[i, j] == 1.0:
                continue
            for x in range(ctx.n):
                for child in ((x, j),) if seq else ((i, x), (x, j)):
                    if child not in seen:
                        seen.add(child)
                        grown.append(child)
        frontier = grown
    return sum(bool(ctx.v_pi[k] < 1.0) for k in seen)


class TestSolvedKeysAreTerminal:
    @given(
        size=st.tuples(st.integers(5, 9), st.integers(5, 9)),
        density=st.floats(0.0, 1.0),
        maze_seed=st.integers(0, 10_000),
        mode=st.sampled_from(MODES),
        budget=st.integers(1, 120),
        max_depth=st.integers(1, 8),
        model_seed=st.none() | st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_searches_never_touch_solved_keys(
        self, size, density, maze_seed, mode, budget, max_depth, model_seed
    ):
        maze = generate_maze(size[0], size[1], density, maze_seed)
        task = sample_task(maze, maze_seed)
        heur = UntrainedHeuristics() if model_seed is None else seeded_model(model_seed)
        cfg = PlannerConfig(budget=budget, max_depth=max_depth, mode=mode, seed=maze_seed)
        res = run_search(task, heur, cfg)
        tree, ctx = res.tree, res.tree.context
        solved = ctx.v_pi == 1.0
        assert not (expanded_mask(tree) & solved).any()
        assert not tree.N[solved].any()
        assert res.budget_used == len(tree.and_counts)
        cap = _reachable_key_cap(ctx.v_pi, *ctx.kidx(tree.root), max_depth, mode)
        assert cap == reachable_open_keys(ctx, ctx.kidx(tree.root), max_depth)
        assert res.budget_used <= cap
        assert res.tree_stats["stop"] == (
            "budget" if res.budget_used == budget else "key_cap" if res.budget_used == cap
            else "idle"
        )

    @pytest.mark.parametrize("goal", [cell(1, 1), cell(1, 2), cell(2, 1)])
    @pytest.mark.parametrize("mode", MODES)
    def test_solved_root_runs_no_traversal(self, goal, mode):
        task = Task(open_grid(4), cell(1, 1), goal)
        res = run_search(task, StubHeuristics(vhat=0.5), PlannerConfig(budget=50, mode=mode))
        assert res.plan.sigma == (task.start, task.goal)
        assert res.plan.objective_L == 1.0
        assert res.budget_used == 0
        assert res.tree_stats["traversals"] == 0
        assert res.tree_stats["stop"] == "key_cap"
        assert res.solution_tree.root.terminal

    @pytest.mark.parametrize("size, mode", [(3, "divide_and_conquer"), (6, "sequential_right")])
    def test_open_grid_stops_on_key_cap(self, size, mode):
        # every unsolved key gets expanded well before an idle streak
        task = Task(open_grid(size), cell(0, 0), cell(size - 1, size - 1))
        res = run_search(task, StubHeuristics(), PlannerConfig(budget=10_000, mode=mode))
        ctx = res.tree.context
        assert res.tree_stats["stop"] == "key_cap"
        assert res.tree_stats["traversals"] < IDLE_TRAVERSAL_LIMIT
        assert res.budget_used == reachable_open_keys(ctx, ctx.kidx(res.tree.root), 8)

    def test_idle_stop_when_select_keeps_a_solved_split(self):
        # in a 1×4 row a, b, c, d the root (a, c) splits at b into two solved
        # keys worth 1; without exploration Select picks b on every later
        # traversal, which never expands anything
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        task = Task(row_maze(4), a, c)
        res = run_search(task, StubHeuristics(), PlannerConfig(budget=50, c_puct=0.0))
        assert res.tree_stats["stop"] == "idle"
        assert res.tree_stats["traversals"] == 1 + IDLE_TRAVERSAL_LIMIT
        assert res.budget_used == 1
        assert res.plan.sigma == (a, b, c)

    def test_budget_stop(self):
        maze = generate_maze(9, 9, 0.5, seed=3)
        res = run_search(sample_task(maze, 3), StubHeuristics(vhat=0.3), PlannerConfig(budget=20))
        assert res.tree_stats["stop"] == "budget"
        assert res.budget_used == 20


# ---------------------------------------------------------------------------
# the tie stream


class TestTieStream:
    KEYS = (1, 2, 3, 1 << 40, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 70) + 3, 1 << 130)

    def test_a_draw_is_a_pure_function_of_its_position(self):
        positions = [(t, k) for t in range(4) for k in self.KEYS]
        forward = _TieBreaker(7)
        fns = [forward.next_traversal() for _ in range(4)]
        want = [fns[t](k, 1 << 62) for t, k in positions]
        backward = _TieBreaker(7)
        fns = [backward.next_traversal() for _ in range(4)]
        assert [fns[t](k, 1 << 62) for t, k in reversed(positions)] == want[::-1]

    def test_seed_traversal_and_path_key_each_change_the_draw(self):
        # over 2^62 options, distinct positions give distinct draws; that
        # includes path keys that agree in their low 64 bits
        draws = set()
        for seed in (0, 1, 1 << 64):
            breaker = _TieBreaker(seed)
            for _ in range(20):
                fn = breaker.next_traversal()
                draws.update(fn(k, 1 << 62) for k in self.KEYS)
        assert len(draws) == 3 * 20 * len(self.KEYS)

    def test_single_option_is_zero(self):
        breaker = _TieBreaker(3)
        for _ in range(5):
            fn = breaker.next_traversal()
            assert all(fn(k, 1) == 0 for k in self.KEYS)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _TieBreaker(-1)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_draws_are_uniform(self, n):
        breaker = _TieBreaker(11)
        counts = np.zeros(n)
        for _ in range(500):
            fn = breaker.next_traversal()
            for k in range(1, 21):
                counts[fn(k, n)] += 1
        assert scipy_stats.chisquare(counts).pvalue > 1e-3

    def test_sibling_draws_are_independent(self):
        # (left child, right child) draws over 4 options fill the 16 cells
        # of their joint table evenly
        breaker = _TieBreaker(5)
        table = np.zeros((4, 4))
        for _ in range(400):
            fn = breaker.next_traversal()
            for k in range(1, 9):
                table[fn(2 * k, 4), fn(2 * k + 1, 4)] += 1
        assert scipy_stats.chisquare(table.ravel()).pvalue > 1e-3


# ---------------------------------------------------------------------------
# one value array: V holds every key's estimate


def pairs_loop_form(ctx) -> np.ndarray:
    """Every (r1, c1, r2, c2) pair of the context's cells, row-major."""
    return np.array(
        [(a.row, a.col, b.row, b.col) for a in ctx.cells for b in ctx.cells], dtype=np.int64
    )


def fresh_bootstrap(ctx) -> np.ndarray:
    """max(v_pi, v_hat) over all pairs, v_hat from one fresh call on every
    pair in row-major order."""
    vhat = np.asarray(ctx.heuristics.values(ctx.maze, pairs_loop_form(ctx)), dtype=float)
    return np.maximum(ctx.v_pi, vhat.reshape(ctx.n, ctx.n))


def scores_form(tree, key, c_puct):
    """selection_scores as fresh arrays rebuilt from V, v_pi and the prior."""
    ctx = tree.context
    i, j = ctx.kidx(key)
    left = ctx.v_pi[i] if ctx.config.mode == "sequential_right" else tree.V[i]
    exploit = np.concatenate([[ctx.v_pi[i, j]], left * tree.V[:, j]])
    N = int(tree.N[i, j])
    if c_puct > 0 and N > 0:
        counts = tree.and_counts[i * ctx.n + j]
        return exploit + c_puct * ctx.prior(i, j) * (math.sqrt(N) / (1.0 + counts))
    return exploit


class TableHeuristics(StubHeuristics):
    """v_hat read from an (n, n) table over the maze's cell indices; records
    the pairs of every values call."""

    def __init__(self, table):
        super().__init__()
        self.table = np.asarray(table, dtype=float)
        self.value_calls = []

    def values(self, maze, pairs):
        self.value_calls.append(pairs)
        idx = maze.empty_index
        return np.array([self.table[idx[cell(a, b)], idx[cell(c, d)]] for a, b, c, d in pairs])


class TestBootstrapValues:
    def test_v_is_the_bootstrap_with_v_hat_above_and_below_v_pi(self):
        # 1x3 row; v_pi is 1 on the diagonal, 0.5 between neighbours and 0.2
        # end to end; v_hat is 0.7 everywhere but 0.1 on (0,0) -> (0,1)
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        pol = PairValues({(a, b): 0.5, (b, a): 0.5, (b, c): 0.5, (c, b): 0.5,
                          (a, c): 0.2, (c, a): 0.2})
        table = np.full((3, 3), 0.7)
        table[0, 1] = 0.1
        task = Task(row_maze(3), a, c)
        tree, ctx = make_search(task, TableHeuristics(table), PlannerConfig(budget=5), pol)
        want = np.array([[1.0, 0.5, 0.7],
                         [0.7, 1.0, 0.7],
                         [0.7, 0.7, 1.0]])
        assert tree.V.tobytes() == want.tobytes()
        assert not tree.N.any() and not tree.and_counts and tree.budget_used == 0

    def test_expansion_keeps_the_bootstrap(self):
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        pol = PairValues({(a, c): 0.2})
        task = Task(row_maze(3), a, c)
        for vhat, v0 in ((0.7, 0.7), (0.1, 0.2)):  # v_hat above, then below v_pi
            tree, ctx = make_search(task, StubHeuristics(vhat=vhat), PlannerConfig(budget=5), pol)
            expand(tree, ctx, tree.root)
            assert stats(tree, tree.root) == (v0, 0)
            assert tree.budget_used == 1
            # the traversal's expansion returns the bootstrap as well
            g = _traverse(ctx, tree, *ctx.kidx(OrKey(b, a)), 0, 1, _TieBreaker(0).next_traversal())
            assert g == vhat and stats(tree, OrKey(b, a)) == (vhat, 0)
            assert tree.budget_used == 2

    def test_context_needs_a_fresh_tree(self):
        task = Task(row_maze(3), cell(0, 0), cell(0, 2))
        tree, ctx = make_search(task, StubHeuristics(), PlannerConfig(budget=5))
        expand(tree, ctx, tree.root)
        with pytest.raises(ValueError):
            PlanningContext(tree, task, StubHeuristics(), PlannerConfig(budget=5))

    @pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "blocks-of-7"])
    @pytest.mark.parametrize("shape", [(7, 5), (9, 9)], ids=["7x5", "9x9"])
    def test_v_hat_blocks_cover_every_pair_once_in_row_major_order(
        self, shape, block, monkeypatch
    ):
        # 35 cells fit one block of 4,096 pairs; 81 cells (6,561 pairs) take two
        if block is not None:
            monkeypatch.setattr(planner_mod, "VHAT_BLOCK_PAIRS", block)
        size = planner_mod.VHAT_BLOCK_PAIRS
        maze = open_grid(*shape)
        n = len(maze.empty_cells)
        table = np.random.default_rng(n).random((n, n))
        heur = TableHeuristics(table)
        tree, ctx = make_search(sample_task(maze, 1), heur, PlannerConfig(budget=5))
        n2 = n * n
        whole, rest = divmod(n2, size)
        assert [len(p) for p in heur.value_calls] == [size] * whole + [rest] * (rest > 0)
        assert all(p.dtype == np.int64 for p in heur.value_calls)
        assert np.concatenate(heur.value_calls).tobytes() == pairs_loop_form(ctx).tobytes()
        assert tree.V.tobytes() == np.maximum(ctx.v_pi, table).tobytes()


class TestSelectMatrix:
    @given(
        size=st.tuples(st.integers(5, 7), st.integers(5, 7)),
        density=st.floats(0.0, 1.0),
        maze_seed=st.integers(0, 10_000),
        mode=st.sampled_from(("divide_and_conquer", "sequential_right")),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_rebuilt_form(self, size, density, maze_seed, mode, data):
        maze = generate_maze(size[0], size[1], density, maze_seed)
        task = sample_task(maze, maze_seed)
        cfg = PlannerConfig(budget=10_000, mode=mode)
        tree, ctx = make_search(task, seeded_model(maze_seed % 97), cfg)
        bootstrap = fresh_bootstrap(ctx)
        n = ctx.n
        cell_index = st.integers(0, n - 1)
        op = st.sampled_from(("expand", "update", "touch"))
        for _ in range(data.draw(st.integers(1, 25))):
            kind = data.draw(op)
            key = OrKey(ctx.cells[data.draw(cell_index)], ctx.cells[data.draw(cell_index)])
            if kind in ("update", "touch") and tree.and_counts:
                key = data.draw(st.sampled_from(keys(tree)))
            if kind == "expand" and key not in keys(tree):
                expand(tree, ctx, key)
            elif kind == "update" and key in keys(tree):
                update(tree, ctx, key, data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
            elif kind == "touch" and key in keys(tree):
                touch(tree, ctx, key, data.draw(st.sampled_from(ctx.candidates)))

            unexpanded = ~expanded_mask(tree)
            assert tree.V[unexpanded].tobytes() == bootstrap[unexpanded].tobytes()
            for k in keys(tree):
                for c in (0.0, 5.0, 2.5):  # 5.0 is the context's own c_puct
                    assert scores(tree, k, c).tobytes() == scores_form(tree, k, c).tobytes()

    def test_scores_do_not_depend_on_read_order(self):
        # On this board the bench model's v_hat(56, 18) from a batch of row
        # 56 and from a batch of column 18 are 1.1e-16 apart, so a planner
        # that reads v_hat through the batch of its first read scores
        # (56, 18) differently after (0, 18) than before it.
        maze = generate_maze(11, 11, 0.75, 0)
        model, _ = load_checkpoint(BENCH_FIXTURE.read_text())
        task = sample_task(maze, 0)
        runs = []
        for order in ((56, 0), (0, 56)):
            tree, ctx = make_search(task, model, PlannerConfig(budget=5))
            runs.append({i: selection_scores(tree, i, 18, 5.0).tobytes() for i in order})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("mode", ["divide_and_conquer", "sequential_right"])
    def test_reads_leave_arrays_unchanged(self, mode):
        maze = generate_maze(7, 7, 0.75, 4)
        res = run_search(sample_task(maze, 4), seeded_model(4), PlannerConfig(budget=40, mode=mode))
        tree, ctx = res.tree, res.tree.context

        def read_all():
            out = []
            for k in keys(tree):
                out.append(scores(tree, k, 5.0))
                out.append(prior_targets_from_tree(tree, k))
            return [a for a in out if a is not None]

        def snapshot():
            return [a.tobytes() for a in (tree.V, tree.N, ctx.v_pi)]

        first = read_all()
        before = snapshot()
        second = read_all()
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]
        assert snapshot() == before
        for a in second:  # callers own what they get back
            a[:] = -1.0
        assert snapshot() == before


# ---------------------------------------------------------------------------
# extraction


class TestExtraction:
    def test_budget_one_returns_direct_plan(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        res = run_search(task, StubHeuristics(vhat=0.9), PlannerConfig(budget=1, seed=0))
        assert res.plan.sigma == (task.start, task.goal)
        assert res.plan.objective_L == 0.0
        assert res.plan.infeasible
        assert res.solution_tree.root.terminal

    def test_feasible_plan_not_flagged_infeasible(self):
        maze = open_grid(4)
        task = Task(maze, cell(0, 0), cell(3, 3))
        res = run_search(task, StubHeuristics(vhat=0.9), PlannerConfig(budget=80, seed=0))
        assert res.plan.objective_L > 0.0
        assert not res.plan.infeasible

    def test_first_maximal_tie_break(self):
        # realizable products 0.3 / 0.5 / 0.5 over mids b, c, d: the first
        # 0.5 in row-major order (c) must be chosen
        a, b, c, d, e = (cell(0, k) for k in range(5))
        values = {(a, b): 0.5, (b, e): 0.6, (a, c): 0.5, (c, e): 1.0,
                  (a, d): 1.0, (d, e): 0.5}
        tree, ctx, task = graded_row_setup(values, 5)
        expand(tree, ctx, tree.root)
        for key in [(a, b), (b, e), (a, c), (c, e), (a, d), (d, e)]:
            expand(tree, ctx, OrKey(*key))
        sigma, g = extract_plan(tree, tree.root)
        assert sigma == (a, c, e)
        assert g == pytest.approx(0.5, abs=1e-15)

    def test_null_wins_ties(self):
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.5, (b, c): 1.0, (a, c): 0.5}
        tree, ctx, task = graded_row_setup(values, 3)
        expand(tree, ctx, tree.root)
        expand(tree, ctx, OrKey(a, b))
        expand(tree, ctx, OrKey(b, c))
        sigma, g = extract_plan(tree, tree.root)
        assert sigma == (a, c)  # split ties ∅ at 0.5, ∅ wins
        assert g == pytest.approx(0.5, abs=1e-15)

    def test_one_sided_mid_realizes_other_side_as_segment(self):
        # only (a,b) is in the tree; extraction may still split at b,
        # realizing (b,c) as a direct v_pi segment
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.9, (b, c): 0.8}
        tree, ctx, task = graded_row_setup(values, 3)
        expand(tree, ctx, tree.root)
        expand(tree, ctx, OrKey(a, b))
        sigma, g = extract_plan(tree, tree.root)
        assert sigma == (a, b, c)
        assert g == pytest.approx(0.72, abs=1e-15)

    def test_unreal_branch_cannot_lure_extraction(self):
        # (a,c) carries a huge bootstrap V but decomposing through c is
        # worthless on the ground; extraction must ignore the promise
        a, b, c, d = (cell(0, k) for k in range(4))
        values = {(a, b): 0.9, (b, d): 0.8}
        maze = row_maze(4)
        task = Task(maze, a, d)
        pol = PairValues(values)
        heur = StubHeuristics(vhat=0.99)  # optimistic everywhere
        cfg = PlannerConfig(budget=50, seed=0)
        tree, ctx = make_search(task, heur, cfg, pol)
        expand(tree, ctx, tree.root)
        expand(tree, ctx, OrKey(a, c))   # V = 0.99 bootstrap, v_pi = 0
        expand(tree, ctx, OrKey(c, d))   # V = 0.99 bootstrap, v_pi = 0
        expand(tree, ctx, OrKey(a, b))
        expand(tree, ctx, OrKey(b, d))
        sigma, g = extract_plan(tree, tree.root)
        assert sigma == (a, b, d)
        assert g == pytest.approx(0.72, abs=1e-15)

    def test_depth_cap_limits_decomposition(self):
        # chain of 4 adjacent hops; max_depth=1 allows a single split, so
        # the best realizable plan has at most 2 segments
        a, b, c, d, e = (cell(0, k) for k in range(5))
        values = {(a, b): 0.9, (b, c): 0.9, (c, d): 0.9, (d, e): 0.9,
                  (a, c): 0.4, (c, e): 0.4, (a, d): 0.1, (b, e): 0.1,
                  (a, e): 0.05}
        tree, ctx, task = graded_row_setup(values, 5, max_depth=1)
        expand(tree, ctx, tree.root)
        for i in range(5):
            for j in range(5):
                if i != j and (i, j) != (0, 4):
                    expand(tree, ctx, OrKey(cell(0, i), cell(0, j)))
        sigma, g = extract_plan(tree, tree.root)
        assert len(sigma) == 3  # one split only
        assert g == pytest.approx(0.4 * 0.4, abs=1e-15)

    def test_extract_plan_requires_context(self):
        tree = SearchTree(root=OrKey(cell(0, 0), cell(0, 2)), budget_max=5, max_depth=8,
                          cells=row_maze(3).empty_cells)
        with pytest.raises(ValueError):
            extract_plan(tree, tree.root)


# ---------------------------------------------------------------------------
# extraction against its loop form


def reference_extract(ctx, tree, key, d):
    """Extraction as a loop over keys x candidates x levels: per-key dicts of
    level values, candidates in row-major order, strict > against v_pi.  A
    candidate mid has a child that is in the tree or that pi0 solves
    (v_pi = 1).  Returns the solution node and the level dicts."""
    seq = ctx.config.mode == "sequential_right"
    in_tree = keys(tree)
    solved = [OrKey(a, b) for a in ctx.cells for b in ctx.cells if vpi(ctx, OrKey(a, b)) == 1.0]
    left_anchor, right_anchor = {}, {}
    for k in in_tree + solved:  # a mid needs a child that is searched or solved
        left_anchor.setdefault(k.s, set()).add(k.s2)
        right_anchor.setdefault(k.s2, set()).add(k.s)
    cands = {}
    for k in in_tree:
        pool = set(right_anchor.get(k.s2, ()))
        if not seq:
            pool |= left_anchor.get(k.s, set())
        cands[k] = sorted(x for x in pool if x != k.s and x != k.s2)

    def vpi_of(k):
        return vpi(ctx, k)

    def child(level, k):
        return level[k] if k in level else vpi_of(k)

    def split(level, k, x):
        left = vpi_of(OrKey(k.s, x)) if seq else child(level, OrKey(k.s, x))
        return left * child(level, OrKey(x, k.s2))

    def best(level, k):
        value, mid = vpi_of(k), None
        for x in cands[k]:
            score = split(level, k, x)
            if score > value:
                value, mid = score, x
        return value, mid

    levels = [{k: vpi_of(k) for k in in_tree}]
    for _ in range(tree.max_depth):
        levels.append({k: best(levels[-1], k)[0] for k in in_tree})

    def node(k, d):
        mid = best(levels[d - 1], k)[1] if d > 0 and k in in_tree else None
        if mid is None:
            return planner_mod.SolutionNode(key=k, G=vpi_of(k), terminal=True)
        if seq:
            left = planner_mod.SolutionNode(key=OrKey(k.s, mid), G=vpi_of(OrKey(k.s, mid)),
                                            terminal=True)
        else:
            left = node(OrKey(k.s, mid), d - 1)
        right = node(OrKey(mid, k.s2), d - 1)
        return planner_mod.SolutionNode(key=k, G=left.G * right.G, terminal=False,
                                        chosen=mid, left=left, right=right)

    return node(key, d), levels


def seeded_model(seed: int) -> TrainableModel:
    """A TrainableModel whose output heads are seeded too, so values and
    priors vary across cells."""
    model = TrainableModel(hidden=8, seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("value_w2", "prior_w2"):
        model.params[name] = rng.normal(0.0, 2.0, model.params[name].shape)
    return model


def assert_levels_match(ctx, tree, want_levels):
    got_levels = planner_mod._Extractor(ctx, tree).levels
    for got, level in zip(got_levels, want_levels, strict=True):
        for k, v in level.items():
            assert got[ctx.kidx(k)] == v


class TestExtractionMatchesLoopForm:
    @given(
        size=st.tuples(st.integers(5, 9), st.integers(5, 9)),
        density=st.floats(0.0, 1.0),
        maze_seed=st.integers(0, 10_000),
        mode=st.sampled_from(MODES),
        budget=st.integers(1, 120),
        model_seed=st.none() | st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_searches(self, size, density, maze_seed, mode, budget, model_seed):
        maze = generate_maze(size[0], size[1], density, maze_seed)
        task = sample_task(maze, maze_seed)
        heur = UntrainedHeuristics() if model_seed is None else seeded_model(model_seed)
        res = run_search(task, heur, PlannerConfig(budget=budget, mode=mode, seed=maze_seed))
        ctx, tree = res.tree.context, res.tree
        want, want_levels = reference_extract(ctx, tree, tree.root, tree.max_depth)
        # SolutionNode equality compares keys, G and chosen mids exactly
        assert res.solution_tree.root == want
        assert extract_plan(tree, tree.root) == (res.plan.sigma, want.G)
        assert_levels_match(ctx, tree, want_levels)
        assert res.plan.objective_L == plan_objective(task, res.plan.sigma)

    @given(
        n=st.integers(3, 7),
        mode=st.sampled_from(MODES),
        max_depth=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_key_set(self, n, mode, max_depth, data):
        # trees no search would grow (in sequential mode, keys off the goal
        # column), over few distinct values so that ties are common
        pairs = [(cell(0, a), cell(0, b)) for a in range(n) for b in range(n) if a != b]
        grades = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]),
                                    min_size=len(pairs), max_size=len(pairs)))
        tree, ctx, task = graded_row_setup(dict(zip(pairs, grades)), n, mode=mode,
                                           max_depth=max_depth)
        in_tree = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        expand(tree, ctx, tree.root)
        for key, keep in zip(pairs, in_tree):
            if keep and OrKey(*key) != tree.root:
                expand(tree, ctx, OrKey(*key))
        want, want_levels = reference_extract(ctx, tree, tree.root, max_depth)
        assert planner_mod._extract(ctx, tree, tree.root) == want
        assert_levels_match(ctx, tree, want_levels)

    def test_extraction_leaves_no_cyclic_garbage(self):
        # neither extraction nor a whole search (the tree and its context
        # must not reference each other in a cycle) leaves work for the
        # cycle collector
        maze = generate_maze(9, 9, 0.75, 3)
        task = sample_task(maze, 3)
        heurs = (UntrainedHeuristics(), seeded_model(3))
        res = run_search(task, heurs[0], PlannerConfig(budget=80))
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                extract_plan(res.tree, res.tree.root)
            for heur in heurs:
                for mode in MODES:
                    run_search(task, heur, PlannerConfig(budget=80, mode=mode))
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# run_search end to end


class TestRunSearch:
    @pytest.mark.parametrize("end", ["start", "goal"])
    def test_wall_or_off_board_end_is_a_value_error(self, end):
        maze = generate_maze(7, 7, 0.75, seed=3)
        wall = StateId(*map(int, np.argwhere(maze.cells == 1)[0]))
        inside = maze.empty_cells[0]
        for bad in (wall, cell(7, 0), cell(-1, 2)):
            ends = {"start": inside, "goal": inside, end: bad}
            task = Task(maze, ends["start"], ends["goal"])
            with pytest.raises(ValueError, match=f"task {end} .* not an empty cell"):
                run_search(task, UntrainedHeuristics(), PlannerConfig(budget=5))

    def test_adjacent_start_goal_any_budget(self):
        maze = open_grid(4)
        task = Task(maze, cell(1, 1), cell(1, 2))
        for budget in (1, 3, 17):
            res = run_search(task, StubHeuristics(), PlannerConfig(budget=budget, seed=1))
            assert res.plan.objective_L == 1.0

    def test_open_grid_exact_heuristics_recovers_optimum(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        table = exact_value_table(task, Pi0())
        res = run_search(task, ExactHeuristics(table), PlannerConfig(budget=50, seed=0))
        assert res.plan.objective_L == pytest.approx(1.0, abs=1e-9)
        assert table.value(task.start, task.goal) == 1.0
        # the plan is a real walk: consecutive states adjacent or equal
        for u, v in zip(res.plan.sigma, res.plan.sigma[1:]):
            assert abs(u.row - v.row) + abs(u.col - v.col) <= 1

    def test_objective_equals_leaf_product_and_root_return(self):
        for seed in range(6):
            maze = generate_maze(7, 7, 0.5, seed=seed)
            task = sample_task(maze, seed=seed)
            res = run_search(task, StubHeuristics(vhat=0.4), PlannerConfig(budget=30, seed=seed))
            leaves = res.solution_tree.leaves()
            prod = 1.0
            ctx = res.tree.context
            for leaf in leaves:
                prod *= vpi(ctx, leaf.key)
            assert res.plan.objective_L == pytest.approx(prod, abs=1e-12)
            assert res.returns[0][1] == pytest.approx(res.plan.objective_L, abs=1e-12)
            assert res.plan.objective_L <= res.returns[0][1] + 1e-12
            assert res.returns[0][1] <= 1.0

    def test_deterministic_for_fixed_seed(self):
        maze = generate_maze(9, 9, 0.6, seed=11)
        task = sample_task(maze, seed=4)
        cfg = PlannerConfig(budget=60, seed=7)
        r1 = run_search(task, StubHeuristics(vhat=0.2), cfg)
        r2 = run_search(task, StubHeuristics(vhat=0.2), cfg)
        assert r1.plan == r2.plan
        assert r1.tree_stats == r2.tree_stats
        assert r1.returns == r2.returns
        assert dump_tree(r1.tree) == dump_tree(r2.tree)

    def test_tiny_board_terminates_with_spare_budget(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        res = run_search(task, StubHeuristics(), PlannerConfig(budget=500, seed=0))
        assert res.plan.objective_L == 1.0
        assert res.budget_used <= 9  # at most n^2 reachable keys


def search_fingerprint(budget: int = 30, seeds=(0, 2, 5)) -> str:
    """sha256 over (sigma, L, tree_stats, dump_tree) of run_search on 9×9
    mazes, every mode, untrained heuristics and a seeded model."""
    h = hashlib.sha256()
    for seed in seeds:
        maze = generate_maze(9, 9, 0.75, seed)
        task = sample_task(maze, seed)
        for heur in (UntrainedHeuristics(), seeded_model(seed)):
            for mode in MODES:
                res = run_search(task, heur, PlannerConfig(budget=budget, mode=mode, seed=seed))
                sigma = [[s.row, s.col] for s in res.plan.sigma]
                h.update(json.dumps([sigma, res.plan.objective_L, res.tree_stats],
                                    sort_keys=True).encode())
                h.update(dump_tree(res.tree).encode())
    return h.hexdigest()


# Pinned when solved sub-tasks became terminal and tie draws a keyed hash; a
# change to the search's results, however small, changes it.  Update it only
# with a CHANGES.md note naming the deliberate change in behaviour.
GOLDEN_SEARCH_SHA256 = "6c2260efe2ebe4535863612424e8703a97f68d51cfaf7431958e810236a54c21"


def test_golden_search_fingerprint():
    assert search_fingerprint() == GOLDEN_SEARCH_SHA256


# ---------------------------------------------------------------------------
# sequential baseline


class TestSequential:
    def test_expanded_keys_all_end_at_goal(self):
        for seed in range(5):
            maze = generate_maze(7, 7, 0.5, seed=seed)
            task = sample_task(maze, seed=seed + 50)
            res = run_search(task, StubHeuristics(vhat=0.3),
                             PlannerConfig(budget=30, seed=seed, mode="sequential_right"))
            for key in keys(res.tree):
                assert key.s2 == task.goal

    def test_solution_tree_left_degenerate(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        table = exact_value_table(task, Pi0())
        res = run_search(task, ExactHeuristics(table),
                         PlannerConfig(budget=50, seed=0, mode="sequential_right"))
        for node in res.solution_tree.nodes():
            if not node.terminal:
                assert node.left.terminal

    def test_adjacent_matches_divide_and_conquer(self):
        maze = open_grid(4)
        task = Task(maze, cell(2, 2), cell(2, 3))
        cfg = PlannerConfig(budget=5, seed=0)
        r_dc = run_search(task, StubHeuristics(), cfg)
        r_seq = run_search(task, StubHeuristics(), replace(cfg, mode="sequential_right"))
        assert r_dc.plan == r_seq.plan

    def test_open_grid_matches_dc_objective(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        table = exact_value_table(task, Pi0())
        cfg = PlannerConfig(budget=50, seed=0)
        r_dc = run_search(task, ExactHeuristics(table), cfg)
        r_seq = run_search(task, ExactHeuristics(table), replace(cfg, mode="sequential_right"))
        assert r_seq.plan.objective_L == pytest.approx(r_dc.plan.objective_L, abs=1e-9)
        assert r_seq.plan.objective_L == pytest.approx(1.0, abs=1e-9)

    def test_extraction_left_factor_is_direct_segment(self):
        # (a,c) is in the tree and realizes 1.0 through b, but a sequential
        # plan executes (a,c) directly: splitting at c is worth 0.5 < 0.6
        a, b, c, d = (cell(0, k) for k in range(4))
        values = {(a, b): 1.0, (b, c): 1.0, (c, d): 1.0, (a, c): 0.5, (a, d): 0.6}
        tree, ctx, task = graded_row_setup(values, 4, mode="sequential_right")
        for key in [(a, d), (c, d), (a, c), (b, c)]:
            expand(tree, ctx, OrKey(*key))
        sigma, g = extract_plan(tree, tree.root)
        assert sigma == (a, d)
        assert g == 0.6


# ---------------------------------------------------------------------------
# descend variants


class TestDescend:
    def test_left_first_always_left(self):
        rng = np.random.default_rng(0)
        assert descend_one("descend_left_first", (0.1, 5), (0.9, 0), rng) == "left"
        assert descend_one("descend_left_first", (0.9, 0), (0.1, 5), rng) == "left"

    def test_lower_value_descends_lower(self):
        rng = np.random.default_rng(0)
        assert descend_one("descend_lower_value", (0.2, 1), (0.9, 1), rng) == "left"
        assert descend_one("descend_lower_value", (0.9, 1), (0.2, 1), rng) == "right"

    def test_lower_value_tie_uses_rng(self):
        seen = {
            descend_one("descend_lower_value", (0.5, 1), (0.5, 1),
                        np.random.default_rng(s))
            for s in range(20)
        }
        assert seen == {"left", "right"}

    def test_two_way_uct_prefers_unvisited(self):
        # equal values, N_left=10, N_right=0 -> Right by the documented score
        rng = np.random.default_rng(0)
        assert descend_one("descend_two_way_uct", (0.5, 10), (0.5, 0), rng) == "right"
        total = math.log(11)
        s_left = 0.5 + math.sqrt(2) * math.sqrt(total / 11)
        s_right = 0.5 + math.sqrt(2) * math.sqrt(total / 1)
        assert s_right > s_left

    def test_descend_modes_run_end_to_end(self):
        maze = generate_maze(7, 7, 0.5, seed=2)
        task = sample_task(maze, seed=9)
        for mode in ("descend_left_first", "descend_lower_value", "descend_two_way_uct"):
            cfg = PlannerConfig(budget=30, seed=4, mode=mode)
            r1 = run_search(task, StubHeuristics(vhat=0.3), cfg)
            r2 = run_search(task, StubHeuristics(vhat=0.3), cfg)
            assert r1.plan == r2.plan
            assert dump_tree(r1.tree) == dump_tree(r2.tree)
            assert r1.plan.sigma[0] == task.start
            assert r1.plan.sigma[-1] == task.goal


# ---------------------------------------------------------------------------
# config validation


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PlannerConfig(budget=0)
        with pytest.raises(ValueError):
            PlannerConfig(budget=1, max_depth=0)
        for c_puct in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_puct"):
                PlannerConfig(budget=1, c_puct=c_puct)
        with pytest.raises(ValueError):
            PlannerConfig(budget=1, mode="nonsense")
