"""Planner tests: selection arithmetic, traversal semantics, extraction,
search invariants, baselines, and determinism (including parallel AND)."""

from __future__ import annotations

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subplan.gridworld import Maze, Pi0, StateId, Task, generate_maze, sample_task
from subplan.heuristics import TrainableModel, UntrainedHeuristics
from subplan.oracle import ExactHeuristics, StochasticTestPolicy, exact_value_table
from subplan.planner import (
    MODES,
    PlannerConfig,
    PlanningContext,
    _TieBreaker,
    _traverse,
    descend_one,
    extract_plan,
    plan_objective,
    plan_result_json,
    run_search,
    run_search_sequential,
    select_child,
    selection_scores,
    traverse,
)
from subplan.tree import (
    AndKey,
    OrKey,
    SearchTree,
    dump_tree,
    expand_node,
    load_tree_dump,
    touch_and_node,
    update_or_stats,
)

import subplan.planner as planner_mod


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
    """A fresh tree + context with the root expanded, for handcrafted tests."""
    ctx = PlanningContext(task, heuristics, config, low_level)
    tree = SearchTree(root=OrKey(task.start, task.goal), budget_max=config.budget,
                      max_depth=config.max_depth)
    tree.context = ctx
    return tree, ctx


def expand(tree, ctx, key):
    v0 = expand_node(tree, key, ctx.vpi_key(key), ctx.vhat_key(key), ctx.prior_key(key))
    ctx.on_expand(tree, key, v0)
    return v0


def update(tree, ctx, key, g):
    v, n = update_or_stats(tree, key, g)
    ctx.on_update(key, v)
    return v, n


def touch(tree, ctx, key, mid):
    touch_and_node(tree, AndKey(key.s, mid, key.s2))
    idx = 0 if mid is None else ctx.index[mid] + 1
    ctx.and_counts[key][idx] += 1


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
        node = tree.or_nodes[root]
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
        got = selection_scores(node, ctx.and_counts[root], 5.0, ctx)
        assert np.max(np.abs(got - expected)) <= 1e-12

        pick = select_child(node, ctx.and_counts[root], 5.0,
                            np.random.default_rng(0), ctx)
        assert pick == cell(0, 2)  # argmax of the hand table

    def test_c_zero_reduces_to_exploitation(self):
        tree, ctx, root = self.build_updated_root()
        node = tree.or_nodes[root]
        got = selection_scores(node, ctx.and_counts[root], 0.0, ctx)
        assert np.allclose(got, [0.0, 0.6, 1.0, 0.6], atol=1e-12)
        pick = select_child(node, ctx.and_counts[root], 0.0,
                            np.random.default_rng(0), ctx)
        assert pick == cell(0, 1)

    def test_unvisited_node_scores_exploitation_only(self):
        # N(s,s'')=0: sqrt(0)=0 kills exploration even with c_puct > 0
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        cfg = PlannerConfig(budget=10, c_puct=5.0)
        tree, ctx = make_search(task, StubHeuristics(vhat=0.35), cfg)
        expand(tree, ctx, tree.root)
        node = tree.or_nodes[tree.root]
        got = selection_scores(node, ctx.and_counts[tree.root], 5.0, ctx)
        exploit = selection_scores(node, ctx.and_counts[tree.root], 0.0, ctx)
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
        node = tree.or_nodes[root]
        counts = ctx.and_counts[root]
        assert node.N == 4
        scores = selection_scores(node, counts, 5.0, ctx)
        # (0,1) and (0,2) tie on exploitation (bootstrap products), differ on prior
        assert scores[2] > scores[3]
        pick = select_child(node, counts, 5.0, np.random.default_rng(0), ctx)
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
        node = tree.or_nodes[root]
        scores = selection_scores(node, ctx.and_counts[root], 5.0, ctx)
        mids = scores[1:]
        # ∅ exploits v_pi=0, so the unvisited mids (0,2), (0,3) are the argmax set
        assert np.argmax(scores) in (3, 4)
        assert mids[2] == mids[3] > mids[0] == mids[1]
        picks = {
            select_child(node, ctx.and_counts[root], 5.0,
                         np.random.default_rng(s), ctx)
            for s in range(20)
        }
        assert picks == {cell(0, 2), cell(0, 3)}


# ---------------------------------------------------------------------------
# traverse


def graded_row_setup(values, n, heur_prior=None, heur_prior_map=None, **cfg_kw):
    maze = row_maze(n)
    task = Task(maze, cell(0, 0), cell(0, n - 1))
    pol = PairValues(values)
    heur = StubHeuristics(vhat=0.0, prior=heur_prior, prior_map=heur_prior_map)
    cfg = PlannerConfig(**{"budget": 50, "seed": 0, **cfg_kw})
    ctx = PlanningContext(task, heur, cfg, pol)
    tree = SearchTree(root=OrKey(task.start, task.goal), budget_max=cfg.budget,
                      max_depth=cfg.max_depth)
    tree.context = ctx
    return tree, ctx, task


class TestTraverse:
    def test_first_traversal_expands_root_and_bootstraps(self):
        tree, ctx, task = graded_row_setup({}, 3)
        tie = _TieBreaker(0).next_traversal()
        g = _traverse(ctx, tree, tree.root, 0, 1, tie)
        assert g == 0.0  # max(v_pi=0, vhat=0)
        assert tree.budget_used == 1
        assert tree.or_nodes[tree.root].N == 0  # bootstrap pass: no update

    def test_adjacent_root_floor_keeps_value_one(self):
        maze = row_maze(2)
        task = Task(maze, cell(0, 0), cell(0, 1))
        tree, ctx = make_search(task, StubHeuristics(), PlannerConfig(budget=5))
        breaker = _TieBreaker(0)
        for _ in range(3):
            g = _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
            assert g == 1.0
        assert tree.or_nodes[tree.root].V == 1.0

    def test_product_of_child_returns(self):
        # G_left=0.9, G_right=0.8, v_pi=0 -> G = 0.72
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.9, (b, c): 0.8}
        prior = [0.0, 0.0, 1.0, 0.0]  # force mid (0,1)
        tree, ctx, task = graded_row_setup(values, 3, heur_prior=prior)
        breaker = _TieBreaker(0)
        _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
        g = _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
        assert g == pytest.approx(0.72, abs=1e-15)
        node = tree.or_nodes[tree.root]
        assert node.V == pytest.approx(0.72, abs=1e-15)
        assert node.N == 1

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
                _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
        sub = OrKey(a, c)
        assert capped.or_nodes[sub].V == pytest.approx(0.3, abs=1e-12)
        assert deep.or_nodes[sub].V == pytest.approx(0.81, abs=1e-12)
        # the depth-capped node still got selected and counted
        assert capped.or_nodes[sub].N > 0

    def test_budget_exhaustion_completes_with_bootstrap(self):
        a, b, c = cell(0, 0), cell(0, 1), cell(0, 2)
        values = {(a, b): 0.9, (b, c): 0.8}
        prior = [0.0, 0.0, 1.0, 0.0]
        tree, ctx, task = graded_row_setup(values, 3, heur_prior=prior, budget=2)
        breaker = _TieBreaker(0)
        _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
        g = _traverse(ctx, tree, tree.root, 0, 1, breaker.next_traversal())
        # left child took the last budget unit; right was evaluated as
        # bootstrap max(v_pi=0.8, vhat=0) without being expanded
        assert tree.budget_used == 2
        assert OrKey(a, b) in tree.or_nodes
        assert OrKey(b, c) not in tree.or_nodes
        assert g == pytest.approx(0.72, abs=1e-15)
        assert tree.or_nodes[tree.root].N == 1  # the update still happened

    def test_public_traverse_on_loaded_dump_matches_in_memory(self):
        maze = generate_maze(7, 7, 0.4, seed=5)
        task = sample_task(maze, seed=2)
        heur = StubHeuristics()
        cfg = PlannerConfig(budget=15, seed=3)
        r1 = run_search(task, heur, cfg)
        r2 = run_search(task, heur, cfg)
        loaded = load_tree_dump(dump_tree(r2.tree), root=r2.tree.root)
        g_mem = traverse(r1.tree, task, r1.tree.root, 0, heur, cfg,
                         np.random.default_rng(9))
        g_load = traverse(loaded, task, loaded.root, 0, heur, cfg,
                          np.random.default_rng(9))
        assert g_mem == g_load
        assert dump_tree(r1.tree) == dump_tree(loaded)


# ---------------------------------------------------------------------------
# bookkeeping properties


class TestBookkeeping:
    def run_random_search(self, seed):
        maze = generate_maze(7, 7, 0.5, seed=seed)
        task = sample_task(maze, seed=seed + 100)
        return run_search(task, StubHeuristics(vhat=0.3), PlannerConfig(budget=40, seed=seed))

    def test_and_visits_match_or_updates(self):
        for seed in range(8):
            res = self.run_random_search(seed)
            tree = res.tree
            sums: dict[OrKey, int] = {}
            for akey, anode in tree.and_nodes.items():
                sums[OrKey(akey.s, akey.s2)] = sums.get(OrKey(akey.s, akey.s2), 0) + anode.N
            for key, node in tree.or_nodes.items():
                assert sums.get(key, 0) == node.N

    def test_budget_counts_expansions_exactly(self):
        for seed in range(8):
            res = self.run_random_search(seed)
            assert res.budget_used == len(res.tree.or_nodes)
            assert res.budget_used <= 40

    def test_threshold_floor_after_search(self):
        for seed in range(8):
            res = self.run_random_search(seed)
            ctx = res.tree.context
            for key, node in res.tree.or_nodes.items():
                assert node.V >= ctx.vpi_key(key) - 1e-12

    def test_running_average_is_exact_mean(self, monkeypatch):
        recorded: dict[OrKey, list[float]] = {}
        orig = planner_mod.update_or_stats

        def recording(tree, key, g):
            recorded.setdefault(key, []).append(g)
            return orig(tree, key, g)

        monkeypatch.setattr(planner_mod, "update_or_stats", recording)
        res = self.run_random_search(3)
        for key, gs in recorded.items():
            node = res.tree.or_nodes[key]
            assert node.N == len(gs)
            assert node.V == pytest.approx(float(np.mean(gs)), abs=1e-12)


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
        ctx = PlanningContext(task, heur, cfg, pol)
        tree = SearchTree(root=OrKey(a, d), budget_max=50, max_depth=8)
        tree.context = ctx
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
        tree = SearchTree(root=OrKey(cell(0, 0), cell(0, 2)), budget_max=5, max_depth=8)
        with pytest.raises(ValueError):
            extract_plan(tree, tree.root)


# ---------------------------------------------------------------------------
# extraction against its loop form


def reference_extract(ctx, tree, key, d):
    """Extraction as a loop over keys x candidates x levels: per-key dicts of
    level values, candidates in row-major order, strict > against v_pi.
    Returns the solution node and the level dicts."""
    seq = ctx.config.mode == "sequential_right"
    vpi = ctx.vpi_key
    left_anchor, right_anchor = {}, {}
    for k in tree.or_nodes:
        left_anchor.setdefault(k.s, set()).add(k.s2)
        right_anchor.setdefault(k.s2, set()).add(k.s)
    cands = {}
    for k in tree.or_nodes:
        pool = set(right_anchor.get(k.s2, ()))
        if not seq:
            pool |= left_anchor.get(k.s, set())
        cands[k] = sorted(x for x in pool if x != k.s and x != k.s2)

    def child(level, k):
        return level[k] if k in level else vpi(k)

    def split(level, k, x):
        left = vpi(OrKey(k.s, x)) if seq else child(level, OrKey(k.s, x))
        return left * child(level, OrKey(x, k.s2))

    def best(level, k):
        value, mid = vpi(k), None
        for x in cands[k]:
            score = split(level, k, x)
            if score > value:
                value, mid = score, x
        return value, mid

    levels = [{k: vpi(k) for k in tree.or_nodes}]
    for _ in range(tree.max_depth):
        levels.append({k: best(levels[-1], k)[0] for k in tree.or_nodes})

    def node(k, d):
        mid = best(levels[d - 1], k)[1] if d > 0 and k in tree.or_nodes else None
        if mid is None:
            return planner_mod.SolutionNode(key=k, G=vpi(k), terminal=True)
        if seq:
            left = planner_mod.SolutionNode(key=OrKey(k.s, mid), G=vpi(OrKey(k.s, mid)), terminal=True)
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
        assert planner_mod._extract(ctx, tree, tree.root, 0) == want
        assert_levels_match(ctx, tree, want_levels)

    def test_extraction_leaves_no_cyclic_garbage(self):
        maze = generate_maze(9, 9, 0.75, 3)
        res = run_search(sample_task(maze, 3), UntrainedHeuristics(), PlannerConfig(budget=80))
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                extract_plan(res.tree, res.tree.root)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# run_search end to end


class TestRunSearch:
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
                prod *= ctx.vpi_key(leaf.key)
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
        assert dump_tree(r1.tree) == dump_tree(r2.tree)
        assert plan_result_json(r1) == plan_result_json(r2)

    def test_parallel_and_bit_identical_to_sequential(self):
        maze = generate_maze(9, 9, 0.5, seed=3)
        task = sample_task(maze, seed=8)
        base = PlannerConfig(budget=60, seed=5, parallel_and=False)
        par = PlannerConfig(budget=60, seed=5, parallel_and=True)
        heur = StubHeuristics(vhat=0.3)
        r_seq = run_search(task, heur, base)
        r_par = run_search(task, heur, par)
        assert dump_tree(r_seq.tree) == dump_tree(r_par.tree)
        assert r_seq.plan == r_par.plan
        assert r_seq.tree_stats == r_par.tree_stats
        # and parallel re-runs are themselves stable
        r_par2 = run_search(task, heur, par)
        assert dump_tree(r_par.tree) == dump_tree(r_par2.tree)

    def test_tiny_board_terminates_with_spare_budget(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        res = run_search(task, StubHeuristics(), PlannerConfig(budget=500, seed=0))
        assert res.plan.objective_L == 1.0
        assert res.budget_used <= 9  # at most n^2 reachable keys

    def test_result_json_shape(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        res = run_search(task, StubHeuristics(), PlannerConfig(budget=5, seed=0))
        payload = json.loads(plan_result_json(res, tree_dump_ref="tree.txt"))
        assert payload["plan"][0] == [0, 0]
        assert payload["plan"][-1] == [0, 2]
        assert payload["tree_dump"] == "tree.txt"
        assert set(payload) == {"plan", "L", "G", "budget_used", "tree_stats", "tree_dump"}


# ---------------------------------------------------------------------------
# sequential baseline


class TestSequential:
    def test_expanded_keys_all_end_at_goal(self):
        for seed in range(5):
            maze = generate_maze(7, 7, 0.5, seed=seed)
            task = sample_task(maze, seed=seed + 50)
            res = run_search_sequential(task, StubHeuristics(vhat=0.3),
                                        PlannerConfig(budget=30, seed=seed))
            for key in res.tree.or_nodes:
                assert key.s2 == task.goal

    def test_solution_tree_left_degenerate(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        table = exact_value_table(task, Pi0())
        res = run_search_sequential(task, ExactHeuristics(table),
                                    PlannerConfig(budget=50, seed=0))
        for node in res.solution_tree.nodes():
            if not node.terminal:
                assert node.left.terminal

    def test_adjacent_matches_divide_and_conquer(self):
        maze = open_grid(4)
        task = Task(maze, cell(2, 2), cell(2, 3))
        cfg = PlannerConfig(budget=5, seed=0)
        r_dc = run_search(task, StubHeuristics(), cfg)
        r_seq = run_search_sequential(task, StubHeuristics(), cfg)
        assert r_dc.plan == r_seq.plan

    def test_open_grid_matches_dc_objective(self):
        maze = open_grid(5)
        task = Task(maze, cell(0, 0), cell(4, 4))
        table = exact_value_table(task, Pi0())
        cfg = PlannerConfig(budget=50, seed=0)
        r_dc = run_search(task, ExactHeuristics(table), cfg)
        r_seq = run_search_sequential(task, ExactHeuristics(table), cfg)
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
        with pytest.raises(ValueError):
            PlannerConfig(budget=1, c_puct=-0.1)
        with pytest.raises(ValueError):
            PlannerConfig(budget=1, mode="nonsense")
