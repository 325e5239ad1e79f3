"""Oracle tests: exact value tables, optimal-plan reconstruction, policy
values, plan-success dynamic programming, and the sub-goal product bound."""

from __future__ import annotations

import numpy as np
import pytest

from subplan.gridworld import Maze, Pi0, StateId, Task, bfs_distances, generate_maze, sample_task
from subplan.oracle import (
    ExactHeuristics,
    StochasticTestPolicy,
    exact_plan_success,
    exact_policy_value,
    exact_value_table,
    monte_carlo_success,
    optimal_plan,
)
from subplan.planner import plan_objective


def open_grid(width: int, height: int | None = None) -> Maze:
    h = height if height is not None else width
    return Maze(width, h, np.zeros((h, width), dtype=np.uint8), 0.0, -1)


def row_maze(n: int) -> Maze:
    return open_grid(n, 1)


def cell(r: int, c: int) -> StateId:
    return StateId(r, c)


def half_edge_values(maze: Maze, s: StateId, t: StateId) -> float:
    """Toy low-level value: 0.5 per adjacent hop."""
    if s == t:
        return 1.0
    if abs(s.row - t.row) + abs(s.col - t.col) == 1:
        return 0.5
    return 0.0


def broken_edge_values(maze: Maze, s: StateId, t: StateId) -> float:
    """1x3 toy where the second hop is impossible."""
    if s == t:
        return 1.0
    if (s, t) == (cell(0, 0), cell(0, 1)):
        return 0.5
    return 0.0


def random_tables(seeds, policy_factory):
    for seed in seeds:
        maze = generate_maze(6, 6, 0.55, seed=seed)
        task = sample_task(maze, seed=seed + 17)
        pol = policy_factory()
        yield task, pol, exact_value_table(task, pol)


# ---------------------------------------------------------------------------
# exact_value_table


class TestValueTable:
    def test_diagonal_is_one(self):
        for task, pol, table in random_tables(range(4), Pi0):
            assert np.allclose(np.diag(table.values), 1.0, atol=0)

    def test_dominance_over_low_level(self):
        factories = [Pi0, lambda: StochasticTestPolicy(0.3)]
        for factory in factories:
            for task, pol, table in random_tables(range(3), factory):
                assert np.all(table.values >= table.lowlevel - 1e-12)

    def test_bellman_fixed_point(self):
        factories = [Pi0, lambda: StochasticTestPolicy(0.3)]
        for factory in factories:
            for task, pol, table in random_tables(range(3), factory):
                V = table.values
                best = (V[:, :, None] * V[None, :, :]).max(axis=1)
                assert np.max(np.abs(V - best)) <= 1e-9

    def test_open_3x3_pi0_all_reachable(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(2, 2))
        table = exact_value_table(task, Pi0())
        assert table.value(cell(0, 0), cell(2, 2)) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(table.values, 1.0, atol=1e-12)

    def test_half_edge_toy_two_hops(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, half_edge_values)
        assert table.value(cell(0, 0), cell(0, 1)) == pytest.approx(0.5, abs=1e-12)
        assert table.value(cell(0, 0), cell(0, 2)) == pytest.approx(0.25, abs=1e-9)

    def test_unreachable_pair_is_zero(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, broken_edge_values)
        assert table.value(cell(0, 0), cell(0, 2)) == 0.0
        assert table.value(cell(0, 1), cell(0, 0)) == 0.0

    def test_export_text_golden(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, half_edge_values)
        expected = (
            "1.000000000 0.500000000 0.250000000\n"
            "0.500000000 1.000000000 0.500000000\n"
            "0.250000000 0.500000000 1.000000000\n"
        )
        assert table.export_text() == expected

    def test_size_guard(self):
        maze = open_grid(25)  # 625 empty cells
        task = Task(maze, cell(0, 0), cell(24, 24))
        with pytest.raises(ValueError, match="monte_carlo_success"):
            exact_value_table(task, Pi0())
        with pytest.raises(ValueError):
            exact_policy_value(maze, Pi0(), cell(0, 0), cell(24, 24), horizon=1)


# ---------------------------------------------------------------------------
# optimal_plan


class TestOptimalPlan:
    def test_adjacent_direct(self):
        maze = open_grid(3)
        task = Task(maze, cell(1, 1), cell(1, 2))
        table = exact_value_table(task, Pi0())
        plan = optimal_plan(task, table)
        assert plan.sigma == (task.start, task.goal)
        assert plan.objective_L == 1.0
        assert not plan.infeasible

    def test_open_3x3_corner_to_corner(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(2, 2))
        table = exact_value_table(task, Pi0())
        plan = optimal_plan(task, table)
        assert len(plan.sigma) == 5
        assert plan.sigma[0] == task.start and plan.sigma[-1] == task.goal
        for u, v in zip(plan.sigma, plan.sigma[1:]):
            assert abs(u.row - v.row) + abs(u.col - v.col) == 1
        assert plan.objective_L == pytest.approx(1.0, abs=1e-9)

    def test_half_edge_toy_achieves_quarter(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, half_edge_values)
        plan = optimal_plan(task, table)
        assert plan.sigma == (cell(0, 0), cell(0, 1), cell(0, 2))
        assert plan.objective_L == pytest.approx(0.25, abs=1e-9)

    def test_objective_matches_table_value(self):
        for task, pol, table in random_tables(range(4), lambda: StochasticTestPolicy(0.25)):
            plan = optimal_plan(task, table)
            target = table.value(task.start, task.goal)
            assert plan.objective_L == pytest.approx(target, abs=1e-9)
            if not plan.infeasible:
                recomputed = plan_objective(task, plan.sigma, pol)
                assert recomputed == pytest.approx(target, abs=1e-9)

    def test_infeasible_flagged(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, broken_edge_values)
        plan = optimal_plan(task, table)
        assert plan.infeasible
        assert plan.sigma == (task.start, task.goal)
        assert plan.objective_L == 0.0

    def test_trivial_same_cell_task(self):
        maze = open_grid(3)
        task = Task(maze, cell(1, 1), cell(1, 1))
        table = exact_value_table(task, Pi0())
        plan = optimal_plan(task, table)
        assert plan.objective_L == 1.0

    def test_uncovered_task_rejected(self):
        walled = np.zeros((3, 3), dtype=np.uint8)
        walled[1, 1] = 1
        table = exact_value_table(
            Task(Maze(3, 3, walled, 0.0, -1), cell(0, 0), cell(2, 2)), Pi0()
        )
        stray = Task(open_grid(3), cell(1, 1), cell(0, 0))
        with pytest.raises(ValueError, match="cover"):
            optimal_plan(stray, table)


# ---------------------------------------------------------------------------
# exact_policy_value / StochasticTestPolicy


class TestExactPolicyValue:
    def test_epsilon_zero_reaches_within_distance(self):
        maze = generate_maze(6, 6, 0.6, seed=9)
        pol = StochasticTestPolicy(0.0)
        cells = maze.empty_cells
        rng = np.random.default_rng(0)
        for _ in range(10):
            s, g = (cells[int(rng.integers(len(cells)))] for _ in range(2))
            dist = bfs_distances(maze, g).get(s)
            assert dist is not None  # generated mazes are connected
            v = exact_policy_value(maze, pol, s, g, horizon=max(dist, 1))
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_zero_horizon_zero_value(self):
        maze = open_grid(3)
        pol = StochasticTestPolicy(0.5)
        assert exact_policy_value(maze, pol, cell(0, 0), cell(2, 2), horizon=0) == 0.0

    def test_same_cell_is_one(self):
        maze = open_grid(3)
        pol = StochasticTestPolicy(0.5)
        assert exact_policy_value(maze, pol, cell(1, 1), cell(1, 1), horizon=0) == 1.0

    def test_corridor_hand_enumeration(self):
        # 1x3 corridor, epsilon=0.5, horizon 4.  From the left end the only
        # move is to the middle; from the middle the chain steps right with
        # probability 0.75 and left with 0.25.  Reaching the right end within
        # 4 steps: 0.75 (2 steps) + 0.25*0.75 (4 steps) = 0.9375.
        maze = row_maze(3)
        pol = StochasticTestPolicy(0.5)
        v = exact_policy_value(maze, pol, cell(0, 0), cell(0, 2), horizon=4)
        assert v == pytest.approx(0.9375, abs=1e-12)

    def test_value_monotone_in_horizon(self):
        maze = row_maze(3)
        pol = StochasticTestPolicy(0.5)
        values = [
            exact_policy_value(maze, pol, cell(0, 0), cell(0, 2), horizon=h)
            for h in (0, 2, 4, 8, 16)
        ]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_policy_value_matches_exact_dp(self):
        maze = generate_maze(5, 5, 0.5, seed=3)
        pol = StochasticTestPolicy(0.4, value_horizon=20)
        cells = maze.empty_cells
        mat = pol.value_matrix(maze)
        for i, s in enumerate(cells):
            for j, g in enumerate(cells):
                direct = exact_policy_value(maze, pol, s, g, horizon=20)
                assert mat[i, j] == pytest.approx(direct, abs=1e-12)
                assert pol.value(maze, s, g) == pytest.approx(direct, abs=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            StochasticTestPolicy(-0.1)
        with pytest.raises(ValueError):
            StochasticTestPolicy(1.5)

    def test_step_deterministic_when_epsilon_zero(self):
        maze = open_grid(3)
        pol = StochasticTestPolicy(0.0)
        rng = np.random.default_rng(0)
        s = cell(0, 0)
        seen = {pol.step(rng, maze, s, cell(2, 2)) for _ in range(10)}
        assert len(seen) == 1
        (t,) = seen
        assert abs(t.row - s.row) + abs(t.col - s.col) == 1


# ---------------------------------------------------------------------------
# monte_carlo_success / exact_plan_success


class TestPlanSuccess:
    def test_deterministic_plan_rate_one(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(0, 1))
        rate, stderr = monte_carlo_success(
            np.random.default_rng(0), task, [task.start, task.goal], Pi0(),
            trials=100, step_limit=5,
        )
        assert rate == 1.0
        assert stderr == 0.0

    def test_hopeless_plan_rate_zero(self):
        maze = row_maze(4)
        task = Task(maze, cell(0, 0), cell(0, 3))
        rate, stderr = monte_carlo_success(
            np.random.default_rng(0), task, [task.start, task.goal], Pi0(),
            trials=200, step_limit=1,
        )
        assert rate == 0.0
        assert stderr == 0.0

    def test_trials_validated(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(0, 1))
        with pytest.raises(ValueError):
            monte_carlo_success(np.random.default_rng(0), task,
                                [task.start, task.goal], Pi0(), trials=0, step_limit=1)

    def test_seeded_runs_reproduce(self):
        maze = generate_maze(5, 5, 0.5, seed=7)
        task = sample_task(maze, seed=3)
        pol = StochasticTestPolicy(0.6)
        plan = [task.start, task.goal]
        a = monte_carlo_success(np.random.default_rng(42), task, plan, pol,
                                trials=300, step_limit=30)
        b = monte_carlo_success(np.random.default_rng(42), task, plan, pol,
                                trials=300, step_limit=30)
        assert a == b

    def test_corridor_exact_success_matches_hand_value(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        pol = StochasticTestPolicy(0.5)
        p = exact_plan_success(task, [task.start, task.goal], pol, step_limit=4)
        assert p == pytest.approx(0.9375, abs=1e-12)

    def test_exact_success_agrees_with_monte_carlo(self):
        maze = open_grid(4)
        task = Task(maze, cell(0, 0), cell(3, 3))
        pol = StochasticTestPolicy(0.5, value_horizon=8)
        plan = [task.start, cell(1, 1), cell(2, 2), task.goal]
        p = exact_plan_success(task, plan, pol, step_limit=24)
        rate, stderr = monte_carlo_success(
            np.random.default_rng(5), task, plan, pol, trials=4000, step_limit=24
        )
        assert abs(rate - p) <= max(5 * stderr, 0.02)

    def test_product_bound_large_sample(self):
        # empirical success dominates the plan objective (minus noise)
        maze = open_grid(4)
        task = Task(maze, cell(0, 0), cell(3, 3))
        h = 4
        pol = StochasticTestPolicy(0.5, value_horizon=h)
        plan = [task.start, cell(1, 1), cell(2, 2), task.goal]
        product = 1.0
        for a, b in zip(plan, plan[1:]):
            product *= exact_policy_value(maze, pol, a, b, horizon=h)
        assert 0.1 < product < 0.9  # a genuinely graded case
        rate, stderr = monte_carlo_success(
            np.random.default_rng(11), task, plan, pol,
            trials=10_000, step_limit=h * (len(plan) - 1),
        )
        assert rate >= product - 4 * stderr

    def test_product_bound_exact_on_small_grids(self):
        # Pi0-style composition bound: the product of per-segment values at
        # horizon h is a lower bound on composed execution success with
        # step_limit = segments * h, checked by exact dynamic programming.
        rng = np.random.default_rng(1)
        h = 4
        for trial in range(12):
            size = 3 + trial % 2
            maze = open_grid(size)
            cells = maze.empty_cells
            start = cells[int(rng.integers(len(cells)))]
            goal = cells[int(rng.integers(len(cells)))]
            task = Task(maze, start, goal)
            mids = [cells[int(rng.integers(len(cells)))] for _ in range(int(rng.integers(3)))]
            plan = [start, *mids, goal]
            pol = StochasticTestPolicy(0.4, value_horizon=h)
            product = 1.0
            for a, b in zip(plan, plan[1:]):
                product *= exact_policy_value(maze, pol, a, b, horizon=h)
            exact = exact_plan_success(task, plan, pol, step_limit=h * (len(plan) - 1))
            assert exact >= product - 1e-12

    def test_plan_success_same_cell_task(self):
        maze = open_grid(3)
        task = Task(maze, cell(1, 1), cell(1, 1))
        assert exact_plan_success(task, [task.start, task.goal], Pi0(), step_limit=3) == 1.0


# ---------------------------------------------------------------------------
# ExactHeuristics


class TestExactHeuristics:
    def test_values_read_off_table(self):
        maze = generate_maze(5, 5, 0.5, seed=2)
        task = sample_task(maze, seed=4)
        table = exact_value_table(task, Pi0())
        heur = ExactHeuristics(table)
        cells = maze.empty_cells
        pairs = np.array(
            [[a.row, a.col, b.row, b.col] for a in cells[:4] for b in cells[:4]]
        )
        got = heur.values(maze, pairs)
        for row, (a, b) in zip(got, [(a, b) for a in cells[:4] for b in cells[:4]]):
            assert row == table.value(a, b)

    def test_values_match_the_table_loop_bit_for_bit(self):
        for seed in range(4):
            maze = generate_maze(7, 6, 0.6, seed=seed)
            table = exact_value_table(sample_task(maze, seed=seed), Pi0())
            heur = ExactHeuristics(table)
            cells = maze.empty_cells
            rng = np.random.default_rng(seed)
            picks = rng.integers(len(cells), size=(40, 2))
            pairs = np.array([[*cells[i], *cells[j]] for i, j in picks])
            want = np.array([table.values[table.index[cells[i]], table.index[cells[j]]]
                             for i, j in picks])
            assert heur.values(maze, pairs).tobytes() == want.tobytes()
        assert heur.values(maze, np.empty((0, 4), dtype=np.int64)).shape == (0,)

    def test_values_reject_walls_and_off_board_cells(self):
        maze = generate_maze(7, 7, 0.75, seed=3)
        table = exact_value_table(sample_task(maze, seed=1), Pi0())
        heur = ExactHeuristics(table)
        a = maze.empty_cells[0]
        wall = tuple(int(x) for x in np.argwhere(maze.cells == 1)[0])
        for bad in (wall, (7, 0), (0, 7), (-1, 0), (0, -1)):
            for pairs in ([[*a, *bad]], [[*bad, *a]], [[*a, *a], [*bad, *a]]):
                with pytest.raises(ValueError, match="not an empty cell"):
                    heur.values(maze, np.array(pairs))

    def test_prior_is_distribution_weighted_by_products(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))
        table = exact_value_table(task, half_edge_values)
        heur = ExactHeuristics(table)
        from subplan.tree import OrKey, candidate_subgoals

        key = OrKey(task.start, task.goal)
        cands = candidate_subgoals(task.maze)
        p = heur.prior(task, key, cands)
        assert p.shape == (4,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)
        # weights: ∅ = v_pi(a,c) = 0; mids a, b, c = v*(a,x)·v*(x,c)
        w = np.array([0.0, 1.0 * 0.25, 0.5 * 0.5, 0.25 * 1.0])
        assert np.allclose(p, w / w.sum(), atol=1e-12)

    def test_prior_uniform_when_everything_is_zero(self):
        maze = row_maze(3)
        task = Task(maze, cell(0, 0), cell(0, 2))

        def dead_values(m, s, t):
            return 1.0 if s == t else 0.0

        table = exact_value_table(task, dead_values)
        heur = ExactHeuristics(table)
        from subplan.tree import OrKey, candidate_subgoals

        key = OrKey(cell(0, 0), cell(0, 2))
        p = heur.prior(task, key, candidate_subgoals(task.maze))
        assert np.allclose(p, 0.25, atol=1e-12)
