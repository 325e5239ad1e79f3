"""Ground-truth machinery for small instances.

Exact best-decomposition values v* come from all-pairs shortest paths on the
empty-cell graph with edge weights -log v (zero-value pairs contribute no
edge), so v*(s, s'') = exp(-distance).  Optimal plans are rebuilt from the
predecessor matrix.  A stochastic test policy with exact finite-horizon
absorption probabilities provides graded values strictly between 0 and 1,
which the binary pi0 values cannot.  Everything here is exact by
construction and kept independent of the planner internals so it can serve
as the test suite's reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

from subplan.gridworld import Maze, StateId, Task, bfs_distances, execute_plan, low_level_matrix
from subplan.planner import Plan

MAX_ORACLE_CELLS = 400


@dataclass
class ValueTable:
    """All-pairs v* over empty cells (row-major order)."""

    cells: tuple[StateId, ...]
    index: dict[StateId, int]
    values: np.ndarray  # (n, n) v*(i, j)
    predecessors: np.ndarray  # (n, n) int: scipy predecessor matrix
    lowlevel: np.ndarray  # (n, n) pairwise low-level values (edge weights)

    def value(self, s: StateId, s_prime: StateId) -> float:
        return float(self.values[self.index[s], self.index[s_prime]])

    def export_text(self) -> str:
        """Matrix rows of 9-decimal values, row/col in row-major cell order."""
        lines = [" ".join(f"{x:.9f}" for x in row) for row in self.values]
        return "\n".join(lines) + "\n"


def _guard_size(maze: Maze) -> None:
    if len(maze.empty_cells) > MAX_ORACLE_CELLS:
        raise ValueError(
            f"exact oracle limited to {MAX_ORACLE_CELLS} empty cells; "
            "use monte_carlo_success for larger instances"
        )


def exact_value_table(task: Task, low_level_value) -> ValueTable:
    """All-pairs v* for the task's maze under the given low-level value.

    low_level_value may be a LowLevelPolicy or a callable (maze, s, s') ->
    probability.
    """
    maze = task.maze
    _guard_size(maze)
    w = low_level_matrix(maze, low_level_value)
    with np.errstate(divide="ignore"):
        dist = -np.log(w)  # w = 0 becomes inf, the no-edge sentinel
    graph = csgraph_from_dense(dist, null_value=np.inf)
    d, pred = floyd_warshall(graph, directed=True, return_predecessors=True)
    values = np.exp(-d)
    return ValueTable(
        cells=maze.empty_cells,
        index=dict(maze.empty_index),
        values=values,
        predecessors=pred,
        lowlevel=w,
    )


def optimal_plan(task: Task, table: ValueTable) -> Plan:
    """Argmax plan reconstructed from the table's predecessor chains."""
    if task.start not in table.index or task.goal not in table.index:
        raise ValueError("value table does not cover the task")
    i = table.index[task.start]
    j = table.index[task.goal]
    if i == j:
        return Plan((task.start, task.goal), 1.0)
    if table.values[i, j] == 0.0:
        return Plan((task.start, task.goal), 0.0, infeasible=True)
    rev = [j]
    while rev[-1] != i:
        prev = int(table.predecessors[i, rev[-1]])
        if prev < 0:
            return Plan((task.start, task.goal), 0.0, infeasible=True)
        rev.append(prev)
    idxs = rev[::-1]
    sigma = tuple(table.cells[k] for k in idxs)
    objective = 1.0
    for a, b in zip(idxs, idxs[1:]):
        objective *= float(table.lowlevel[a, b])
    return Plan(sigma, objective)


def _absorption_vector(maze: Maze, policy, subgoal: StateId, horizon: int) -> np.ndarray:
    """P(reach subgoal within horizon steps | start cell), for every cell."""
    cells = maze.empty_cells
    index = maze.empty_index
    n = len(cells)
    g = index[subgoal]
    T = np.zeros((n, n))
    for i, s in enumerate(cells):
        if i == g:
            T[i, i] = 1.0
            continue
        for t, p in policy.transition_distribution(maze, s, subgoal):
            T[i, index[t]] += p
    p = np.zeros(n)
    p[g] = 1.0
    for _ in range(horizon):
        p = T @ p
        p[g] = 1.0
    return p


def exact_policy_value(
    maze: Maze, policy, s: StateId, subgoal: StateId, horizon: int | None = None
) -> float:
    """Exact P(policy reaches subgoal from s within the horizon)."""
    _guard_size(maze)
    h = horizon if horizon is not None else 4 * len(maze.empty_cells)
    if s == subgoal:
        return 1.0
    return float(_absorption_vector(maze, policy, subgoal, h)[maze.empty_index[s]])


class StochasticTestPolicy:
    """With probability 1-epsilon step along a shortest path to the
    sub-goal (first minimizer in the fixed neighbor order), otherwise step
    to a uniformly random empty neighbor.

    value() is the exact finite-horizon absorption probability (horizon
    value_horizon, default 4x the empty-cell count), computed by the same
    dynamic program as exact_policy_value, so planner values and rollout
    statistics can never drift apart.
    """

    def __init__(self, epsilon: float, value_horizon: int | None = None):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self.value_horizon = value_horizon
        self._bfs_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._value_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- shortest-path stepping ----------------------------------------------

    def _dist_to(self, maze: Maze, subgoal: StateId) -> dict[StateId, int]:
        per_maze = self._bfs_cache.setdefault(maze, {})
        if subgoal not in per_maze:
            per_maze[subgoal] = bfs_distances(maze, subgoal)
        return per_maze[subgoal]

    def _toward(self, maze: Maze, s: StateId, subgoal: StateId) -> StateId:
        options = maze.neighbors(s)
        if not options:
            return s
        dist = self._dist_to(maze, subgoal)
        big = len(maze.empty_cells) + 1
        best = options[0]
        best_d = dist.get(best, big)
        for t in options[1:]:
            d = dist.get(t, big)
            if d < best_d:
                best, best_d = t, d
        return best

    def step(self, rng, maze: Maze, s: StateId, subgoal: StateId) -> StateId:
        if s == subgoal:
            return s
        if rng.random() < self.epsilon:
            options = maze.neighbors(s)
            if not options:
                return s
            return options[int(rng.integers(len(options)))]
        return self._toward(maze, s, subgoal)

    def transition_distribution(
        self, maze: Maze, s: StateId, subgoal: StateId
    ) -> list[tuple[StateId, float]]:
        if s == subgoal:
            return [(s, 1.0)]
        options = maze.neighbors(s)
        if not options:
            return [(s, 1.0)]
        probs: dict[StateId, float] = {}
        probs[self._toward(maze, s, subgoal)] = 1.0 - self.epsilon
        share = self.epsilon / len(options)
        for t in options:
            probs[t] = probs.get(t, 0.0) + share
        return list(probs.items())

    # -- exact values ----------------------------------------------------------

    def _horizon(self, maze: Maze) -> int:
        return self.value_horizon if self.value_horizon is not None else 4 * len(
            maze.empty_cells
        )

    def _vector(self, maze: Maze, subgoal: StateId) -> np.ndarray:
        per_maze = self._value_cache.setdefault(maze, {})
        if subgoal not in per_maze:
            per_maze[subgoal] = _absorption_vector(maze, self, subgoal, self._horizon(maze))
        return per_maze[subgoal]

    def value(self, maze: Maze, s: StateId, s_prime: StateId) -> float:
        if s == s_prime:
            return 1.0
        return float(self._vector(maze, s_prime)[maze.empty_index[s]])

    def value_matrix(self, maze: Maze) -> np.ndarray:
        n = len(maze.empty_cells)
        out = np.empty((n, n))
        for j, g in enumerate(maze.empty_cells):
            out[:, j] = self._vector(maze, g)
            out[j, j] = 1.0
        return out


def monte_carlo_success(
    rng, task: Task, plan, policy, trials: int, step_limit: int
) -> tuple[float, float]:
    """Empirical success rate of executing the plan, with binomial stderr."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    wins = 0
    for _ in range(trials):
        wins += execute_plan(rng, task, plan, step_limit, policy).reached_goal
    rate = wins / trials
    stderr = (rate * (1.0 - rate) / trials) ** 0.5
    return rate, stderr


def exact_plan_success(task: Task, plan, policy, step_limit: int) -> float:
    """Exact success probability of execute_plan on the composed sub-goal
    chain, by dynamic programming over (cell, sub-goal pointer) states with
    the executor's pointer semantics."""
    maze = task.maze
    _guard_size(maze)
    cells = maze.empty_cells
    index = maze.empty_index
    n = len(cells)
    plan = list(plan)
    L = len(plan)
    goal_i = index[task.goal]

    def advance(i: int, ptr: int) -> int:
        while ptr < L and index[plan[ptr]] == i:
            ptr += 1
        return ptr

    # transition rows toward each sub-goal pointer target
    rows: dict[tuple[int, int], np.ndarray] = {}

    def row(i: int, ptr: int) -> np.ndarray:
        if (i, ptr) not in rows:
            r = np.zeros(n)
            for t, p in policy.transition_distribution(maze, cells[i], plan[ptr]):
                r[index[t]] += p
            rows[(i, ptr)] = r
        return rows[(i, ptr)]

    # f[t][i, ptr] = P(success | at cell i, raw pointer ptr, t steps left)
    f = np.zeros((n, L + 1))
    f[goal_i, :] = 1.0
    for _ in range(step_limit):
        nxt = np.zeros((n, L + 1))
        nxt[goal_i, :] = 1.0
        for ptr in range(L + 1):
            for i in range(n):
                if i == goal_i:
                    continue
                p = advance(i, ptr)
                if p >= L:
                    continue
                nxt[i, ptr] = row(i, p) @ f[:, p]
        f = nxt
    if task.start == task.goal:
        return 1.0
    return float(f[index[task.start], 1])


class ExactHeuristics:
    """Search heuristics read off an exact ValueTable: v_hat = v*, prior
    proportional to v*(s,x)·v*(x,s'') with the ∅ entry weighted by the
    low-level value of the whole sub-task."""

    def __init__(self, table: ValueTable):
        self.table = table
        rc = np.array(table.cells, dtype=np.int64).reshape(-1, 2)
        # table index of each cell of the table's bounding grid, -1 elsewhere
        self._grid = np.full(tuple(rc.max(axis=0, initial=-1) + 1), -1, dtype=np.int64)
        self._grid[rc[:, 0], rc[:, 1]] = np.arange(len(rc))

    def values(self, maze: Maze, pairs: np.ndarray) -> np.ndarray:
        """v* of each (r1, c1, r2, c2) row; a cell that is not one of the
        table's cells (a wall, or off the board) is a ValueError."""
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2, 2)
        rows, cols = ends[:, :, 0], ends[:, :, 1]
        height, width = self._grid.shape
        on = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        idx = np.full(rows.shape, -1)
        idx[on] = self._grid[rows[on], cols[on]]
        if (idx < 0).any():
            r, c = ends[idx < 0][0]
            raise ValueError(f"cell ({r}, {c}) is not an empty cell of the value table")
        return self.table.values[idx[:, 0], idx[:, 1]]

    def prior(self, task: Task, key, candidates) -> np.ndarray:
        i = self.table.index[key.s]
        j = self.table.index[key.s2]
        w = np.empty(len(candidates))
        w[0] = self.table.lowlevel[i, j]
        w[1:] = self.table.values[i, :] * self.table.values[:, j]
        total = w.sum()
        if total <= 0:
            return np.full(len(candidates), 1.0 / len(candidates))
        return w / total
