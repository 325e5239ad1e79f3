"""Grid-world mazes, goal-directed tasks, and the myopic low-level policy.

States are cells of a rectangular grid whose border is always walls.  Mazes
are generated by carving a perfect maze and then knocking down a seeded
random subset of interior walls until the wall count matches the requested
density, keeping the empty cells connected throughout.

The hard-coded low-level policy ``pi0`` moves to a sub-goal directly when it
is 4-adjacent and otherwise performs a uniform random walk over empty cells.
Its exact value is therefore 1 for adjacent (or identical) cell pairs and 0
for everything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Protocol, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

EMPTY = 0
WALL = 1
START = 2
GOAL = 3

# Fixed neighbor order (up, down, left, right); all uniform choices index it.
DIRS = ((-1, 0), (1, 0), (0, -1), (0, 1))


class StateId(NamedTuple):
    row: int
    col: int


@dataclass(eq=False)
class Maze:
    width: int
    height: int
    cells: np.ndarray  # (height, width) uint8, EMPTY or WALL
    density: float
    seed: int

    def in_bounds(self, s: StateId) -> bool:
        return 0 <= s.row < self.height and 0 <= s.col < self.width

    def is_empty(self, s: StateId) -> bool:
        return self.in_bounds(s) and self.cells[s.row, s.col] == EMPTY

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (n, 2) int64 (row, col) of the empty cells, row-major."""
        coords = np.argwhere(self.cells == EMPTY).astype(np.int64)
        coords.flags.writeable = False
        return coords

    @cached_property
    def empty_cells(self) -> tuple[StateId, ...]:
        """All empty cells in row-major order."""
        return tuple(map(StateId, *self.coords.T.tolist()))

    @cached_property
    def empty_index(self) -> dict[StateId, int]:
        """Row-major index of each empty cell."""
        return {s: i for i, s in enumerate(self.empty_cells)}

    @cached_property
    def index_grid(self) -> np.ndarray:
        """Read-only (height, width) int64: the row-major index of each empty
        cell, -1 on the walls."""
        grid = np.full(self.cells.shape, -1, dtype=np.int64)
        grid[self.coords[:, 0], self.coords[:, 1]] = np.arange(len(self.coords))
        grid.flags.writeable = False
        return grid

    def neighbors(self, s: StateId) -> tuple[StateId, ...]:
        """Empty 4-neighbors of s in the fixed direction order."""
        out = []
        for dr, dc in DIRS:
            t = StateId(s.row + dr, s.col + dc)
            if self.is_empty(t):
                out.append(t)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Maze):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.cells, other.cells)
        )

    def __hash__(self) -> int:
        # content hash so equal mazes share cache entries; cells are never
        # mutated after construction
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.width, self.height, self.cells.tobytes()))
            self.__dict__["_hash"] = h
        return h


class Task(NamedTuple):
    maze: Maze
    start: StateId
    goal: StateId


@dataclass(frozen=True)
class Trajectory:
    states: tuple[StateId, ...]
    reached_goal: bool
    steps: int


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for the stream (seed, key...), independent of every
    other key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def format_cell(s: StateId) -> str:
    """Text form `row,col` of a cell."""
    return f"{s.row},{s.col}"


def parse_cell(text: str) -> StateId:
    """Inverse of format_cell; raises ValueError on anything else."""
    r, c = text.split(",")
    return StateId(int(r), int(c))


def adjacent(s: StateId, t: StateId) -> bool:
    return abs(s.row - t.row) + abs(s.col - t.col) == 1


def _interior_mask(width: int, height: int) -> np.ndarray:
    m = np.zeros((height, width), dtype=bool)
    m[1 : height - 1, 1 : width - 1] = True
    return m


def _lattice_nodes(width: int, height: int) -> list[StateId]:
    return [
        StateId(r, c)
        for r in range(1, height - 1, 2)
        for c in range(1, width - 1, 2)
    ]


def perfect_wall_count(width: int, height: int) -> int:
    """Interior wall count of any perfect maze for these dimensions."""
    interior = (width - 2) * (height - 2)
    n_lattice = len(_lattice_nodes(width, height))
    return interior - (2 * n_lattice - 1)


def _carve_perfect(cells: np.ndarray, width: int, height: int, rng) -> None:
    """Recursive-backtracker maze over the odd-coordinate lattice."""
    nodes = _lattice_nodes(width, height)
    start = nodes[0]
    cells[start.row, start.col] = EMPTY
    stack = [start]
    visited = {start}
    while stack:
        cur = stack[-1]
        options = []
        for dr, dc in DIRS:
            nxt = StateId(cur.row + 2 * dr, cur.col + 2 * dc)
            if (
                1 <= nxt.row < height - 1
                and 1 <= nxt.col < width - 1
                and nxt not in visited
            ):
                options.append((nxt, StateId(cur.row + dr, cur.col + dc)))
        if not options:
            stack.pop()
            continue
        nxt, between = options[int(rng.integers(len(options)))]
        cells[between.row, between.col] = EMPTY
        cells[nxt.row, nxt.col] = EMPTY
        visited.add(nxt)
        stack.append(nxt)


def generate_maze(width: int, height: int, density: float, seed: int) -> Maze:
    """Generate a connected maze whose interior wall count interpolates
    between 0 (density 0) and a perfect maze (density 1)."""
    if width < 3 or height < 3:
        raise ValueError("maze dimensions must be at least 3x3")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = np.full((height, width), WALL, dtype=np.uint8)
    _carve_perfect(cells, width, height, rng)

    target = int(round(density * perfect_wall_count(width, height)))
    interior = _interior_mask(width, height)
    walls_left = int(np.sum((cells == WALL) & interior))
    while walls_left > target:
        # Interior walls with an empty 4-neighbor, in row-major order.  One
        # always exists while interior walls remain, so knocking one down
        # preserves connectivity.
        e = np.pad(cells == EMPTY, 1)
        near = e[:-2, 1:-1] | e[2:, 1:-1] | e[1:-1, :-2] | e[1:-1, 2:]
        eligible = np.argwhere((cells == WALL) & interior & near)
        r, c = eligible[int(rng.integers(len(eligible)))]
        cells[r, c] = EMPTY
        walls_left -= 1

    maze = Maze(width, height, cells, density, seed)
    if len(maze.empty_cells) < 2:
        raise ValueError("maze too small to host two distinct empty cells")
    return maze


def sample_task(maze: Maze, seed: int, min_dist: int | None = None) -> Task:
    """Start and goal drawn uniformly without replacement from empty cells.

    With min_dist, the pair is drawn uniformly from ordered pairs whose
    shortest-path separation is at least min(min_dist, the maze diameter),
    so a pair always exists."""
    empties = maze.empty_cells
    if len(empties) < 2:
        raise ValueError("need at least two empty cells to sample a task")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if min_dist is None:
        i, j = rng.choice(len(empties), size=2, replace=False)
        return Task(maze, empties[int(i)], empties[int(j)])
    dist = shortest_path(_empty_cell_graph(maze), directed=False, unweighted=True)
    reachable = np.isfinite(dist)
    floor = min(min_dist, dist[reachable].max())
    # row-major (start, goal) order over the row-major empty cells
    starts, goals = np.nonzero(reachable & (dist >= floor) & ~np.eye(len(empties), dtype=bool))
    pick = int(rng.integers(len(starts)))
    return Task(maze, empties[starts[pick]], empties[goals[pick]])


def _empty_cell_graph(maze: Maze) -> csr_matrix:
    """4-adjacency between empty cells, indexed in row-major order."""
    index = maze.index_grid
    a = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
    b = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
    edge = (a >= 0) & (b >= 0)
    n = len(maze.coords)
    return csr_matrix((np.ones(int(edge.sum())), (a[edge], b[edge])), shape=(n, n))


def encode_task(task: Task) -> np.ndarray:
    """Categorical (height, width) grid with empty/wall/start/goal labels."""
    enc = task.maze.cells.astype(np.uint8).copy()
    enc[task.start.row, task.start.col] = START
    enc[task.goal.row, task.goal.col] = GOAL
    return enc


def decode_task(encoding: np.ndarray, density: float = 0.0, seed: int = -1) -> Task:
    """Inverse of encode_task; density/seed are metadata not recoverable
    from the encoding."""
    enc = np.asarray(encoding)
    starts = np.argwhere(enc == START)
    goals = np.argwhere(enc == GOAL)
    if len(starts) != 1 or len(goals) != 1:
        raise ValueError("encoding must contain exactly one start and one goal")
    cells = np.where(enc == WALL, WALL, EMPTY).astype(np.uint8)
    height, width = cells.shape
    maze = Maze(int(width), int(height), cells, density, seed)
    return Task(maze, StateId(*map(int, starts[0])), StateId(*map(int, goals[0])))


def low_level_value_pi0(maze: Maze, s: StateId, s_prime: StateId) -> float:
    """Exact success probability of pi0 for sub-task (s, s')."""
    if not maze.is_empty(s) or not maze.is_empty(s_prime):
        raise ValueError("pi0 value queried on a wall cell")
    if s == s_prime or adjacent(s, s_prime):
        return 1.0
    return 0.0


def low_level_step_pi0(rng, maze: Maze, s: StateId, subgoal: StateId) -> StateId:
    """One pi0 step: take an adjacent sub-goal, otherwise move randomly."""
    if subgoal != s and adjacent(s, subgoal) and maze.is_empty(subgoal):
        return subgoal
    options = maze.neighbors(s)
    if not options:
        return s
    return options[int(rng.integers(len(options)))]


class LowLevelPolicy(Protocol):
    """Interface the planner and executor need from a low-level policy."""

    def value(self, maze: Maze, s: StateId, s_prime: StateId) -> float: ...

    def step(self, rng, maze: Maze, s: StateId, subgoal: StateId) -> StateId: ...


class Pi0:
    """The hard-coded myopic policy as a LowLevelPolicy object."""

    def value(self, maze: Maze, s: StateId, s_prime: StateId) -> float:
        return low_level_value_pi0(maze, s, s_prime)

    def step(self, rng, maze: Maze, s: StateId, subgoal: StateId) -> StateId:
        return low_level_step_pi0(rng, maze, s, subgoal)

    def value_matrix(self, maze: Maze) -> np.ndarray:
        """All-pairs values over empty cells in row-major order."""
        coords = maze.coords
        dist = np.abs(coords[:, None, 0] - coords[None, :, 0]) + np.abs(
            coords[:, None, 1] - coords[None, :, 1]
        )
        return (dist <= 1).astype(float)

    def transition_distribution(
        self, maze: Maze, s: StateId, subgoal: StateId
    ) -> list[tuple[StateId, float]]:
        """Exact next-state distribution of step(), for dynamic programming."""
        if subgoal != s and adjacent(s, subgoal) and maze.is_empty(subgoal):
            return [(subgoal, 1.0)]
        options = maze.neighbors(s)
        if not options:
            return [(s, 1.0)]
        p = 1.0 / len(options)
        return [(t, p) for t in options]


def low_level_matrix(maze: Maze, low_level) -> np.ndarray:
    """All-pairs low-level values over empty cells in row-major order.

    low_level may be a policy with a value_matrix method, a policy with a
    value method, or a callable (maze, s, s') -> probability.
    """
    if hasattr(low_level, "value_matrix"):
        return np.asarray(low_level.value_matrix(maze), dtype=float)
    fn = low_level.value if hasattr(low_level, "value") else low_level
    cells = maze.empty_cells
    out = np.empty((len(cells), len(cells)))
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            out[i, j] = fn(maze, a, b)
    return out


def execute_plan(
    rng,
    task: Task,
    plan: Sequence[StateId],
    step_limit: int,
    policy: LowLevelPolicy | None = None,
) -> Trajectory:
    """Run the low-level policy along the plan's sub-goals.

    The policy is conditioned on the first plan entry not yet reached; the
    episode ends on reaching the goal, exhausting the step limit, or running
    out of sub-goals.
    """
    if step_limit < 1:
        raise ValueError("step_limit must be at least 1")
    pol = policy if policy is not None else Pi0()
    maze = task.maze
    cur = task.start
    states = [cur]
    reached = cur == task.goal
    ptr = 1
    while not reached and len(states) - 1 < step_limit:
        while ptr < len(plan) and plan[ptr] == cur:
            ptr += 1
        if ptr >= len(plan):
            break
        cur = pol.step(rng, maze, cur, plan[ptr])
        states.append(cur)
        if cur == task.goal:
            reached = True
    return Trajectory(tuple(states), reached, len(states) - 1)


def serialize_maze(maze: Maze, start: StateId | None = None, goal: StateId | None = None) -> str:
    """Text form: header line, then one row per line of #/./S/G."""
    chars = {EMPTY: ".", WALL: "#"}
    lines = [f"maze v1 {maze.width} {maze.height}"]
    for r in range(maze.height):
        row = []
        for c in range(maze.width):
            s = StateId(r, c)
            if start is not None and s == start:
                row.append("S")
            elif goal is not None and s == goal:
                row.append("G")
            else:
                row.append(chars[int(maze.cells[r, c])])
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def parse_maze(text: str) -> tuple[Maze, StateId | None, StateId | None]:
    """Inverse of serialize_maze; validates the maze invariants."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty maze text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "maze" or head[1] != "v1":
        raise ValueError(f"bad maze header: {lines[0]!r}")
    width, height = int(head[2]), int(head[3])
    body = lines[1:]
    if len(body) != height:
        raise ValueError(f"expected {height} rows, found {len(body)}")
    cells = np.full((height, width), WALL, dtype=np.uint8)
    start = goal = None
    for r, line in enumerate(body):
        if len(line) != width:
            raise ValueError(f"row {r} has length {len(line)}, expected {width}")
        for c, ch in enumerate(line):
            if ch == "#":
                continue
            cells[r, c] = EMPTY
            if ch == "S":
                if start is not None:
                    raise ValueError("multiple start cells")
                start = StateId(r, c)
            elif ch == "G":
                if goal is not None:
                    raise ValueError("multiple goal cells")
                goal = StateId(r, c)
            elif ch != ".":
                raise ValueError(f"bad maze character {ch!r}")
    w1 = perfect_wall_count(width, height)
    interior_walls = int(np.sum((cells == WALL) & _interior_mask(width, height)))
    density = min(1.0, interior_walls / w1) if w1 > 0 else 0.0
    maze = Maze(width, height, cells, density, -1)
    empties = maze.empty_cells
    if len(empties) < 2:
        raise ValueError("maze must contain at least two empty cells")
    if len(bfs_distances(maze, empties[0])) != len(empties):
        raise ValueError("empty cells are not connected")
    return maze, start, goal


def bfs_distances(maze: Maze, source: StateId) -> dict[StateId, int]:
    """Shortest-path step counts from source to every reachable empty cell."""
    dist = {source: 0}
    q = deque([source])
    while q:
        s = q.popleft()
        for t in maze.neighbors(s):
            if t not in dist:
                dist[t] = dist[s] + 1
                q.append(t)
    return dist


def default_step_limit(task: Task) -> int:
    """Execution horizon for a task: twice the start-goal shortest-path
    length.  Room enough for any reasonable plan, tight enough that blind
    wandering usually runs out; an unreachable goal falls back to the
    empty-cell count (the episode fails regardless)."""
    d = bfs_distances(task.maze, task.start).get(task.goal)
    if d is None:
        return len(task.maze.empty_cells)
    return max(1, 2 * d)
