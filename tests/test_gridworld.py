"""Tests for maze generation, the pi0 policy, encoding, and plan execution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subplan.gridworld import (
    DIRS,
    EMPTY,
    WALL,
    Maze,
    Pi0,
    StateId,
    Task,
    _carve_perfect,
    decode_task,
    encode_task,
    execute_plan,
    generate_maze,
    low_level_step_pi0,
    low_level_value_pi0,
    parse_maze,
    perfect_wall_count,
    sample_task,
    serialize_maze,
)

# ---------------------------------------------------------------------------
# independent reference helpers (deliberately not reusing library internals)


def flood_fill(cells: np.ndarray, start: tuple[int, int]) -> set[tuple[int, int]]:
    h, w = cells.shape
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < h and 0 <= cc < w and cells[rr, cc] == EMPTY:
                if (rr, cc) not in seen:
                    seen.add((rr, cc))
                    stack.append((rr, cc))
    return seen


def empty_set(cells: np.ndarray) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in np.argwhere(cells == EMPTY)}


def count_empty_edges(cells: np.ndarray) -> int:
    h, w = cells.shape
    edges = 0
    for r in range(h):
        for c in range(w):
            if cells[r, c] != EMPTY:
                continue
            if r + 1 < h and cells[r + 1, c] == EMPTY:
                edges += 1
            if c + 1 < w and cells[r, c + 1] == EMPTY:
                edges += 1
    return edges


def open_maze(width: int, height: int) -> Maze:
    return generate_maze(width, height, 0.0, seed=0)


# ---------------------------------------------------------------------------
# generation


def test_density_zero_has_no_interior_walls():
    maze = generate_maze(5, 5, 0.0, seed=1)
    interior = maze.cells[1:-1, 1:-1]
    assert np.all(interior == EMPTY)
    # border is all walls
    assert np.all(maze.cells[0, :] == WALL)
    assert np.all(maze.cells[-1, :] == WALL)
    assert np.all(maze.cells[:, 0] == WALL)
    assert np.all(maze.cells[:, -1] == WALL)


def test_density_one_is_perfect_maze():
    # a perfect maze's empty-cell graph is a tree: connected with |E|=|V|-1
    maze = generate_maze(21, 21, 1.0, seed=7)
    empties = empty_set(maze.cells)
    assert flood_fill(maze.cells, next(iter(empties))) == empties
    assert count_empty_edges(maze.cells) == len(empties) - 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("density", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_generated_mazes_connected(seed, density):
    maze = generate_maze(9, 7, density, seed=seed)
    empties = empty_set(maze.cells)
    assert len(empties) >= 2
    assert flood_fill(maze.cells, next(iter(empties))) == empties


def knock_down_reference(width: int, height: int, density: float, seed: int) -> np.ndarray:
    """generate_maze with its knock-down step as a per-wall scan: every
    round lists the interior walls with an empty 4-neighbor in row-major
    order and draws one of them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = np.full((height, width), WALL, dtype=np.uint8)
    _carve_perfect(cells, width, height, rng)
    target = round(density * perfect_wall_count(width, height))
    while np.sum(cells[1:-1, 1:-1] == WALL) > target:
        eligible = [
            (r, c)
            for r, c in np.argwhere(cells == WALL)
            if 0 < r < height - 1 and 0 < c < width - 1
            and any(0 <= r + dr < height and 0 <= c + dc < width
                    and cells[r + dr, c + dc] == EMPTY for dr, dc in DIRS)
        ]
        r, c = eligible[int(rng.integers(len(eligible)))]
        cells[r, c] = EMPTY
    return cells


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(3, 20),
    height=st.integers(3, 13),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_generation_matches_per_wall_scan(width, height, density, seed):
    expected = knock_down_reference(width, height, density, seed)
    try:
        maze = generate_maze(width, height, density, seed=seed)
    except ValueError:
        assert np.sum(expected == EMPTY) < 2
        return
    assert np.array_equal(maze.cells, expected)


def test_density_interpolates_wall_count():
    w1 = perfect_wall_count(11, 11)
    for d in (0.0, 0.25, 0.5, 0.75, 1.0):
        maze = generate_maze(11, 11, d, seed=3)
        interior_walls = int(np.sum(maze.cells[1:-1, 1:-1] == WALL))
        assert interior_walls == round(d * w1)


def test_generation_deterministic():
    a = generate_maze(13, 9, 0.6, seed=42)
    b = generate_maze(13, 9, 0.6, seed=42)
    assert np.array_equal(a.cells, b.cells)
    c = generate_maze(13, 9, 0.6, seed=43)
    assert not np.array_equal(a.cells, c.cells)


def test_generation_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_maze(2, 5, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_maze(5, 5, 1.5, seed=0)


# ---------------------------------------------------------------------------
# the cell table


def test_cell_table_open_3x3():
    maze = generate_maze(5, 5, 0.0, seed=0)  # 3x3 open interior
    rows_cols = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    assert maze.coords.dtype == np.int64 and maze.coords.shape == (9, 2)
    assert [tuple(rc) for rc in maze.coords.tolist()] == rows_cols
    assert maze.empty_cells == tuple(StateId(r, c) for r, c in rows_cols)
    want = np.full((5, 5), -1)
    want[1:4, 1:4] = np.arange(9).reshape(3, 3)
    assert maze.index_grid.dtype == np.int64
    assert np.array_equal(maze.index_grid, want)
    for table in (maze.coords, maze.index_grid):
        with pytest.raises(ValueError):
            table[0, 0] = 5


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_cell_table_matches_the_loop_form(height, width, density, seed):
    cells = (np.random.default_rng(seed).random((height, width)) < density).astype(np.uint8)
    maze = Maze(width, height, cells, density, seed)
    empties = [StateId(r, c) for r in range(height) for c in range(width) if cells[r, c] == EMPTY]
    assert maze.empty_cells == tuple(empties)
    assert maze.coords.tolist() == [list(s) for s in empties]
    assert maze.empty_index == {s: k for k, s in enumerate(empties)}
    for r in range(height):
        for c in range(width):
            k = empties.index(StateId(r, c)) if cells[r, c] == EMPTY else -1
            assert maze.index_grid[r, c] == k
    same = Maze(width, height, cells.copy(), density, seed)
    assert np.array_equal(same.coords, maze.coords)
    assert np.array_equal(same.index_grid, maze.index_grid)


# ---------------------------------------------------------------------------
# task sampling


def test_sample_task_two_cell_support():
    cells = np.full((3, 4), WALL, dtype=np.uint8)
    cells[1, 1] = EMPTY
    cells[1, 2] = EMPTY
    maze = Maze(4, 3, cells, 1.0, 0)
    for seed in range(5):
        task = sample_task(maze, seed)
        assert {task.start, task.goal} == {StateId(1, 1), StateId(1, 2)}


def test_sample_task_deterministic_and_distinct():
    maze = generate_maze(7, 7, 0.5, seed=5)
    t1 = sample_task(maze, 11)
    t2 = sample_task(maze, 11)
    assert t1.start == t2.start and t1.goal == t2.goal
    assert t1.start != t1.goal


def test_sample_task_uniform_start():
    maze = open_maze(5, 5)
    n = len(maze.empty_cells)
    counts = {s: 0 for s in maze.empty_cells}
    draws = 10_000
    for seed in range(draws):
        counts[sample_task(maze, seed).start] += 1
    p = 1.0 / n
    sigma = (draws * p * (1 - p)) ** 0.5
    for s, k in counts.items():
        assert abs(k - draws * p) < 5 * sigma


def test_sample_task_needs_two_cells():
    cells = np.full((3, 3), WALL, dtype=np.uint8)
    cells[1, 1] = EMPTY
    with pytest.raises(ValueError):
        sample_task(Maze(3, 3, cells, 1.0, 0), 0)


# ---------------------------------------------------------------------------
# encoding


def test_encode_open_grid_labels():
    maze = open_maze(3 + 2, 3 + 2)
    # use a 3x3 open interior: start and goal at interior corners
    task = Task(maze, StateId(1, 1), StateId(3, 3))
    enc = encode_task(task)
    vals, counts = np.unique(enc, return_counts=True)
    by = dict(zip(vals.tolist(), counts.tolist()))
    assert by[2] == 1 and by[3] == 1
    assert by[0] == 9 - 2  # seven interior cells remain plain empty


def test_encode_wall_count_matches():
    maze = generate_maze(9, 9, 0.7, seed=2)
    task = sample_task(maze, 1)
    enc = encode_task(task)
    assert int(np.sum(enc == WALL)) == int(np.sum(maze.cells == WALL))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_encode_decode_round_trip(seed):
    maze = generate_maze(7, 6, 0.5, seed=seed)
    task = sample_task(maze, seed + 1)
    back = decode_task(encode_task(task))
    assert back.start == task.start and back.goal == task.goal
    assert np.array_equal(back.maze.cells, maze.cells)


# ---------------------------------------------------------------------------
# pi0 value and step


def test_pi0_value_adjacent_and_far():
    maze = open_maze(5, 5)
    assert low_level_value_pi0(maze, StateId(1, 1), StateId(1, 2)) == 1.0
    assert low_level_value_pi0(maze, StateId(1, 1), StateId(3, 3)) == 0.0
    assert low_level_value_pi0(maze, StateId(1, 1), StateId(1, 1)) == 1.0


def test_pi0_value_wall_is_error():
    maze = open_maze(5, 5)
    with pytest.raises(ValueError):
        low_level_value_pi0(maze, StateId(0, 0), StateId(1, 1))
    with pytest.raises(ValueError):
        low_level_value_pi0(maze, StateId(1, 1), StateId(0, 0))


def test_pi0_value_symmetric():
    maze = generate_maze(7, 7, 0.8, seed=9)
    empties = maze.empty_cells
    for s in empties:
        for t in empties:
            assert low_level_value_pi0(maze, s, t) == low_level_value_pi0(maze, t, s)


def test_pi0_step_takes_adjacent_subgoal():
    maze = open_maze(5, 5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert low_level_step_pi0(rng, maze, StateId(2, 2), StateId(2, 3)) == StateId(2, 3)


def test_pi0_step_uniform_when_far():
    maze = open_maze(5, 5)
    rng = np.random.default_rng(1)
    s = StateId(1, 1)  # corner of the interior: two empty neighbors
    neighbors = maze.neighbors(s)
    assert len(neighbors) == 2
    counts = {t: 0 for t in neighbors}
    draws = 10_000
    for _ in range(draws):
        counts[low_level_step_pi0(rng, maze, s, StateId(3, 3))] += 1
    p = 1 / len(neighbors)
    sigma = (draws * p * (1 - p)) ** 0.5
    for k in counts.values():
        assert abs(k - draws * p) < 5 * sigma


def test_pi0_step_single_exit():
    cells = np.full((3, 5), WALL, dtype=np.uint8)
    cells[1, 1] = EMPTY
    cells[1, 2] = EMPTY
    cells[1, 3] = EMPTY
    maze = Maze(5, 3, cells, 1.0, 0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert low_level_step_pi0(rng, maze, StateId(1, 1), StateId(1, 3)) == StateId(1, 2)


# ---------------------------------------------------------------------------
# plan execution


def test_execute_adjacent_chain_deterministic():
    maze = open_maze(6, 6)
    plan = [StateId(1, 1), StateId(1, 2), StateId(2, 2), StateId(3, 2), StateId(3, 3)]
    task = Task(maze, plan[0], plan[-1])
    rng = np.random.default_rng(3)
    traj = execute_plan(rng, task, plan, step_limit=50)
    assert traj.reached_goal
    assert traj.steps == len(plan) - 1
    assert list(traj.states) == plan


def test_execute_far_goal_one_step_fails():
    maze = open_maze(7, 7)
    task = Task(maze, StateId(1, 1), StateId(5, 5))
    fails = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        traj = execute_plan(rng, task, [task.start, task.goal], step_limit=1)
        fails += not traj.reached_goal
    assert fails == 50  # goal is 8 steps away; one step can never reach it


def test_execute_transitions_adjacent_or_equal():
    maze = generate_maze(9, 9, 0.5, seed=4)
    task = sample_task(maze, 2)
    rng = np.random.default_rng(5)
    traj = execute_plan(rng, task, [task.start, task.goal], step_limit=200)
    for a, b in zip(traj.states, traj.states[1:]):
        assert a == b or abs(a.row - b.row) + abs(a.col - b.col) == 1
    assert traj.reached_goal == (task.goal in traj.states)
    assert traj.steps == len(traj.states) - 1


def test_execute_respects_step_limit():
    maze = open_maze(9, 9)
    task = Task(maze, StateId(1, 1), StateId(7, 7))
    rng = np.random.default_rng(6)
    traj = execute_plan(rng, task, [task.start, task.goal], step_limit=5)
    assert traj.steps <= 5


def test_execute_stops_when_goal_crossed_midway():
    # the goal lies on the straight corridor to the next sub-goal
    cells = np.full((3, 6), WALL, dtype=np.uint8)
    cells[1, 1:5] = EMPTY
    maze = Maze(6, 3, cells, 1.0, 0)
    task = Task(maze, StateId(1, 1), StateId(1, 3))
    plan = [StateId(1, 1), StateId(1, 2), StateId(1, 3), StateId(1, 4)]
    rng = np.random.default_rng(7)
    traj = execute_plan(rng, task, plan, step_limit=10)
    assert traj.reached_goal
    assert traj.states[-1] == task.goal


# ---------------------------------------------------------------------------
# text format


def test_maze_format_round_trip_exact():
    maze = generate_maze(11, 8, 0.75, seed=13)
    task = sample_task(maze, 3)
    text = serialize_maze(maze, task.start, task.goal)
    parsed, start, goal = parse_maze(text)
    assert start == task.start and goal == task.goal
    assert np.array_equal(parsed.cells, maze.cells)
    assert serialize_maze(parsed, start, goal) == text


def test_maze_format_no_task_round_trip():
    maze = generate_maze(5, 5, 1.0, seed=1)
    text = serialize_maze(maze)
    parsed, start, goal = parse_maze(text)
    assert start is None and goal is None
    assert serialize_maze(parsed) == text


def test_maze_format_header_and_shape():
    maze = generate_maze(5, 4, 0.0, seed=0)
    text = serialize_maze(maze)
    lines = text.splitlines()
    assert lines[0] == "maze v1 5 4"
    assert len(lines) == 1 + 4
    assert all(len(line) == 5 for line in lines[1:])


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "maze v2 3 3\n###\n#.#\n###\n",
        "maze v1 3 3\n###\n#.#\n",
        "maze v1 3 3\n###\n#x#\n###\n",
        "maze v1 4 3\n####\n#SS#\n####\n",
        "maze v1 5 3\n#####\n#.#.#\n#####\n",  # disconnected
        "maze v1 3 3\n###\n###\n###\n",  # no empty cells
    ],
)
def test_maze_format_rejects_invalid(bad):
    with pytest.raises(ValueError):
        parse_maze(bad)


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_maze_round_trip_property(seed, density):
    maze = generate_maze(8, 7, density, seed=seed)
    text = serialize_maze(maze)
    parsed, _, _ = parse_maze(text)
    assert serialize_maze(parsed) == text
    empties = empty_set(parsed.cells)
    assert flood_fill(parsed.cells, next(iter(empties))) == empties
