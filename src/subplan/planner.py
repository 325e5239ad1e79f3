"""Divide-and-conquer MCTS over sub-goals, plan extraction, and baselines.

A traversal walks the AND/OR tree from the root task (start, goal).  A
sub-task that the low-level policy already solves (v_pi = 1) is terminal: it
returns 1.0 and is never expanded, visited or charged budget, since the
backup floor max(G, v_pi) pins its value at 1 anyway.  At any other
unexpanded node the traversal expands and returns the bootstrap
max(v_pi, v_hat); at an expanded node it selects a sub-goal by pUCT,
recurses into the two sub-tasks, multiplies their returns, floors the result
at the node's own low-level value, and folds it into the node's running
average.  Search stops when the budget is spent (``budget``), when every
reachable unsolved key is expanded (``key_cap``), or after
IDLE_TRAVERSAL_LIMIT traversals in a row without an expansion (``idle``).

Ties in Select break by a keyed hash of (seed, traversal, path key), so a
draw depends only on where in the search it happens.  Extraction splits only
tree keys, at mids with a child that is in the tree or solved outright (the
mask S = T | (v_pi == 1) of _Extractor), so a plan can end in solved
segments that search never expanded.

Modes:
  divide_and_conquer   traverse both children of the chosen split
  sequential_right     never recurse left: the left factor is v_pi(s, s'),
                       so plans grow as left-degenerate chains
  descend_left_first   traverse one child only: always the left
  descend_lower_value  traverse the child with the lower value estimate
  descend_two_way_uct  pick the child by a 2-way UCT score
In descend modes the sibling contributes its current value estimate to the
backup product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from subplan.gridworld import LowLevelPolicy, Pi0, StateId, Task, format_cell, low_level_matrix
from subplan.tree import (
    BudgetExhausted,
    OrKey,
    SearchTree,
    SubGoal,
    candidate_subgoals,
    expand_node,
    touch_and_node,
    update_or_stats,
)

MODES = (
    "divide_and_conquer",
    "sequential_right",
    "descend_left_first",
    "descend_lower_value",
    "descend_two_way_uct",
)

DESCEND_MODES = MODES[2:]

# Streak of traversals without an expansion after which search stops even
# with budget left (e.g. every reachable node is expanded on a tiny board).
IDLE_TRAVERSAL_LIMIT = 256

# v_hat is computed in blocks of this many pairs: one call on an 11×11 board
# at density 0.75 (57 cells, 3,249 pairs), bounded memory on large boards.
VHAT_BLOCK_PAIRS = 4096


class SearchHeuristics(Protocol):
    """What the planner needs from a heuristics provider."""

    def values(self, maze, pairs: np.ndarray) -> np.ndarray:
        """v_hat for (k, 4) int rows (r1, c1, r2, c2); values in [0, 1]."""
        ...

    def prior(self, task: Task, key: OrKey, candidates: Sequence[SubGoal]) -> np.ndarray:
        """Distribution over candidates (∅ first); sums to 1."""
        ...


@dataclass(frozen=True)
class PlannerConfig:
    budget: int
    max_depth: int = 8
    c_puct: float = 5.0
    mode: str = "divide_and_conquer"
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not (math.isfinite(self.c_puct) and self.c_puct >= 0):
            raise ValueError(f"c_puct must be finite and non-negative, got {self.c_puct!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Plan:
    sigma: tuple[StateId, ...]
    objective_L: float
    infeasible: bool = False


@dataclass
class SolutionNode:
    key: OrKey
    G: float
    terminal: bool
    chosen: SubGoal = None
    left: "SolutionNode | None" = None
    right: "SolutionNode | None" = None


@dataclass
class SolutionTree:
    root: SolutionNode

    def nodes(self) -> list[SolutionNode]:
        out: list[SolutionNode] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            out.append(n)
            if not n.terminal:
                stack.append(n.right)
                stack.append(n.left)
        return out  # pre-order

    def leaves(self) -> list[SolutionNode]:
        return [n for n in self.nodes() if n.terminal]


@dataclass
class PlanResult:
    plan: Plan
    solution_tree: SolutionTree
    returns: tuple[tuple[OrKey, float], ...]
    budget_used: int
    tree_stats: dict
    tree: SearchTree | None = None  # the search tree, for dumps and targets


def plan_objective(
    task: Task, sigma: Sequence[StateId], low_level: LowLevelPolicy | None = None
) -> float:
    """L(sigma): product of low-level values over consecutive pairs."""
    if len(sigma) < 2:
        raise ValueError("a plan needs at least start and goal")
    if sigma[0] != task.start or sigma[-1] != task.goal:
        raise ValueError("plan must run from task start to task goal")
    pol = low_level if low_level is not None else Pi0()
    out = 1.0
    for a, b in zip(sigma, sigma[1:]):
        out *= pol.value(task.maze, a, b)
    return out


class PlanningContext:
    """Per-search dense caches over the maze's n empty cells, indexed (i, j)
    for the sub-task (cells[i], cells[j]).

    The SearchTree is the one store of node statistics (V, N, and_counts).
    The constructor computes v_hat for all n² pairs, in row-major order and
    blocks of VHAT_BLOCK_PAIRS pairs, and writes every key's bootstrap
    max(v_pi, v_hat) into the fresh tree's V.  From then on V is each key's
    estimate: its bootstrap until it is expanded, its running mean after.
    No value depends on the order in which keys are first read.  The
    context's own caches:
      v_pi    low-level values, fixed
      priors  the heuristic prior of a key and c_puct times it, computed
              on first use (Select reads them only at a key with N ≥ 1)

    The constructor attaches the context to its tree (tree.context), so that
    extraction and training-target computation can score children exactly
    the way Select did.
    """

    def __init__(
        self,
        tree: SearchTree,
        task: Task,
        heuristics: SearchHeuristics,
        config: PlannerConfig,
        low_level: LowLevelPolicy | None = None,
    ):
        self.task = task
        self.maze = task.maze
        self.heuristics = heuristics
        self.config = config
        self.low_level = low_level if low_level is not None else Pi0()
        self.cells = self.maze.empty_cells
        if tree.cells != self.cells:
            raise ValueError("the tree's cells are not the maze's empty cells")
        if tree.and_counts:
            raise ValueError("the tree already has expanded keys")
        self.index = self.maze.empty_index
        self.n = n = len(self.cells)
        self.candidates = candidate_subgoals(self.maze)
        self.v_pi = low_level_matrix(self.maze, self.low_level)
        coords = np.array(self.cells, dtype=np.int64).reshape(n, 2)
        vhat = np.empty(n * n)
        for a in range(0, n * n, VHAT_BLOCK_PAIRS):
            i, j = np.divmod(np.arange(a, min(a + VHAT_BLOCK_PAIRS, n * n)), n)
            vhat[a : a + len(i)] = heuristics.values(self.maze, np.hstack([coords[i], coords[j]]))
        np.maximum(self.v_pi, vhat.reshape(n, n), out=tree.V)
        self._prior: dict[int, np.ndarray] = {}
        self._scaled_prior: dict[int, np.ndarray] = {}
        tree.context = self

    def kidx(self, key: OrKey) -> tuple[int, int]:
        return self.index[key.s], self.index[key.s2]

    def prior(self, i: int, j: int) -> np.ndarray:
        """The heuristic prior of the key (i, j) over the candidates (∅
        first), computed on first use."""
        f = i * self.n + j
        p = self._prior.get(f)
        if p is None:
            key = OrKey(self.cells[i], self.cells[j])
            p = np.asarray(self.heuristics.prior(self.task, key, self.candidates), dtype=float)
            self._prior[f] = p
        return p

    def scaled_prior(self, i: int, j: int) -> np.ndarray:
        """c_puct · prior of the key (i, j), for this context's c_puct."""
        f = i * self.n + j
        cp = self._scaled_prior.get(f)
        if cp is None:
            cp = self._scaled_prior[f] = self.config.c_puct * self.prior(i, j)
        return cp


TieFn = Callable[[int, int], int]  # (path_key, n_options) -> index


class _PathRng:
    """Generator-like adapter exposing .integers at a fixed position in the
    traversal: each tie draws from the stream of its own path key."""

    def __init__(self, tie_fn: TieFn, path_key: int):
        self._tie_fn = tie_fn
        self._path_key = path_key

    def integers(self, n: int) -> int:
        return self._tie_fn(self._path_key, int(n))


def _argmax_with_ties(score: np.ndarray, tie_fn: TieFn, path_key: int) -> int:
    """Index of the maximum score; equal maxima break uniformly at random
    with the tie stream of path_key."""
    k = int(score.argmax())
    if np.count_nonzero(score == score[k]) == 1:
        return k
    ties = np.flatnonzero(score == score[k])
    return int(ties[_PathRng(tie_fn, path_key).integers(len(ties))])


def selection_scores(tree: SearchTree, i: int, j: int, c_puct: float) -> np.ndarray:
    """pUCT score of every candidate of the expanded key (i, j), ∅ first:
    V(s,x)·V(x,s'') + c·p·√N/(1+N_and), exactly as Select sees it.

    The ∅ candidate's exploitation term is v_pi(s, s'') (it has no
    V-product), and in sequential_right mode the left factor is v_pi(s, x).
    An unexpanded child's V is its bootstrap max(v_pi, v_hat).
    """
    ctx = tree.context
    left = ctx.v_pi[i] if ctx.config.mode == "sequential_right" else tree.V[i]
    exploit = np.empty(ctx.n + 1)
    exploit[0] = ctx.v_pi[i, j]
    np.multiply(left, tree.V[:, j], out=exploit[1:])
    n = tree.N.item(i, j)
    if c_puct > 0 and n > 0:
        cp = ctx.scaled_prior(i, j) if c_puct == ctx.config.c_puct else c_puct * ctx.prior(i, j)
        exploit += cp * (math.sqrt(n) / (1.0 + tree.and_counts[i * ctx.n + j]))
    return exploit


def _child_stats(tree: SearchTree, i: int, j: int) -> tuple[float, int]:
    """(V, N) of the key (i, j); an unexpanded key has its bootstrap and 0."""
    return tree.V.item(i, j), tree.N.item(i, j)


def descend_one(mode: str, left_stats, right_stats, rng) -> str:
    """Pick the single branch to traverse under a descend_* mode.

    left_stats/right_stats are (V, N) of the two children.  two_way_uct
    scores branch i as (1 - V_i) + sqrt(2)·sqrt(ln(N_l + N_r + 1)/(1 + N_i))
    and descends the higher score.
    """
    if mode == "descend_left_first":
        return "left"
    vl, nl = left_stats
    vr, nr = right_stats
    if mode == "descend_lower_value":
        if vl < vr:
            return "left"
        if vr < vl:
            return "right"
        return "left" if rng.integers(2) == 0 else "right"
    if mode == "descend_two_way_uct":
        total = math.log(nl + nr + 1)
        sl = (1.0 - vl) + math.sqrt(2.0) * math.sqrt(total / (1.0 + nl))
        sr = (1.0 - vr) + math.sqrt(2.0) * math.sqrt(total / (1.0 + nr))
        if sl > sr:
            return "left"
        if sr > sl:
            return "right"
        return "left" if rng.integers(2) == 0 else "right"
    raise ValueError(f"not a descend mode: {mode!r}")


def _traverse(
    ctx: PlanningContext, tree: SearchTree, i: int, j: int, depth: int, path_key: int, tie_fn: TieFn
) -> float:
    """One traversal below the key (cells[i], cells[j]); returns its G.

    A key the low-level policy solves (v_pi = 1) returns 1.0 untouched.  The
    walk runs on cell indices.  The two sub-tasks of a split share
    transposition nodes and the budget counter, so the left one is
    traversed to completion before the right.  The children of path_key
    are 2·path_key (left) and 2·path_key + 1 (right).
    """
    v_pi = ctx.v_pi.item(i, j)
    if v_pi == 1.0:
        return 1.0
    if i * ctx.n + j not in tree.and_counts:
        try:
            expand_node(tree, i, j)
        except BudgetExhausted:
            pass  # no budget: bootstrap without expanding
        return tree.V.item(i, j)

    pick = _argmax_with_ties(selection_scores(tree, i, j, ctx.config.c_puct), tie_fn, path_key)
    touch_and_node(tree, i, j, pick)

    if pick == 0 or depth >= ctx.config.max_depth:
        G = v_pi
    else:
        x = pick - 1  # the cell index of the chosen sub-goal
        mode = ctx.config.mode
        if mode == "sequential_right":
            g_left = float(ctx.v_pi[i, x])
            g_right = _traverse(ctx, tree, x, j, depth + 1, 2 * path_key + 1, tie_fn)
        elif mode in DESCEND_MODES:
            branch = descend_one(
                mode,
                _child_stats(tree, i, x),
                _child_stats(tree, x, j),
                _PathRng(tie_fn, path_key + (1 << 30)),
            )
            if branch == "left":
                g_left = _traverse(ctx, tree, i, x, depth + 1, 2 * path_key, tie_fn)
                g_right = _child_stats(tree, x, j)[0]
            else:
                g_left = _child_stats(tree, i, x)[0]
                g_right = _traverse(ctx, tree, x, j, depth + 1, 2 * path_key + 1, tie_fn)
        else:
            g_left = _traverse(ctx, tree, i, x, depth + 1, 2 * path_key, tie_fn)
            g_right = _traverse(ctx, tree, x, j, depth + 1, 2 * path_key + 1, tie_fn)
        G = g_left * g_right

    G = max(G, v_pi)  # planning can only improve on acting directly
    update_or_stats(tree, i, j, G)
    return G


_MASK64 = (1 << 64) - 1
_MORE_WORDS = 0xD6E8FEB86659FD93


def _mix64(z: int) -> int:
    """The splitmix64 finalizer of the 64-bit word z."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _chain64(h: int, x: int) -> int:
    """Fold the non-negative integer x into the hash h, 64 bits at a time
    from the lowest, so keys past 2^64 (paths deeper than 63) stay distinct.
    A word with more words above it is marked, so a chain of integers folds
    unambiguously: (2^64) is not (0, 1)."""
    while x >> 64:
        h = _mix64(h ^ (x & _MASK64)) ^ _MORE_WORDS
        x >>= 64
    return _mix64(h ^ x)


class _TieBreaker:
    """Order-independent tie randomness: a draw is a keyed hash of (seed,
    traversal, path key), mapped to [0, n) by (h · n) >> 64, so evaluation
    order cannot change it."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"tie-break seed must be non-negative, got {seed}")
        self._key = _chain64(0, seed)
        self._traversal = 0

    def next_traversal(self) -> TieFn:
        key = _chain64(self._key, self._traversal)
        self._traversal += 1

        def tie_fn(path_key: int, n: int) -> int:
            return (_chain64(key, path_key) * n) >> 64

        return tie_fn


def _reachable_key_cap(v_pi: np.ndarray, ri: int, rj: int, max_depth: int, mode: str) -> int:
    """How many keys a search from the root (ri, rj) can expand: those with
    v_pi < 1 that some chain of splits reaches within max_depth levels.
    An unsolved key shallower than max_depth splits into (i, x) and (x, j)
    for every cell x (only (x, j) in sequential mode), so a level makes
    whole rows and columns reachable.  A solved root gives 0."""
    open_keys = v_pi < 1.0
    reach = np.zeros_like(open_keys)
    reach[ri, rj] = True
    for _ in range(max_depth):
        splits = reach & open_keys
        grown = reach | splits.any(axis=0)
        if mode != "sequential_right":
            grown |= splits.any(axis=1)[:, None]
        if (grown == reach).all():
            break
        reach = grown
    return int(np.count_nonzero(reach & open_keys))


class _Extractor:
    """Deterministic extraction by realizable value.

    A key's level-d value is the best return achievable by decomposing it
    into searched sub-tasks using at most d more split levels: segments are
    worth v_pi, and a split is worth the product of its children's values.
    Over the dense (n, n) matrices this is a masked max-product.  With T the
    "key in tree" mask, S = T | (v_pi == 1) the keys that are searched or
    solved outright, and W_0 = v_pi, level d is

        W_d[i, j] = max(v_pi[i, j], max over x in M[i, j] of W_{d-1}[i, x] · W_{d-1}[x, j])

    for every tree key (i, j), and W_d = v_pi elsewhere.  The candidate mask
    M admits mids x with at least one child searched or solved,
    S[i, x] | S[x, j] (the right child S[x, j] alone in sequential mode,
    whose left factor is v_pi[i, x]), and never x = i or x = j; a child
    outside the tree contributes its v_pi as a direct segment.  Solved keys
    are terminal in search, so they are never tree keys, yet a mid whose
    children are solved is a plan worth 1.  This scores plans by what
    executing them is actually worth, so an unvisited branch can never lure
    extraction into a dead segment.  A mid is chosen only when it strictly
    beats v_pi, so ties prefer ∅, then the first mid in row-major order.
    """

    def __init__(self, ctx: PlanningContext, tree: SearchTree):
        self.ctx = ctx
        self.max_depth = tree.max_depth
        self.seq = ctx.config.mode == "sequential_right"
        self.T = T = np.zeros((ctx.n, ctx.n), dtype=bool)
        T.reshape(-1)[list(tree.and_counts)] = True
        self.S = S = T | (ctx.v_pi == 1.0)
        I, J = np.nonzero(T)
        M = S[:, J].T if self.seq else S[I] | S[:, J].T
        rows = np.arange(len(I))
        M[rows, I] = False
        M[rows, J] = False
        self.levels = self._value_levels(I, J, M)

    def _split_scores(self, W: np.ndarray, I, J, mask: np.ndarray) -> np.ndarray:
        """Masked split values W[i, x]·W[x, j] (v_pi[i, x] on the left in
        sequential mode), -inf where x is not a candidate."""
        left = self.ctx.v_pi[I] if self.seq else W[I]
        return np.where(mask, left * W[:, J].T, -np.inf)

    def _value_levels(self, I, J, M) -> list[np.ndarray]:
        v_pi = self.ctx.v_pi
        direct = v_pi[I, J]
        levels = [v_pi]
        for _ in range(self.max_depth):
            split = self._split_scores(levels[-1], I, J, M).max(axis=1)
            cur = v_pi.copy()
            cur[I, J] = np.maximum(direct, split)
            levels.append(cur)
        return levels

    def _best_mid(self, i: int, j: int, d: int) -> int | None:
        mask = self.S[:, j].copy() if self.seq else self.S[i] | self.S[:, j]
        mask[i] = mask[j] = False
        scores = self._split_scores(self.levels[d - 1], i, j, mask)
        x = int(np.argmax(scores))
        return x if scores[x] > self.ctx.v_pi[i, j] else None

    def node(self, i: int, j: int, d: int) -> SolutionNode:
        ctx = self.ctx
        key = OrKey(ctx.cells[i], ctx.cells[j])
        x = self._best_mid(i, j, d) if d > 0 and self.T[i, j] else None
        if x is None:
            return SolutionNode(key=key, G=float(ctx.v_pi[i, j]), terminal=True)
        if self.seq:
            left_node = SolutionNode(
                key=OrKey(key.s, ctx.cells[x]), G=float(ctx.v_pi[i, x]), terminal=True
            )
        else:
            left_node = self.node(i, x, d - 1)
        right_node = self.node(x, j, d - 1)
        return SolutionNode(
            key=key,
            G=left_node.G * right_node.G,
            terminal=False,
            chosen=ctx.cells[x],
            left=left_node,
            right=right_node,
        )


def _extract(ctx: PlanningContext, tree: SearchTree, key: OrKey) -> SolutionNode:
    return _Extractor(ctx, tree).node(*ctx.kidx(key), tree.max_depth)


def _flatten(node: SolutionNode) -> list[StateId]:
    if node.terminal:
        return [node.key.s, node.key.s2]
    left = _flatten(node.left)
    right = _flatten(node.right)
    return left + right[1:]  # drop the duplicated middle state


def extract_plan(tree: SearchTree, key: OrKey) -> tuple[tuple[StateId, ...], float]:
    """Best plan segment for key from the current tree, with its G."""
    ctx = tree.context
    if ctx is None:
        raise ValueError("tree has no planning context; extraction needs one")
    root = _extract(ctx, tree, key)
    return tuple(_flatten(root)), root.G


def run_search(
    task: Task,
    heuristics: SearchHeuristics,
    config: PlannerConfig,
    low_level: LowLevelPolicy | None = None,
) -> PlanResult:
    """Grow the tree by repeated traversals, then extract the best plan."""
    for name, s in (("start", task.start), ("goal", task.goal)):
        if not task.maze.is_empty(s):
            raise ValueError(f"task {name} {format_cell(s)} is not an empty cell of the maze")
    root = OrKey(task.start, task.goal)
    tree = SearchTree(root=root, budget_max=config.budget, max_depth=config.max_depth,
                      cells=task.maze.empty_cells)
    ctx = PlanningContext(tree, task, heuristics, config, low_level)
    ri, rj = ctx.kidx(root)
    breaker = _TieBreaker(config.seed)
    cap = _reachable_key_cap(ctx.v_pi, ri, rj, config.max_depth, config.mode)
    traversals = idle = 0
    while True:
        if tree.budget_used >= config.budget:
            stop = "budget"
        elif len(tree.and_counts) >= cap:
            stop = "key_cap"
        elif idle >= IDLE_TRAVERSAL_LIMIT:
            stop = "idle"
        else:
            before = tree.budget_used
            _traverse(ctx, tree, ri, rj, 0, 1, breaker.next_traversal())
            traversals += 1
            idle = idle + 1 if tree.budget_used == before else 0
            continue
        break

    sol_root = _extract(ctx, tree, root)
    sigma = tuple(_flatten(sol_root))
    L = plan_objective(task, sigma, ctx.low_level)
    plan = Plan(sigma=sigma, objective_L=L, infeasible=L == 0.0)
    stats = {
        "or_nodes": len(tree.and_counts),
        "and_nodes": sum(int(np.count_nonzero(c)) for c in tree.and_counts.values()),
        "budget_used": tree.budget_used,
        "traversals": traversals,
        "stop": stop,
        "root_V": float(tree.V[ri, rj]),
        "root_N": int(tree.N[ri, rj]),
    }
    solution_tree = SolutionTree(sol_root)
    return PlanResult(
        plan=plan,
        solution_tree=solution_tree,
        returns=tuple((node.key, node.G) for node in solution_tree.nodes()),
        budget_used=tree.budget_used,
        tree_stats=stats,
        tree=tree,
    )

