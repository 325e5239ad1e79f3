"""Divide-and-conquer MCTS over sub-goals, plan extraction, and baselines.

A traversal walks the AND/OR tree from the root task (start, goal).  At an
unexpanded node it expands and returns the bootstrap max(v_pi, v_hat); at an
expanded node it selects a sub-goal by pUCT, recurses into the two sub-tasks,
multiplies their returns, floors the result at the node's own low-level
value, and folds it into the node's running average.

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

import json
import math
import threading
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from subplan.gridworld import LowLevelPolicy, Pi0, StateId, Task
from subplan.tree import (
    AndKey,
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
    parallel_and: bool = False

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.c_puct < 0:
            raise ValueError("c_puct must be non-negative")
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


def _pairs_array(left: Sequence[StateId], right: Sequence[StateId]) -> np.ndarray:
    out = np.empty((len(left), 4), dtype=np.int64)
    for i, (a, b) in enumerate(zip(left, right)):
        out[i] = (a.row, a.col, b.row, b.col)
    return out


class PlanningContext:
    """Per-search dense caches: low-level values, heuristic values, mirrors
    of node statistics, and per-node AND visit counts.

    Attached to the SearchTree so that extraction and training-target
    computation can score children exactly the way Select did.
    """

    def __init__(
        self,
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
        self.index = self.maze.empty_index
        self.n = len(self.cells)
        self.candidates = candidate_subgoals(task)
        self.v_pi = self._low_level_matrix()
        self._vhat = np.full((self.n, self.n), np.nan)
        self._vhat_rows = np.zeros(self.n, dtype=bool)
        self._vhat_cols = np.zeros(self.n, dtype=bool)
        self.V_dense = np.full((self.n, self.n), np.nan)
        self.and_counts: dict[OrKey, np.ndarray] = {}
        self.lock = threading.Lock()  # guards node stats and the budget counter

    # -- low-level values ---------------------------------------------------

    def _low_level_matrix(self) -> np.ndarray:
        if hasattr(self.low_level, "value_matrix"):
            return np.asarray(self.low_level.value_matrix(self.maze), dtype=float)
        n = self.n
        out = np.empty((n, n))
        for i, a in enumerate(self.cells):
            for j, b in enumerate(self.cells):
                out[i, j] = self.low_level.value(self.maze, a, b)
        return out

    def kidx(self, key: OrKey) -> tuple[int, int]:
        return self.index[key.s], self.index[key.s2]

    def vpi_key(self, key: OrKey) -> float:
        i, j = self.kidx(key)
        return float(self.v_pi[i, j])

    # -- heuristic values ---------------------------------------------------

    def _fill_row(self, i: int) -> None:
        # heuristics.values is pure, so overwriting column-filled entries
        # with identical numbers is harmless
        if not self._vhat_rows[i]:
            pairs = _pairs_array([self.cells[i]] * self.n, self.cells)
            self._vhat[i] = np.asarray(self.heuristics.values(self.maze, pairs), dtype=float)
            self._vhat_rows[i] = True

    def _fill_col(self, j: int) -> None:
        if not self._vhat_cols[j]:
            pairs = _pairs_array(self.cells, [self.cells[j]] * self.n)
            self._vhat[:, j] = np.asarray(self.heuristics.values(self.maze, pairs), dtype=float)
            self._vhat_cols[j] = True

    def vhat_key(self, key: OrKey) -> float:
        i, j = self.kidx(key)
        self._fill_row(i)
        return float(self._vhat[i, j])

    def boot_row(self, i: int) -> np.ndarray:
        self._fill_row(i)
        return np.maximum(self.v_pi[i], self._vhat[i])

    def boot_col(self, j: int) -> np.ndarray:
        self._fill_col(j)
        return np.maximum(self.v_pi[:, j], self._vhat[:, j])

    def boot_key(self, key: OrKey) -> float:
        return max(self.vpi_key(key), self.vhat_key(key))

    def prior_key(self, key: OrKey) -> np.ndarray:
        return np.asarray(
            self.heuristics.prior(self.task, key, self.candidates), dtype=float
        )

    # -- node bookkeeping ---------------------------------------------------

    def on_expand(self, tree: SearchTree, key: OrKey, v0: float) -> None:
        i, j = self.kidx(key)
        self.V_dense[i, j] = v0
        self.and_counts[key] = np.zeros(self.n + 1, dtype=np.int64)

    def on_update(self, key: OrKey, v: float) -> None:
        i, j = self.kidx(key)
        self.V_dense[i, j] = v

    # -- child value views --------------------------------------------------

    def left_values(self, i: int) -> np.ndarray:
        """Select-time value of (s, x) for every candidate cell x."""
        if self.config.mode == "sequential_right":
            return self.v_pi[i].copy()
        row = self.V_dense[i]
        return np.where(np.isnan(row), self.boot_row(i), row)

    def right_values(self, j: int) -> np.ndarray:
        """Select-time value of (x, s'') for every candidate cell x."""
        col = self.V_dense[:, j]
        return np.where(np.isnan(col), self.boot_col(j), col)

    def child_stats(self, tree: SearchTree, key: OrKey) -> tuple[float, int]:
        node = tree.or_nodes.get(key)
        if node is None:
            return self.boot_key(key), 0
        return node.V, node.N


TieFn = Callable[[int, int], int]  # (path_key, n_options) -> index


class _PathRng:
    """Generator-like adapter exposing .integers and .random at a fixed
    position in the traversal, so draws do not depend on schedule order."""

    def __init__(self, tie_fn: TieFn, path_key: int):
        self._tie_fn = tie_fn
        self._path_key = path_key

    def integers(self, n: int) -> int:
        return self._tie_fn(self._path_key, int(n))


def _argmax_with_ties(score: np.ndarray, rng_pick: Callable[[int], int]) -> int:
    m = float(np.max(score))
    ties = np.flatnonzero(score == m)
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[rng_pick(len(ties))])


def select_child(or_node, and_counts, c_puct, rng, ctx: PlanningContext) -> SubGoal:
    """pUCT: argmax over candidates of V(s,x)·V(x,s'') + c·p·√N/(1+N_and).

    The ∅ candidate's exploitation term is v_pi(s, s'') (it has no
    V-product); unexpanded children are scored with the bootstrap
    max(v_pi, v_hat) without consuming budget.  Ties break uniformly at
    random with the provided RNG.
    """
    idx = _select_index(or_node, and_counts, c_puct, lambda n: int(rng.integers(n)), ctx)
    return ctx.candidates[idx]


def selection_scores(node, and_counts: np.ndarray, c_puct: float, ctx: PlanningContext) -> np.ndarray:
    """The pUCT score of every candidate (∅ first), exactly as Select sees it."""
    i, j = ctx.kidx(node.key)
    exploit = np.empty(ctx.n + 1)
    exploit[0] = node.v_pi
    exploit[1:] = ctx.left_values(i) * ctx.right_values(j)
    if c_puct > 0 and node.N > 0:
        return exploit + c_puct * node.prior * (math.sqrt(node.N) / (1.0 + and_counts))
    return exploit


def _select_index(
    node, and_counts: np.ndarray, c_puct: float, rng_pick: Callable[[int], int], ctx: PlanningContext
) -> int:
    return _argmax_with_ties(selection_scores(node, and_counts, c_puct, ctx), rng_pick)


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


def _run_pair(fn_left: Callable[[], float], fn_right: Callable[[], float]) -> tuple[float, float]:
    """Run the two AND-branch traversals on worker threads.

    Shared transpositions and the budget counter make the branches
    order-dependent, so the right branch waits for the left to finish: the
    effect order is exactly sequential left-then-right, which keeps results
    bit-identical to the sequential strategy while the mutation primitives
    still go through the tree lock.
    """
    out: list[float | None] = [None, None]
    err: list[BaseException | None] = [None, None]

    def body(i: int, fn: Callable[[], float], after: threading.Thread | None) -> None:
        if after is not None:
            after.join()
        try:
            out[i] = fn()
        except BaseException as e:  # re-raised on the caller's thread
            err[i] = e

    t_left = threading.Thread(target=body, args=(0, fn_left, None))
    t_right = threading.Thread(target=body, args=(1, fn_right, t_left))
    t_left.start()
    t_right.start()
    t_left.join()
    t_right.join()
    for e in err:
        if e is not None:
            raise e
    return out[0], out[1]


def _traverse(
    ctx: PlanningContext, tree: SearchTree, key: OrKey, depth: int, path_key: int, tie_fn: TieFn
) -> float:
    node = tree.or_nodes.get(key)
    if node is None:
        v_pi = ctx.vpi_key(key)
        v_boot = ctx.vhat_key(key)
        prior = ctx.prior_key(key)
        with ctx.lock:
            try:
                v0 = expand_node(tree, key, v_pi, v_boot, prior)
            except BudgetExhausted:
                return max(v_pi, v_boot)  # no budget: bootstrap without expanding
            ctx.on_expand(tree, key, v0)
        return v0

    counts = ctx.and_counts[key]
    pick = _select_index(node, counts, ctx.config.c_puct, _PathRng(tie_fn, path_key).integers, ctx)
    mid = ctx.candidates[pick]
    with ctx.lock:
        touch_and_node(tree, AndKey(key.s, mid, key.s2))
        counts[pick] += 1

    if mid is None or depth >= ctx.config.max_depth:
        G = node.v_pi
    else:
        left = OrKey(key.s, mid)
        right = OrKey(mid, key.s2)
        mode = ctx.config.mode
        if mode == "sequential_right":
            g_left = ctx.vpi_key(left)
            g_right = _traverse(ctx, tree, right, depth + 1, 2 * path_key + 1, tie_fn)
        elif mode in DESCEND_MODES:
            branch = descend_one(
                mode,
                ctx.child_stats(tree, left),
                ctx.child_stats(tree, right),
                _PathRng(tie_fn, path_key + (1 << 30)),
            )
            if branch == "left":
                g_left = _traverse(ctx, tree, left, depth + 1, 2 * path_key, tie_fn)
                g_right = ctx.child_stats(tree, right)[0]
            else:
                g_left = ctx.child_stats(tree, left)[0]
                g_right = _traverse(ctx, tree, right, depth + 1, 2 * path_key + 1, tie_fn)
        elif ctx.config.parallel_and:
            g_left, g_right = _run_pair(
                lambda: _traverse(ctx, tree, left, depth + 1, 2 * path_key, tie_fn),
                lambda: _traverse(ctx, tree, right, depth + 1, 2 * path_key + 1, tie_fn),
            )
        else:
            g_left = _traverse(ctx, tree, left, depth + 1, 2 * path_key, tie_fn)
            g_right = _traverse(ctx, tree, right, depth + 1, 2 * path_key + 1, tie_fn)
        G = g_left * g_right

    G = max(G, node.v_pi)  # planning can only improve on acting directly
    with ctx.lock:
        v, _ = update_or_stats(tree, key, G)
        ctx.on_update(key, v)
    return G


def traverse(
    tree: SearchTree,
    task: Task,
    key: OrKey,
    depth: int,
    heuristics: SearchHeuristics,
    config: PlannerConfig,
    rng,
) -> float:
    """One search traversal from key; returns its G."""
    ctx = tree.context
    if ctx is None:
        ctx = PlanningContext(task, heuristics, config)
        tree.context = ctx
        for k, node in tree.or_nodes.items():
            # trees rebuilt from text dumps carry stats but not v_pi/prior
            if math.isnan(node.v_pi):
                node.v_pi = ctx.vpi_key(k)
                node.v_boot = ctx.vhat_key(k)
            if node.prior is None:
                node.prior = ctx.prior_key(k)
            ctx.on_expand(tree, k, node.V)
        for akey, anode in tree.and_nodes.items():
            parent = OrKey(akey.s, akey.s2)
            idx = 0 if akey.mid is None else ctx.index[akey.mid] + 1
            ctx.and_counts[parent][idx] = anode.N
    tie_fn = lambda path_key, n: int(rng.integers(n))
    return _traverse(ctx, tree, key, depth, 1, tie_fn)


class _TieBreaker:
    """Order-independent tie randomness: each (traversal, path) position
    draws from its own stream, so evaluation order cannot change a draw."""

    def __init__(self, seed: int):
        self._seed = seed
        self._traversal = 0

    def next_traversal(self) -> TieFn:
        t = self._traversal
        self._traversal += 1

        def tie_fn(path_key: int, n: int) -> int:
            ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(t, path_key))
            return int(np.random.default_rng(ss).integers(n))

        return tie_fn


def _reachable_key_cap(n: int, max_depth: int, mode: str) -> int:
    if mode == "sequential_right":
        return n  # only (x, goal) keys are ever visited
    return n * n if max_depth >= 2 else 2 * n - 1


class _Extractor:
    """Deterministic extraction by realizable value.

    A key's level-d value is the best return achievable by decomposing it
    into searched sub-tasks using at most d more split levels: segments are
    worth v_pi, and a split is worth the product of its children's values.
    Over the dense (n, n) matrices this is a masked max-product.  With T the
    "key in tree" mask and W_0 = v_pi, level d is

        W_d[i, j] = max(v_pi[i, j], max over x in M[i, j] of W_{d-1}[i, x] · W_{d-1}[x, j])

    for every tree key (i, j), and W_d = v_pi elsewhere.  The candidate mask
    M admits mids x with at least one child in the tree, T[i, x] | T[x, j]
    (the right child T[x, j] alone in sequential mode, whose left factor is
    v_pi[i, x]), and never x = i or x = j; a child outside the tree
    contributes its v_pi as a direct segment.  This scores plans by what
    executing them is actually worth, so an unvisited branch can never lure
    extraction into a dead segment.  A mid is chosen only when it strictly
    beats v_pi, so ties prefer ∅, then the first mid in row-major order.
    """

    def __init__(self, ctx: PlanningContext, tree: SearchTree):
        self.ctx = ctx
        self.tree = tree
        self.seq = ctx.config.mode == "sequential_right"
        keys = list(tree.or_nodes)
        self.row = {k: r for r, k in enumerate(keys)}
        self.I = np.array([ctx.index[k.s] for k in keys], dtype=np.intp)
        self.J = np.array([ctx.index[k.s2] for k in keys], dtype=np.intp)
        T = np.zeros((ctx.n, ctx.n), dtype=bool)
        T[self.I, self.J] = True
        M = T[:, self.J].T if self.seq else T[self.I] | T[:, self.J].T
        rows = np.arange(len(keys))
        M[rows, self.I] = False
        M[rows, self.J] = False
        self.mask = M
        self.levels = self._value_levels()

    def _split_scores(self, W: np.ndarray, I, J, mask: np.ndarray) -> np.ndarray:
        """Masked split values W[i, x]·W[x, j] (v_pi[i, x] on the left in
        sequential mode), -inf where x is not a candidate."""
        left = self.ctx.v_pi[I] if self.seq else W[I]
        return np.where(mask, left * W[:, J].T, -np.inf)

    def _value_levels(self) -> list[np.ndarray]:
        v_pi = self.ctx.v_pi
        direct = v_pi[self.I, self.J]
        levels = [v_pi]
        for _ in range(self.tree.max_depth):
            split = self._split_scores(levels[-1], self.I, self.J, self.mask).max(axis=1)
            cur = v_pi.copy()
            cur[self.I, self.J] = np.maximum(direct, split)
            levels.append(cur)
        return levels

    def _best_mid(self, key: OrKey, d: int) -> SubGoal:
        r = self.row[key]
        i, j = self.I[r], self.J[r]
        scores = self._split_scores(self.levels[d - 1], i, j, self.mask[r])
        x = int(np.argmax(scores))
        return self.ctx.cells[x] if scores[x] > self.ctx.v_pi[i, j] else None

    def node(self, key: OrKey, d: int) -> SolutionNode:
        if d == 0 or key not in self.tree.or_nodes:
            return SolutionNode(key=key, G=self.ctx.vpi_key(key), terminal=True)
        mid = self._best_mid(key, d)
        if mid is None:
            return SolutionNode(key=key, G=self.ctx.vpi_key(key), terminal=True)
        if self.seq:
            left_node = SolutionNode(
                key=OrKey(key.s, mid), G=self.ctx.vpi_key(OrKey(key.s, mid)), terminal=True
            )
        else:
            left_node = self.node(OrKey(key.s, mid), d - 1)
        right_node = self.node(OrKey(mid, key.s2), d - 1)
        return SolutionNode(
            key=key,
            G=left_node.G * right_node.G,
            terminal=False,
            chosen=mid,
            left=left_node,
            right=right_node,
        )


def _extract(ctx: PlanningContext, tree: SearchTree, key: OrKey, depth: int) -> SolutionNode:
    return _Extractor(ctx, tree).node(key, max(tree.max_depth - depth, 0))


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
    root = _extract(ctx, tree, key, 0)
    return tuple(_flatten(root)), root.G


def _solution_returns(root: SolutionNode) -> tuple[tuple[OrKey, float], ...]:
    out = []
    stack = [root]
    while stack:
        n = stack.pop()
        out.append((n.key, n.G))
        if not n.terminal:
            stack.append(n.right)
            stack.append(n.left)
    return tuple(out)


def run_search(
    task: Task,
    heuristics: SearchHeuristics,
    config: PlannerConfig,
    low_level: LowLevelPolicy | None = None,
) -> PlanResult:
    """Grow the tree by repeated traversals, then extract the best plan."""
    ctx = PlanningContext(task, heuristics, config, low_level)
    root = OrKey(task.start, task.goal)
    tree = SearchTree(root=root, budget_max=config.budget, max_depth=config.max_depth)
    tree.context = ctx
    breaker = _TieBreaker(config.seed)
    cap = _reachable_key_cap(ctx.n, config.max_depth, config.mode)
    traversals = 0
    idle = 0
    while tree.budget_used < config.budget and len(tree.or_nodes) < cap and idle < IDLE_TRAVERSAL_LIMIT:
        before = tree.budget_used
        _traverse(ctx, tree, root, 0, 1, breaker.next_traversal())
        traversals += 1
        idle = idle + 1 if tree.budget_used == before else 0

    sol_root = _extract(ctx, tree, root, 0)
    sigma = tuple(_flatten(sol_root))
    L = plan_objective(task, sigma, ctx.low_level)
    plan = Plan(sigma=sigma, objective_L=L, infeasible=L == 0.0)
    root_node = tree.or_nodes[root]
    stats = {
        "or_nodes": len(tree.or_nodes),
        "and_nodes": len(tree.and_nodes),
        "budget_used": tree.budget_used,
        "traversals": traversals,
        "root_V": root_node.V,
        "root_N": root_node.N,
    }
    return PlanResult(
        plan=plan,
        solution_tree=SolutionTree(sol_root),
        returns=_solution_returns(sol_root),
        budget_used=tree.budget_used,
        tree_stats=stats,
        tree=tree,
    )


def run_search_sequential(
    task: Task,
    heuristics: SearchHeuristics,
    config: PlannerConfig,
    low_level: LowLevelPolicy | None = None,
) -> PlanResult:
    """run_search restricted to right-expansion only (chain plans)."""
    cfg = PlannerConfig(
        budget=config.budget,
        max_depth=config.max_depth,
        c_puct=config.c_puct,
        mode="sequential_right",
        seed=config.seed,
        parallel_and=config.parallel_and,
    )
    return run_search(task, heuristics, cfg, low_level)


def plan_result_json(result: PlanResult, tree_dump_ref: str | None = None) -> str:
    """Structured text form of a PlanResult."""
    payload = {
        "plan": [[s.row, s.col] for s in result.plan.sigma],
        "L": result.plan.objective_L,
        "G": result.returns[0][1],
        "budget_used": result.budget_used,
        "tree_stats": result.tree_stats,
        "tree_dump": tree_dump_ref,
    }
    return json.dumps(payload, sort_keys=True)
