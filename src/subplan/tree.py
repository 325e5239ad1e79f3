"""AND/OR search tree store: node statistics, expansion, budget accounting.

OR nodes are keyed by the sub-task (s, s'') and shared across branches
(transposition sharing), so two traversal paths reaching the same sub-task
update one value estimate.  AND nodes are keyed by (s, mid, s''), where mid
is either a cell or the no-split symbol ``None`` (rendered ∅ in dumps): the
decision to hand the whole sub-task to the low-level policy.

Budget is consumed by expansions only; every other read (bootstrap scoring
of unexpanded children, value lookups) is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from subplan.gridworld import StateId, Task, format_cell, parse_cell

# A sub-goal candidate: a cell, or None for the no-split symbol ∅.
SubGoal = StateId | None

NULL_SORT_KEY = StateId(-1, -1)  # ∅ sorts before every real cell


class OrKey(tuple):
    """Sub-task (s, s'') identifying an OR node."""

    __slots__ = ()

    def __new__(cls, s: StateId, s2: StateId):
        return super().__new__(cls, (s, s2))

    @property
    def s(self) -> StateId:
        return self[0]

    @property
    def s2(self) -> StateId:
        return self[1]


class AndKey(tuple):
    """Triple (s, mid, s'') identifying an AND node; mid=None means ∅."""

    __slots__ = ()

    def __new__(cls, s: StateId, mid: SubGoal, s2: StateId):
        return super().__new__(cls, (s, mid, s2))

    @property
    def s(self) -> StateId:
        return self[0]

    @property
    def mid(self) -> SubGoal:
        return self[1]

    @property
    def s2(self) -> StateId:
        return self[2]


@dataclass
class OrNode:
    key: OrKey
    V: float
    N: int
    expanded: bool
    v_pi: float
    v_boot: float
    prior: np.ndarray | None  # over candidate_subgoals order (∅ first)


@dataclass
class AndNode:
    key: AndKey
    N: int


class BudgetExhausted(Exception):
    """Raised by expand_node when no budget remains; signals termination."""


@dataclass
class SearchTree:
    root: OrKey
    budget_max: int
    max_depth: int
    or_nodes: dict[OrKey, OrNode] = field(default_factory=dict)
    and_nodes: dict[AndKey, AndNode] = field(default_factory=dict)
    budget_used: int = 0
    # Planning context attached by run_search so that training-target
    # computation can score unexpanded children the way Select did.
    context: object | None = None


def expand_node(
    tree: SearchTree, key: OrKey, v_pi: float, v_boot: float, prior: np.ndarray
) -> float:
    """Store an expanded node with V = max(v_pi, v_boot), N = 0.

    Consumes one unit of budget; raises BudgetExhausted (tree unchanged)
    when none remains and ValueError on duplicate expansion.
    """
    if key in tree.or_nodes:
        raise ValueError(f"node {key} already expanded")
    if tree.budget_used >= tree.budget_max:
        raise BudgetExhausted(key)
    v0 = max(v_pi, v_boot)
    tree.or_nodes[key] = OrNode(
        key=key, V=v0, N=0, expanded=True, v_pi=v_pi, v_boot=v_boot, prior=prior
    )
    tree.budget_used += 1
    return v0


def update_or_stats(tree: SearchTree, key: OrKey, G: float) -> tuple[float, int]:
    """Running-average update: V <- (V*N + G)/(N+1), N <- N+1."""
    node = tree.or_nodes.get(key)
    if node is None or not node.expanded:
        raise ValueError(f"update on unexpanded node {key}")
    node.V = (node.V * node.N + G) / (node.N + 1)
    node.N += 1
    return node.V, node.N


def touch_and_node(tree: SearchTree, key: AndKey) -> int:
    """Create the AND node on first touch, then count one visit."""
    node = tree.and_nodes.get(key)
    if node is None:
        node = AndNode(key=key, N=0)
        tree.and_nodes[key] = node
    node.N += 1
    return node.N


def candidate_subgoals(task: Task, key: OrKey | None = None) -> list[SubGoal]:
    """∅ followed by all empty cells of the maze in row-major order.

    The list is the same for every key of a maze; the key parameter is part
    of the interface for symmetry with per-node queries.
    """
    return [None, *task.maze.empty_cells]


def format_subgoal(mid: SubGoal) -> str:
    """Text form of a sub-goal: `row,col`, or ∅ for the no-split symbol."""
    return "∅" if mid is None else format_cell(mid)


def parse_subgoal(text: str) -> SubGoal:
    """Inverse of format_subgoal."""
    return None if text == "∅" else parse_cell(text)


def _fmt_stat(x: float) -> str:
    return repr(float(x))


def dump_tree(tree: SearchTree) -> str:
    """Line-oriented dump: OR lines then AND lines, each sorted by key."""
    lines = []
    for key in sorted(tree.or_nodes):
        n = tree.or_nodes[key]
        expanded = "true" if n.expanded else "false"
        lines.append(
            f"OR {format_cell(key.s)} {format_cell(key.s2)} {_fmt_stat(n.V)} {n.N} {expanded}"
        )
    def and_sort(k: AndKey):
        return (k.s, k.mid if k.mid is not None else NULL_SORT_KEY, k.s2)
    for key in sorted(tree.and_nodes, key=and_sort):
        n = tree.and_nodes[key]
        lines.append(
            f"AND {format_cell(key.s)} {format_subgoal(key.mid)} {format_cell(key.s2)} {n.N}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_tree_dump(text: str, root: OrKey | None = None) -> SearchTree:
    """Rebuild node statistics from a dump.

    Dumps carry statistics only: priors and cached values are not recorded,
    and the root task is not marked, so pass it explicitly when it matters;
    otherwise the first (lexicographically smallest) OR key stands in.
    """
    or_nodes: dict[OrKey, OrNode] = {}
    and_nodes: dict[AndKey, AndNode] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "OR":
            if len(parts) != 6:
                raise ValueError(f"bad OR line: {line!r}")
            key = OrKey(parse_cell(parts[1]), parse_cell(parts[2]))
            if parts[5] not in ("true", "false"):
                raise ValueError(f"bad expanded flag: {line!r}")
            node = OrNode(
                key=key,
                V=float(parts[3]),
                N=int(parts[4]),
                expanded=parts[5] == "true",
                v_pi=math.nan,
                v_boot=math.nan,
                prior=None,
            )
            if key in or_nodes:
                raise ValueError(f"duplicate OR key: {line!r}")
            or_nodes[key] = node
        elif parts[0] == "AND":
            if len(parts) != 5:
                raise ValueError(f"bad AND line: {line!r}")
            key = AndKey(parse_cell(parts[1]), parse_subgoal(parts[2]), parse_cell(parts[3]))
            if key in and_nodes:
                raise ValueError(f"duplicate AND key: {line!r}")
            and_nodes[key] = AndNode(key=key, N=int(parts[4]))
        else:
            raise ValueError(f"bad tree dump line: {line!r}")
    if not or_nodes:
        raise ValueError("tree dump contains no OR nodes")
    if root is None:
        root = min(or_nodes)
    elif root not in or_nodes:
        raise ValueError(f"root {root} not present in dump")
    tree = SearchTree(root=root, budget_max=len(or_nodes), max_depth=0)
    tree.or_nodes = or_nodes
    tree.and_nodes = and_nodes
    tree.budget_used = sum(1 for n in or_nodes.values() if n.expanded)
    return tree
