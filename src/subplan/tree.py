"""AND/OR search tree store: node statistics, expansion, budget accounting.

OR nodes are keyed by the sub-task (s, s'') and shared across branches
(transposition sharing), so two traversal paths reaching the same sub-task
update one value estimate.  AND nodes are keyed by (s, mid, s''), where mid
is either a cell or the no-split symbol ``None`` (rendered ∅ in dumps): the
decision to hand the whole sub-task to the low-level policy.

The store is dense over the tree's cells (the maze's empty cells in
row-major order): the key (cells[i], cells[j]) is the index pair (i, j), so
index order is key order.  It holds

  V            (n, n) value estimates, one per key: the bootstrap
               max(v_pi, v_hat), which a PlanningContext writes for every
               key when it is attached, until the key's first visit after
               expansion, and its running mean from then on.  A tree
               without a context (one loaded from a dump) holds NaN for
               the keys it has not expanded.
  N            (n, n) visit counts
  and_counts   i·n + j -> the visit count of each split of that key, ∅
               first and then one per cell; a key is expanded exactly when
               it has an entry here
  budget_used  expansions so far

Budget is consumed by expansions only; every other read (bootstrap scoring
of unexpanded children, value lookups) is free.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from subplan.gridworld import StateId, format_cell, parse_cell

# A sub-goal candidate: a cell, or None for the no-split symbol ∅.
SubGoal = StateId | None


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


class BudgetExhausted(Exception):
    """Raised by expand_node when no budget remains; signals termination."""


class SearchTree:
    def __init__(self, root: OrKey, budget_max: int, max_depth: int, cells: Sequence[StateId]):
        self.root = root
        self.budget_max = budget_max
        self.max_depth = max_depth
        self.cells = tuple(cells)
        self.n = n = len(self.cells)
        self.V = np.full((n, n), np.nan)
        self.N = np.zeros((n, n), dtype=np.int64)
        self.and_counts: dict[int, np.ndarray] = {}
        self.budget_used = 0
        # Planning context attached by run_search so that extraction and
        # training targets can score unexpanded children the way Select did.
        self.context = None


def expand_node(tree: SearchTree, i: int, j: int) -> None:
    """Expand the key (i, j): give it split counts, keeping its V and N.

    Consumes one unit of budget; raises BudgetExhausted (tree unchanged)
    when none remains and ValueError on duplicate expansion.
    """
    f = i * tree.n + j
    if f in tree.and_counts:
        raise ValueError(f"node {(i, j)} already expanded")
    if tree.budget_used >= tree.budget_max:
        raise BudgetExhausted((i, j))
    tree.and_counts[f] = np.zeros(tree.n + 1, dtype=np.int64)
    tree.budget_used += 1


def update_or_stats(tree: SearchTree, i: int, j: int, G: float) -> tuple[float, int]:
    """Running-average update of the key (i, j): V <- (V*N + G)/(N+1), N <- N+1."""
    if i * tree.n + j not in tree.and_counts:
        raise ValueError(f"update on unexpanded node {(i, j)}")
    v = tree.V.item(i, j)
    n = tree.N.item(i, j)
    v = (v * n + G) / (n + 1)
    tree.V[i, j] = v
    tree.N[i, j] = n + 1
    return v, n + 1


def touch_and_node(tree: SearchTree, i: int, j: int, pick: int) -> None:
    """Count one visit of the split pick (0 for ∅, x + 1 for cells[x]) of
    the expanded key (i, j)."""
    try:
        tree.and_counts[i * tree.n + j][pick] += 1
    except KeyError:
        raise ValueError(f"split of unexpanded node {(i, j)}") from None


def format_subgoal(mid: SubGoal) -> str:
    """Text form of a sub-goal: `row,col`, or ∅ for the no-split symbol."""
    return "∅" if mid is None else format_cell(mid)


def parse_subgoal(text: str) -> SubGoal:
    """Inverse of format_subgoal."""
    return None if text == "∅" else parse_cell(text)


def dump_tree(tree: SearchTree) -> str:
    """Line-oriented dump: OR lines then AND lines, each sorted by key."""
    cells, n = tree.cells, tree.n
    keys = sorted(tree.and_counts)
    lines = []
    for f in keys:
        i, j = divmod(f, n)
        lines.append(
            f"OR {format_cell(cells[i])} {format_cell(cells[j])} "
            f"{float(tree.V[i, j])!r} {tree.N[i, j]} true"
        )
    splits = sorted(
        (f // n, int(pick), f % n) for f in keys for pick in np.flatnonzero(tree.and_counts[f])
    )
    for i, pick, j in splits:
        mid = None if pick == 0 else cells[pick - 1]
        lines.append(
            f"AND {format_cell(cells[i])} {format_subgoal(mid)} {format_cell(cells[j])} "
            f"{tree.and_counts[i * n + j][pick]}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_tree_dump(text: str, root: OrKey | None = None) -> SearchTree:
    """Rebuild node statistics from a dump, over the cells it names.

    Dumps carry statistics only: priors and cached values are not recorded,
    and the root task is not marked, so pass it explicitly when it matters;
    otherwise the first (lexicographically smallest) OR key stands in.
    Raises ValueError for anything dump_tree cannot have written.
    """
    ors: dict[OrKey, tuple[float, int]] = {}
    ands: dict[tuple[StateId, SubGoal, StateId], int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "OR":
            if len(parts) != 6:
                raise ValueError(f"bad OR line: {line!r}")
            key = OrKey(parse_cell(parts[1]), parse_cell(parts[2]))
            V, N = float(parts[3]), int(parts[4])
            if not 0.0 <= V <= 1.0:
                raise ValueError(f"OR value outside [0, 1]: {line!r}")
            if N < 0:
                raise ValueError(f"negative OR visit count: {line!r}")
            if parts[5] != "true":
                raise ValueError(f"bad expanded flag (dumps hold expanded nodes only): {line!r}")
            if key in ors:
                raise ValueError(f"duplicate OR key: {line!r}")
            ors[key] = (V, N)
        elif parts[0] == "AND":
            if len(parts) != 5:
                raise ValueError(f"bad AND line: {line!r}")
            akey = (parse_cell(parts[1]), parse_subgoal(parts[2]), parse_cell(parts[3]))
            count = int(parts[4])
            if count < 1:
                raise ValueError(f"AND visit count below 1: {line!r}")
            if akey in ands:
                raise ValueError(f"duplicate AND key: {line!r}")
            ands[akey] = count
        else:
            raise ValueError(f"bad tree dump line: {line!r}")
    if not ors:
        raise ValueError("tree dump contains no OR nodes")
    for s, _, s2 in ands:
        if (s, s2) not in ors:
            raise ValueError(f"AND node under a missing OR node {format_cell(s)} {format_cell(s2)}")
    if root is None:
        root = min(ors)
    elif root not in ors:
        raise ValueError(f"root {root} not present in dump")
    cells = sorted({*(c for k in ors for c in k), *(m for _, m, _ in ands if m is not None)})
    index = {c: k for k, c in enumerate(cells)}
    tree = SearchTree(root=root, budget_max=len(ors), max_depth=0, cells=cells)
    for (s, s2), (V, N) in ors.items():
        i, j = index[s], index[s2]
        expand_node(tree, i, j)
        tree.V[i, j] = V
        tree.N[i, j] = N
    for (s, mid, s2), count in ands.items():
        pick = 0 if mid is None else index[mid] + 1
        tree.and_counts[index[s] * tree.n + index[s2]][pick] = count
    return tree
