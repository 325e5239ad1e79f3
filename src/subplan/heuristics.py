"""Search heuristics: fixed baselines, a trainable model, hindsight
trajectory parsers, replay buffer, training targets, and the training loop.

The trainable model is a pair of small feed-forward networks over hand-built
features (relative offsets and local wall patches around the cells of a
sub-task): a value head estimating v(s, s'') with a sigmoid, and a prior
head scoring every candidate sub-goal (including ∅) with a temperature
softmax.  Gradients are hand-derived, so checkpoints are plain text and the
finite-difference tests have no framework in the way.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import ArrayLike

from subplan.gridworld import (
    EMPTY,
    GOAL,
    START,
    WALL,
    Maze,
    StateId,
    Task,
    default_step_limit,
    derive_seed,
    encode_task,
    execute_plan,
    format_cell,
    generate_maze,
    parse_cell,
    sample_task,
)
from subplan.planner import (
    PlannerConfig,
    PlanningContext,
    PlanResult,
    run_search,
    selection_scores,
)
from subplan.tree import (
    OrKey,
    SearchTree,
    SubGoal,
    format_subgoal,
    parse_subgoal,
)

PARSER_KINDS = ("left_first", "right_first", "temporally_balanced", "weight_balanced")
OPTIMIZERS = ("sgd", "adam")


# ---------------------------------------------------------------------------
# fixed baselines


class UntrainedHeuristics:
    """Zero value, uniform prior: the untrained search baseline."""

    def values(self, maze: Maze, pairs: np.ndarray) -> np.ndarray:
        return np.zeros(len(pairs))

    def prior(self, task: Task, key: OrKey, candidates: Sequence[SubGoal]) -> np.ndarray:
        return np.full(len(candidates), 1.0 / len(candidates))


# ---------------------------------------------------------------------------
# features

PATCH = 5  # wall-occupancy window side length
PP = PATCH * PATCH
VALUE_DIM = 3 + 2 + 2 * PP + 2
PRIOR_DIM = 1 + 9 + 6 + 3 * PP + 2
BOARD_CACHE_SIZE = 64  # boards whose wall patches and candidates stay cached

# Prior feature columns that describe the candidate x; they are 0 on a ∅ row.
_X_COLS = np.r_[1:7, 10, 11, 13, 14, 16 + PP : 16 + 2 * PP]
_NO_CELL = (0, 0)  # where a ∅ row is computed before its _X_COLS are zeroed
# A prior row's offsets (x - s, s'' - x, s'' - s) are one linear map of its
# candidate cell x and its end row (s, s''): x @ _X_OFFSETS + ends @ _ENDS_OFFSETS.
_X_OFFSETS = np.array([[1, 0, -1, 0, 0, 0], [0, 1, 0, -1, 0, 0]])
_ENDS_OFFSETS = np.array([[-1, 0, 0, 0, -1, 0], [0, -1, 0, 0, 0, -1],
                          [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 1]])


class _Board(NamedTuple):
    patches: np.ndarray  # (height, width, PP) read-only wall flags
    candidates: tuple[SubGoal, ...]  # ∅, then the non-wall cells row-major


def _board(cells: np.ndarray) -> _Board:
    """The cached _Board of a board's walls (its WALL entries)."""
    walls = cells == WALL
    return _board_of_walls(walls.shape, walls.tobytes())


@functools.lru_cache(maxsize=BOARD_CACHE_SIZE)
def _board_of_walls(shape: tuple[int, int], wall_bytes: bytes) -> _Board:
    """Build the _Board of one wall layout; the last BOARD_CACHE_SIZE stay cached."""
    walls = np.frombuffer(wall_bytes, dtype=bool).reshape(shape)
    padded = np.pad(walls, PATCH // 2, constant_values=True)
    patches = sliding_window_view(padded, (PATCH, PATCH)).reshape(*shape, PP)
    patches.flags.writeable = False
    rows, cols = np.nonzero(~walls)
    return _Board(patches, (None, *map(StateId, rows.tolist(), cols.tolist())))


def _pair_columns(out: np.ndarray, d: np.ndarray, scale: float) -> None:
    """Write the columns of t cell pairs from their (k, t, 2) integer
    offsets (dr, dc): out[:, :3t] holds (dr, dc, |dr| + |dc|) / scale per
    pair, out[:, 3t:4t] the adjacent flags and out[:, 4t:5t] the equal flags."""
    k, t, _ = d.shape
    dist = np.abs(d)
    dist = dist[:, :, :1] + dist[:, :, 1:]
    out[:, : 3 * t] = (np.concatenate((d, dist), axis=2) / scale).reshape(k, 3 * t)
    dist = dist.reshape(k, t)
    out[:, 3 * t : 4 * t] = dist == 1
    out[:, 4 * t : 5 * t] = dist == 0


def value_features(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(k, VALUE_DIM) features for rows (r1, c1, r2, c2) of cells on the board.

    Only the shape and the WALL entries of ``cells`` count, so a task
    encoding gives the features of its maze.  A row holds the offsets
    (dr, dc, |dr| + |dc|) over max(height, width), the adjacent and equal
    flags, the PATCH×PATCH wall windows around both cells (off-board cells
    count as walls) and the board size over 32.  The windows are gathered
    from the board's patch tensor, which stays cached for the last
    BOARD_CACHE_SIZE boards, keyed on their shape and wall bytes.
    """
    height, width = cells.shape
    patches = _board(cells).patches
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 4)
    k = len(pairs)
    out = np.empty((k, VALUE_DIM))
    _pair_columns(out, (pairs[:, 2:] - pairs[:, :2]).reshape(k, 1, 2), float(max(height, width)))
    out[:, 5 : 5 + 2 * PP] = patches[pairs[:, 0::2], pairs[:, 1::2]].reshape(k, 2 * PP)
    out[:, -2:] = (height / 32.0, width / 32.0)
    return out


def prior_features(cells: np.ndarray, ends: ArrayLike, candidates: Sequence[SubGoal]) -> np.ndarray:
    """(E·m, PRIOR_DIM) features for E sub-tasks, rows (r1, c1, r2, c2) of
    ends, over the same m candidates.

    The rows are entry-major: entry e's candidate rows are e·m .. e·m + m - 1,
    in the order of candidates.  A row holds the ∅ flag; the offsets of
    s → x, x → s'' and s → s''; the adjacent flags and the equal flags of
    those three pairs; the wall windows around s, x and s''; and the board
    size, each as in value_features and from the same cached patch tensor.
    On a ∅ row every column about x is 0.  A row depends only on its board,
    its ends and its candidate, so one call over E entries gives the bytes
    of E one-row calls stacked.
    """
    height, width = cells.shape
    patches = _board(cells).patches
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 4)
    e, m = len(ends), len(candidates)
    xy = np.fromiter(
        itertools.chain.from_iterable(_NO_CELL if x is None else x for x in candidates),
        dtype=np.int64, count=2 * m,
    ).reshape(m, 2)
    d = xy @ _X_OFFSETS + (ends @ _ENDS_OFFSETS)[:, None]  # (E, m, 6)
    out = np.empty((e * m, PRIOR_DIM))
    out[:, 0] = 0.0
    _pair_columns(out[:, 1:16], d.reshape(e * m, 3, 2), float(max(height, width)))
    rows = out.reshape(e, m, PRIOR_DIM)
    rows[:, :, 16 + PP : 16 + 2 * PP] = patches[xy[:, 0], xy[:, 1]]
    for i, (r1, c1, r2, c2) in enumerate(ends.tolist()):
        rows[i, :, 16 : 16 + PP] = patches[r1, c1]
        rows[i, :, 16 + 2 * PP : 16 + 3 * PP] = patches[r2, c2]
    out[:, -2:] = (height / 32.0, width / 32.0)
    for k, x in enumerate(candidates):
        if x is None:
            out[k::m, _X_COLS] = 0.0
            out[k::m, 0] = 1.0
    return out


# ---------------------------------------------------------------------------
# trainable model

PARAM_SHAPES = ("value_w1", "value_b1", "value_w2", "value_b2",
                "prior_w1", "prior_b1", "prior_w2", "prior_b2")


def _check_model_settings(hidden: int, temperature: float, learning_rate: float,
                         optimizer: str) -> None:
    """Raise ValueError for a setting no model can infer or train with."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if hidden < 1:
        raise ValueError(f"hidden must be at least 1, got {hidden}")
    for name, value in (("temperature", temperature), ("learning_rate", learning_rate)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


class TrainableModel:
    """Two-headed MLP over hand-built features.

    Output heads start at zero, so a fresh model gives value 0.5 everywhere
    and a uniform prior.  The inference prior applies the configured softmax
    temperature; training targets use temperature 1.
    """

    def __init__(
        self,
        hidden: int = 64,
        temperature: float = 0.003,
        learning_rate: float = 1e-3,
        optimizer: str = "sgd",
        seed: int = 0,
    ):
        _check_model_settings(hidden, temperature, learning_rate, optimizer)
        self.hidden = hidden
        self.temperature = temperature
        self.learning_rate = learning_rate
        self.optimizer = optimizer
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.params: dict[str, np.ndarray] = {
            "value_w1": rng.normal(0, 1.0 / math.sqrt(VALUE_DIM), (VALUE_DIM, hidden)),
            "value_b1": np.zeros(hidden),
            "value_w2": np.zeros(hidden),
            "value_b2": np.zeros(1),
            "prior_w1": rng.normal(0, 1.0 / math.sqrt(PRIOR_DIM), (PRIOR_DIM, hidden)),
            "prior_b1": np.zeros(hidden),
            "prior_w2": np.zeros(hidden),
            "prior_b2": np.zeros(1),
        }
        self.adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_t = 0

    # -- forward -------------------------------------------------------------

    def _head_forward(self, head: str, X: np.ndarray):
        w1 = self.params[f"{head}_w1"]
        b1 = self.params[f"{head}_b1"]
        w2 = self.params[f"{head}_w2"]
        b2 = self.params[f"{head}_b2"]
        A = X @ w1
        A += b1
        np.tanh(A, out=A)  # in place: a whole-board v_hat batch is thousands of rows
        z = A @ w2 + b2[0]
        return z, A

    def value_logits(self, cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        X = value_features(cells, pairs)
        z, _ = self._head_forward("value", X)
        return z

    def prior_logits(
        self, cells: np.ndarray, s: StateId, s2: StateId, candidates: Sequence[SubGoal]
    ) -> np.ndarray:
        X = prior_features(cells, [(*s, *s2)], candidates)
        z, _ = self._head_forward("prior", X)
        return z

    # -- the planner-facing heuristics interface ------------------------------

    def values(self, maze: Maze, pairs: np.ndarray) -> np.ndarray:
        return _sigmoid(self.value_logits(maze.cells, pairs))

    def prior(self, task: Task, key: OrKey, candidates: Sequence[SubGoal]) -> np.ndarray:
        z = self.prior_logits(task.maze.cells, key.s, key.s2, candidates)
        return _softmax(z / self.temperature)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    m = np.max(z)
    e = np.exp(z - m)
    return e / e.sum()


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


# ---------------------------------------------------------------------------
# replay buffer


class PriorEntry(NamedTuple):
    encoding: np.ndarray  # task encoding of the (possibly fictional) task
    s: StateId
    mid: SubGoal
    s2: StateId
    target: np.ndarray  # distribution over candidates of this maze (∅ first)


class ValueEntry(NamedTuple):
    encoding: np.ndarray
    key: OrKey
    target: float


class ReplayBuffer:
    """Two FIFO streams (prior and value entries), each capped at capacity,
    sampled uniformly with replacement.  Past capacity, each add evicts the
    oldest entry of its stream."""

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.prior_entries: deque[PriorEntry] = deque(maxlen=capacity)
        self.value_entries: deque[ValueEntry] = deque(maxlen=capacity)

    def add_prior(self, entry: PriorEntry) -> None:
        if not math.isclose(float(np.sum(entry.target)), 1.0, abs_tol=1e-6):
            raise ValueError("prior target must sum to 1")
        self.prior_entries.append(entry)

    def add_value(self, entry: ValueEntry) -> None:
        if not 0.0 <= entry.target <= 1.0:
            raise ValueError("value target must lie in [0, 1]")
        self.value_entries.append(entry)

    def can_sample(self, batch_size: int) -> bool:
        return (
            len(self.prior_entries) >= batch_size
            and len(self.value_entries) >= batch_size
        )

    def sample(self, rng, batch_size: int) -> dict:
        pi = rng.integers(len(self.prior_entries), size=batch_size)
        vi = rng.integers(len(self.value_entries), size=batch_size)
        return {
            "prior": [self.prior_entries[i] for i in pi],
            "value": [self.value_entries[i] for i in vi],
        }


# ---------------------------------------------------------------------------
# trajectory parsers


def parse_trajectory(
    kind: str,
    states: Sequence[StateId],
    value_fn: Callable[[StateId, StateId], float] | None = None,
) -> list[tuple[StateId, StateId, StateId]]:
    """Hindsight triplets (s, s', s'') from a trajectory's states."""
    if kind not in PARSER_KINDS:
        raise ValueError(f"unknown parser kind {kind!r}")
    if len(states) < 2:
        raise ValueError("trajectory must contain at least two states")
    if len(states) < 3:
        return []
    last = len(states) - 1
    if kind == "left_first":
        return [(states[t], states[t + 1], states[last]) for t in range(last - 1)]
    if kind == "right_first":
        return [(states[0], states[t], states[t + 1]) for t in range(1, last)]

    out: list[tuple[StateId, StateId, StateId]] = []

    def split_at(a: int, b: int) -> int:
        if kind == "temporally_balanced":
            return (a + b) // 2
        best = a + 1
        best_gap = math.inf
        for m in range(a + 1, b):
            gap = abs(value_fn(states[a], states[m]) - value_fn(states[m], states[b]))
            if gap < best_gap:
                best, best_gap = m, gap
        return best

    if kind == "weight_balanced" and value_fn is None:
        raise ValueError("weight_balanced parsing needs a value_fn")

    def recurse(a: int, b: int) -> None:
        if b - a < 2:
            return
        m = split_at(a, b)
        out.append((states[a], states[m], states[b]))
        recurse(a, m)
        recurse(m, b)

    recurse(0, last)
    return out


# ---------------------------------------------------------------------------
# training targets


def value_targets_from_result(result: PlanResult) -> list[tuple[OrKey, float]]:
    """One regression target per solution-tree OR node: its return G."""
    return list(result.returns)


def prior_targets_from_tree(tree: SearchTree, key: OrKey) -> np.ndarray | None:
    """Target distribution over candidates, proportional to Select's
    exploitation scores (selection_scores at c = 0): V(s,x)·V(x,s'') for a
    cell x and v_pi(s,s'') for ∅.

    Returns None when no candidate has positive weight (nothing scorable).
    """
    ctx: PlanningContext = tree.context
    if ctx is None:
        raise ValueError("tree has no planning context")
    i, j = ctx.index.get(key.s), ctx.index.get(key.s2)
    if i is None or j is None or i * ctx.n + j not in tree.and_counts:
        raise ValueError(f"prior targets need an expanded node, got {key}")
    w = selection_scores(tree, i, j, 0.0)
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


# ---------------------------------------------------------------------------
# training step


def _by_board(entries) -> dict[tuple, list[int]]:
    """Batch positions of the entries, grouped by board (shape and wall bytes)
    in order of first appearance."""
    boards: dict[tuple, list[int]] = {}
    for k, e in enumerate(entries):
        walls = e.encoding == WALL
        boards.setdefault((walls.shape, walls.tobytes()), []).append(k)
    return boards


def train_step(model: TrainableModel, batch: dict) -> tuple[float, float]:
    """One gradient step on summed cross-entropy losses; returns the mean
    prior and value losses of the batch.

    Features are built with one value_features and one prior_features call
    per board.  A row depends only on its board and entry, so each board's
    rows are written back at their entries' positions and X keeps the bytes
    (and the row order of X.T @ dZ1) of a per-entry build in batch order.
    """
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    value_entries = batch.get("value", [])
    prior_entries = batch.get("prior", [])
    if not value_entries and not prior_entries:
        raise ValueError("empty batch")

    value_loss = 0.0
    if value_entries:
        X = np.empty((len(value_entries), VALUE_DIM))
        for rows in _by_board(value_entries).values():
            pairs = [(*value_entries[k].key.s, *value_entries[k].key.s2) for k in rows]
            X[rows] = value_features(value_entries[rows[0]].encoding, np.array(pairs))
        g = np.array([e.target for e in value_entries])
        z, A = model._head_forward("value", X)
        # stable Bernoulli cross-entropy: g*softplus(-z) + (1-g)*softplus(z)
        losses = g * _softplus(-z) + (1.0 - g) * _softplus(z)
        value_loss = float(np.mean(losses))
        dz = (_sigmoid(z) - g) / len(value_entries)
        _head_backward(model, grads, "value", X, A, dz)

    prior_loss = 0.0
    if prior_entries:
        boards = [(_board_of_walls(*key).candidates, rows)
                  for key, rows in _by_board(prior_entries).items()]
        for cands, rows in boards:
            if any(len(prior_entries[k].target) != len(cands) for k in rows):
                raise ValueError("prior target length does not match candidates")
        lens = np.array([len(e.target) for e in prior_entries])
        starts = np.cumsum(lens) - lens
        X = np.empty((lens.sum(), PRIOR_DIM))
        for cands, rows in boards:
            ends = [(*prior_entries[k].s, *prior_entries[k].s2) for k in rows]
            at = (starts[rows, None] + np.arange(len(cands))).ravel()
            X[at] = prior_features(prior_entries[rows[0]].encoding, ends, cands)
        z, A = model._head_forward("prior", X)
        # Softmax and cross-entropy over the entries stacked by candidate
        # count; math.log and the row dot products keep every bit of the
        # one-entry-at-a-time form.
        dz = np.empty_like(z)
        losses = np.empty(len(prior_entries))
        for m in np.unique(lens):
            rows = np.flatnonzero(lens == m)
            at = starts[rows, None] + np.arange(m)
            zs = z[at]
            target = np.stack([prior_entries[k].target for k in rows])
            top = zs.max(axis=1, keepdims=True)
            e = np.exp(zs - top)
            total = e.sum(axis=1, keepdims=True)
            logp = zs - (top + np.array([[math.log(t)] for t in total.ravel()]))
            losses[rows] = -np.matmul(target[:, None, :], logp[:, :, None]).ravel()
            dz[at] = (e / total - target) / len(prior_entries)
        prior_loss = sum(losses.tolist()) / len(prior_entries)
        _head_backward(model, grads, "prior", X, A, dz)

    if not math.isfinite(prior_loss) or not math.isfinite(value_loss):
        raise ValueError(
            f"non-finite loss (prior={prior_loss}, value={value_loss}); "
            "check targets and learning rate"
        )

    _apply_gradients(model, grads)
    return prior_loss, value_loss


def _head_backward(model, grads, head, X, A, dz) -> None:
    """Add one head's gradients to grads.  A is overwritten and holds dZ1
    afterwards, so the pass makes one full-size temporary, tanh' = 1 - A²."""
    w2 = model.params[f"{head}_w2"]
    grads[f"{head}_w2"] += A.T @ dz
    grads[f"{head}_b2"] += np.array([np.sum(dz)])
    slope = np.multiply(A, A)
    np.subtract(1.0, slope, out=slope)
    dZ1 = np.multiply(dz[:, None], w2, out=A)  # dA = np.outer(dz, w2), once A is used
    dZ1 *= slope
    grads[f"{head}_w1"] += X.T @ dZ1
    grads[f"{head}_b1"] += np.sum(dZ1, axis=0)


def _apply_gradients(model: TrainableModel, grads: dict) -> None:
    lr = model.learning_rate
    if model.optimizer == "sgd":
        for k, g in grads.items():
            model.params[k] -= lr * g
        return
    model.adam_t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = model.adam_t
    for k, g in grads.items():
        model.adam_m[k] = b1 * model.adam_m[k] + (1 - b1) * g
        model.adam_v[k] = b2 * model.adam_v[k] + (1 - b2) * g * g
        mhat = model.adam_m[k] / (1 - b1**t)
        vhat = model.adam_v[k] / (1 - b2**t)
        model.params[k] -= lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# checkpoints


def _fmt_array(name: str, arr: np.ndarray) -> list[str]:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        lines = [f"param {name} 1 {arr.shape[0]}"]
        lines.append(" ".join(repr(float(x)) for x in arr))
        return lines
    lines = [f"param {name} 2 {arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(repr(float(x)) for x in row))
    return lines


def save_checkpoint(model: TrainableModel, episode: int = 0) -> str:
    """Versioned text checkpoint; float repr round-trips exactly."""
    lines = ["model v1"]
    lines.append(f"meta hidden {model.hidden}")
    lines.append(f"meta temperature {repr(model.temperature)}")
    lines.append(f"meta learning_rate {repr(model.learning_rate)}")
    lines.append(f"meta optimizer {model.optimizer}")
    lines.append(f"meta seed {model.seed}")
    lines.append(f"meta episode {episode}")
    lines.append(f"meta adam_t {model.adam_t}")
    for name in PARAM_SHAPES:
        lines.extend(_fmt_array(name, model.params[name]))
    if model.optimizer == "adam":
        for name in PARAM_SHAPES:
            lines.extend(_fmt_array(f"adam_m_{name}", model.adam_m[name]))
            lines.extend(_fmt_array(f"adam_v_{name}", model.adam_v[name]))
    return "\n".join(lines) + "\n"


def load_checkpoint(text: str) -> tuple[TrainableModel, int]:
    lines = text.splitlines()
    if not lines or lines[0] != "model v1":
        raise ValueError("bad checkpoint header")
    meta: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] == "meta":
            if len(parts) != 3:
                raise ValueError(f"bad checkpoint meta line: {lines[i]!r}")
            meta[parts[1]] = parts[2]
            i += 1
        elif parts[0] == "param":
            ndim = int(parts[2]) if len(parts) > 2 else 0
            if ndim not in (1, 2) or len(parts) != 3 + ndim:
                raise ValueError(f"bad checkpoint param line: {lines[i]!r}")
            name = parts[1]
            shape = tuple(int(x) for x in parts[3:])
            r = shape[0] if ndim == 2 else 1
            if i + 1 + r > len(lines):
                raise ValueError(f"checkpoint ends inside parameter {name}")
            arr = np.array([[float(x) for x in lines[i + 1 + k].split()] for k in range(r)])
            if ndim == 1:
                arr = arr.reshape(-1)
            if arr.shape != shape:
                raise ValueError(f"bad array shape for {name}")
            arrays[name] = arr
            i += 1 + r
        else:
            raise ValueError(f"bad checkpoint line: {lines[i]!r}")
    required = ("hidden", "temperature", "learning_rate", "optimizer", "seed")
    absent = [k for k in required if k not in meta]
    if absent:
        raise ValueError(f"checkpoint missing meta keys {absent}")
    model = TrainableModel(
        hidden=int(meta["hidden"]),
        temperature=float(meta["temperature"]),
        learning_rate=float(meta["learning_rate"]),
        optimizer=meta["optimizer"],
        seed=int(meta["seed"]),
    )
    for name in PARAM_SHAPES:
        if name not in arrays:
            raise ValueError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != model.params[name].shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        model.params[name] = arrays[name]
    model.adam_t = int(meta.get("adam_t", "0"))
    if model.optimizer == "adam":
        for name in PARAM_SHAPES:
            for key in (f"adam_m_{name}", f"adam_v_{name}"):
                if key not in arrays:
                    raise ValueError(f"checkpoint missing adam state {key}")
            model.adam_m[name] = arrays[f"adam_m_{name}"]
            model.adam_v[name] = arrays[f"adam_v_{name}"]
    for arr in model.params.values():
        if not np.all(np.isfinite(arr)):
            raise ValueError("checkpoint contains non-finite parameters")
    return model, int(meta.get("episode", "0"))


def _encode_compact(encoding: np.ndarray) -> str:
    return "".join(str(int(x)) for x in np.asarray(encoding).ravel())


def _decode_compact(text: str, height: int, width: int) -> np.ndarray:
    if len(text) != height * width:
        raise ValueError("bad encoding length")
    enc = np.array([int(ch) for ch in text], dtype=np.uint8).reshape(height, width)
    if not np.isin(enc, (EMPTY, WALL, START, GOAL)).all():
        raise ValueError(f"bad encoding labels in {text!r}")
    return enc


def _check_cells(enc: np.ndarray, cells: Sequence[SubGoal]) -> None:
    """Every cell of an entry must be a non-wall cell of its encoding."""
    height, width = enc.shape
    for s in cells:
        if s is None:
            continue
        if not (0 <= s.row < height and 0 <= s.col < width):
            raise ValueError(f"replay cell {format_cell(s)} outside the {height}x{width} encoding")
        if enc[s.row, s.col] == WALL:
            raise ValueError(f"replay cell {format_cell(s)} is a wall")


def save_replay(buffer: ReplayBuffer) -> str:
    """Text snapshot mirroring the checkpoint format."""
    lines = ["replay v1", f"meta capacity {buffer.capacity}"]
    for e in buffer.value_entries:
        h, w = e.encoding.shape
        lines.append(
            f"value {format_cell(e.key.s)} {format_cell(e.key.s2)} "
            f"{repr(float(e.target))} {h} {w} {_encode_compact(e.encoding)}"
        )
    for e in buffer.prior_entries:
        h, w = e.encoding.shape
        target = " ".join(repr(float(x)) for x in e.target)
        lines.append(
            f"prior {format_cell(e.s)} {format_subgoal(e.mid)} {format_cell(e.s2)} "
            f"{h} {w} {_encode_compact(e.encoding)} {target}"
        )
    return "\n".join(lines) + "\n"


def load_replay(text: str) -> ReplayBuffer:
    """Inverse of save_replay.  Entries pass the same checks as add_value and
    add_prior, and a snapshot may not hold more entries than its capacity.
    Encodings hold only empty, wall, start and goal labels, every cell of an
    entry is a non-wall cell of its encoding, and a prior target has one
    weight per candidate (∅ and each non-wall cell)."""
    lines = text.splitlines()
    if not lines or lines[0] != "replay v1":
        raise ValueError("bad replay header")
    buffer = None
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "meta":
            if len(parts) != 3:
                raise ValueError(f"bad replay meta line: {line!r}")
            if parts[1] == "capacity":
                if buffer is not None:
                    raise ValueError("replay snapshot repeats its capacity")
                buffer = ReplayBuffer(capacity=int(parts[2]))
        elif parts[0] not in ("value", "prior"):
            raise ValueError(f"bad replay line: {line!r}")
        elif buffer is None:
            raise ValueError(f"replay entry before the capacity line: {line!r}")
        elif parts[0] == "value":
            if len(buffer.value_entries) >= buffer.capacity:
                raise ValueError("replay snapshot holds more value entries than its capacity")
            s = parse_cell(parts[1])
            s2 = parse_cell(parts[2])
            target = float(parts[3])
            h, w = int(parts[4]), int(parts[5])
            enc = _decode_compact(parts[6], h, w)
            _check_cells(enc, (s, s2))
            buffer.add_value(ValueEntry(enc, OrKey(s, s2), target))
        else:
            if len(buffer.prior_entries) >= buffer.capacity:
                raise ValueError("replay snapshot holds more prior entries than its capacity")
            s = parse_cell(parts[1])
            mid = parse_subgoal(parts[2])
            s2 = parse_cell(parts[3])
            h, w = int(parts[4]), int(parts[5])
            enc = _decode_compact(parts[6], h, w)
            _check_cells(enc, (s, mid, s2))
            target = np.array([float(x) for x in parts[7:]])
            if len(target) != 1 + int(np.sum(enc != WALL)):
                raise ValueError(f"prior target has {len(target)} weights, expected one per candidate")
            buffer.add_prior(PriorEntry(enc, s, mid, s2, target))
    if buffer is None:
        raise ValueError("replay snapshot missing capacity")
    return buffer


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class EnvConfig:
    width: int = 11
    height: int = 11
    density: float = 0.75
    step_limit: int | None = None  # None: 2x the start-goal BFS distance


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 1000
    parser: str = "temporally_balanced"
    batch_size: int = 128
    capacity: int = 2048
    learning_rate: float = 1e-3
    optimizer: str = "sgd"
    temperature: float = 0.003
    hidden: int = 64
    mc_value_targets: bool = False  # ablation: executed returns, not search G

    def __post_init__(self):
        if self.parser not in PARSER_KINDS:
            raise ValueError(f"unknown parser {self.parser!r}")
        _check_model_settings(self.hidden, self.temperature, self.learning_rate, self.optimizer)
        if self.episodes < 0:
            raise ValueError("episodes must be non-negative")
        if not 1 <= self.batch_size <= self.capacity:
            raise ValueError(f"batch_size must lie in [1, capacity {self.capacity}], "
                             f"got {self.batch_size}")


@dataclass(frozen=True)
class TrainRecord:
    episode: int
    solved: bool
    L: float
    G: float
    budget: int
    prior_loss: float | None
    value_loss: float | None
    seed: int
    plan_length: int
    steps: int


class TrainingRun(NamedTuple):
    records: list[TrainRecord]
    model: TrainableModel
    buffer: ReplayBuffer


def training_loop(
    env_config: EnvConfig,
    planner_config: PlannerConfig,
    train_config: TrainConfig,
    seed: int,
    model: TrainableModel | None = None,
    buffer: ReplayBuffer | None = None,
    start_episode: int = 0,
    on_episode: Callable | None = None,
) -> TrainingRun:
    """Self-improvement loop: search with the current model, learn from the
    solution tree and the hindsight-relabeled execution.

    Every per-episode random stream is derived from (seed, episode), so a
    resumed run continues exactly where the interrupted one left off.
    """
    if model is None:
        model = TrainableModel(
            hidden=train_config.hidden,
            temperature=train_config.temperature,
            learning_rate=train_config.learning_rate,
            optimizer=train_config.optimizer,
            seed=derive_seed(seed, 4),
        )
    if buffer is None:
        buffer = ReplayBuffer(capacity=train_config.capacity)
    if buffer.capacity < train_config.batch_size:
        raise ValueError(f"replay capacity {buffer.capacity} is below batch_size "
                         f"{train_config.batch_size}: no train_step could ever run")

    records: list[TrainRecord] = []
    for episode in range(start_episode, train_config.episodes):
        maze = generate_maze(
            env_config.width,
            env_config.height,
            env_config.density,
            seed=derive_seed(seed, 0, episode),
        )
        task = sample_task(maze, seed=derive_seed(seed, 1, episode))
        cfg = replace(planner_config, seed=derive_seed(seed, 5, episode))
        result = run_search(task, model, cfg)
        encoding = encode_task(task)

        if not train_config.mc_value_targets:
            for key, g in value_targets_from_result(result):
                buffer.add_value(ValueEntry(encoding, key, g))
        for node in result.solution_tree.nodes():
            if node.terminal:
                continue
            target = prior_targets_from_tree(result.tree, node.key)
            if target is not None:
                buffer.add_prior(
                    PriorEntry(encoding, node.key.s, node.chosen, node.key.s2, target)
                )

        step_limit = env_config.step_limit or default_step_limit(task)
        exec_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, episode))
        )
        traj = execute_plan(exec_rng, task, result.plan.sigma, step_limit)

        if train_config.mc_value_targets:
            root_key = OrKey(task.start, task.goal)
            buffer.add_value(
                ValueEntry(encoding, root_key, 1.0 if traj.reached_goal else 0.0)
            )

        if len(traj.states) >= 3:
            fictional = Task(maze, traj.states[0], traj.states[-1])
            enc_f = encode_task(fictional)
            value_fn = None
            if train_config.parser == "weight_balanced":
                def value_fn(a, b, _maze=maze):
                    return float(
                        model.values(_maze, np.array([[a.row, a.col, b.row, b.col]]))[0]
                    )
            triplets = parse_trajectory(train_config.parser, traj.states, value_fn)
            index = maze.empty_index
            n_cands = len(maze.empty_cells) + 1
            for a, m, b in triplets:
                one_hot = np.zeros(n_cands)
                one_hot[index[m] + 1] = 1.0
                buffer.add_prior(PriorEntry(enc_f, a, m, b, one_hot))

        prior_loss = value_loss = None
        if buffer.can_sample(train_config.batch_size):
            sample_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(3, episode))
            )
            batch = buffer.sample(sample_rng, train_config.batch_size)
            prior_loss, value_loss = train_step(model, batch)

        record = TrainRecord(
            episode=episode,
            solved=traj.reached_goal,
            L=result.plan.objective_L,
            G=result.returns[0][1],
            budget=result.budget_used,
            prior_loss=prior_loss,
            value_loss=value_loss,
            seed=seed,
            plan_length=len(result.plan.sigma),
            steps=traj.steps,
        )
        records.append(record)
        if on_episode is not None:
            on_episode(episode, record, model, buffer)
    return TrainingRun(records, model, buffer)
