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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from subplan.gridworld import (
    WALL,
    Maze,
    StateId,
    Task,
    adjacent,
    default_step_limit,
    encode_task,
    execute_plan,
    generate_maze,
    sample_task,
)
from subplan.planner import (
    PlannerConfig,
    PlanningContext,
    PlanResult,
    run_search,
)
from subplan.tree import OrKey, SearchTree, SubGoal, candidate_subgoals

PARSER_KINDS = ("left_first", "right_first", "temporally_balanced", "weight_balanced")
OPTIMIZERS = ("sgd", "adam")


# ---------------------------------------------------------------------------
# fixed baselines


def uniform_prior(task: Task, key: OrKey) -> np.ndarray:
    """Uniform distribution over candidate sub-goals including ∅."""
    cands = candidate_subgoals(task, key)
    return np.full(len(cands), 1.0 / len(cands))


def zero_value(task: Task, key: OrKey) -> float:
    """The untrained value head: always 0, so node init falls back to v_pi."""
    return 0.0


class UntrainedHeuristics:
    """Zero value, uniform prior: the untrained search baseline."""

    def values(self, maze: Maze, pairs: np.ndarray) -> np.ndarray:
        return np.zeros(len(pairs))

    def prior(self, task: Task, key: OrKey, candidates: Sequence[SubGoal]) -> np.ndarray:
        return np.full(len(candidates), 1.0 / len(candidates))


# ---------------------------------------------------------------------------
# features

PATCH = 5  # wall-occupancy window side length
VALUE_DIM = 3 + 2 + 2 * PATCH * PATCH + 2
PRIOR_DIM = 1 + 9 + 6 + 3 * PATCH * PATCH + 2


def _padded_walls(cells: np.ndarray) -> np.ndarray:
    h = PATCH // 2
    return np.pad((cells == WALL).astype(float), h, constant_values=1.0)


def _patch(padded: np.ndarray, s: StateId) -> np.ndarray:
    return padded[s.row : s.row + PATCH, s.col : s.col + PATCH].ravel()


def _offsets(a: StateId, b: StateId, scale: float) -> list[float]:
    dr = b.row - a.row
    dc = b.col - a.col
    return [dr / scale, dc / scale, (abs(dr) + abs(dc)) / scale]


def value_features(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(k, VALUE_DIM) features for rows (r1, c1, r2, c2)."""
    height, width = cells.shape
    scale = float(max(height, width))
    padded = _padded_walls(cells)
    out = np.empty((len(pairs), VALUE_DIM))
    for k, (r1, c1, r2, c2) in enumerate(np.asarray(pairs)):
        a = StateId(int(r1), int(c1))
        b = StateId(int(r2), int(c2))
        out[k, 0:3] = _offsets(a, b, scale)
        out[k, 3] = 1.0 if adjacent(a, b) else 0.0
        out[k, 4] = 1.0 if a == b else 0.0
        out[k, 5 : 5 + PATCH * PATCH] = _patch(padded, a)
        out[k, 5 + PATCH * PATCH : 5 + 2 * PATCH * PATCH] = _patch(padded, b)
        out[k, -2] = height / 32.0
        out[k, -1] = width / 32.0
    return out


def prior_features(
    cells: np.ndarray, s: StateId, s2: StateId, candidates: Sequence[SubGoal]
) -> np.ndarray:
    """(len(candidates), PRIOR_DIM) features for sub-task (s, s'')."""
    height, width = cells.shape
    scale = float(max(height, width))
    padded = _padded_walls(cells)
    pp = PATCH * PATCH
    base = np.zeros(PRIOR_DIM)
    base[7:10] = _offsets(s, s2, scale)
    base[12] = 1.0 if adjacent(s, s2) else 0.0
    base[15] = 1.0 if s == s2 else 0.0
    base[16 + 0 * pp : 16 + 1 * pp] = _patch(padded, s)
    base[16 + 2 * pp : 16 + 3 * pp] = _patch(padded, s2)
    base[-2] = height / 32.0
    base[-1] = width / 32.0
    out = np.tile(base, (len(candidates), 1))
    for k, x in enumerate(candidates):
        if x is None:
            out[k, 0] = 1.0  # the ∅ candidate
            continue
        out[k, 1:4] = _offsets(s, x, scale)
        out[k, 4:7] = _offsets(x, s2, scale)
        out[k, 10] = 1.0 if adjacent(s, x) else 0.0
        out[k, 11] = 1.0 if adjacent(x, s2) else 0.0
        out[k, 13] = 1.0 if s == x else 0.0
        out[k, 14] = 1.0 if x == s2 else 0.0
        out[k, 16 + 1 * pp : 16 + 2 * pp] = _patch(padded, x)
    return out


# ---------------------------------------------------------------------------
# trainable model

PARAM_SHAPES = ("value_w1", "value_b1", "value_w2", "value_b2",
                "prior_w1", "prior_b1", "prior_w2", "prior_b2")


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
        if optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {optimizer!r}")
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
        A = np.tanh(X @ w1 + b1)
        z = A @ w2 + b2[0]
        return z, A

    def value_logits(self, cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        X = value_features(cells, pairs)
        z, _ = self._head_forward("value", X)
        return z

    def prior_logits(
        self, cells: np.ndarray, s: StateId, s2: StateId, candidates: Sequence[SubGoal]
    ) -> np.ndarray:
        X = prior_features(cells, s, s2, candidates)
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
    sampled uniformly with replacement."""

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.prior_entries: list[PriorEntry] = []
        self.value_entries: list[ValueEntry] = []

    def add_prior(self, entry: PriorEntry) -> None:
        if not math.isclose(float(np.sum(entry.target)), 1.0, abs_tol=1e-6):
            raise ValueError("prior target must sum to 1")
        self.prior_entries.append(entry)
        if len(self.prior_entries) > self.capacity:
            self.prior_entries.pop(0)

    def add_value(self, entry: ValueEntry) -> None:
        if not 0.0 <= entry.target <= 1.0:
            raise ValueError("value target must lie in [0, 1]")
        self.value_entries.append(entry)
        if len(self.value_entries) > self.capacity:
            self.value_entries.pop(0)

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
    """Target distribution over candidates, proportional to the product of
    child values V(s,x)·V(x,s'') with select-style bootstrap fallback for
    unexpanded children and v_pi(s,s'') for ∅.

    Returns None when no candidate has positive weight (nothing scorable).
    """
    ctx: PlanningContext = tree.context
    if ctx is None:
        raise ValueError("tree has no planning context")
    node = tree.or_nodes.get(key)
    if node is None or not node.expanded:
        raise ValueError(f"prior targets need an expanded node, got {key}")
    i, j = ctx.kidx(key)
    w = np.empty(ctx.n + 1)
    w[0] = node.v_pi
    w[1:] = ctx.left_values(i) * ctx.right_values(j)
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


# ---------------------------------------------------------------------------
# training step


def _empty_cells_of(cells: np.ndarray) -> list[StateId]:
    rows, cols = np.nonzero(cells != WALL)
    return [StateId(int(r), int(c)) for r, c in zip(rows, cols)]


def train_step(model: TrainableModel, batch: dict) -> tuple[float, float]:
    """One gradient step on summed cross-entropy losses; returns the mean
    prior and value losses of the batch."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    value_entries = batch.get("value", [])
    prior_entries = batch.get("prior", [])
    if not value_entries and not prior_entries:
        raise ValueError("empty batch")

    value_loss = 0.0
    if value_entries:
        X = np.concatenate(
            [
                value_features(
                    _walls_from_encoding(e.encoding),
                    np.array([[e.key.s.row, e.key.s.col, e.key.s2.row, e.key.s2.col]]),
                )
                for e in value_entries
            ]
        )
        g = np.array([e.target for e in value_entries])
        z, A = model._head_forward("value", X)
        # stable Bernoulli cross-entropy: g*softplus(-z) + (1-g)*softplus(z)
        losses = g * _softplus(-z) + (1.0 - g) * _softplus(z)
        value_loss = float(np.mean(losses))
        dz = (_sigmoid(z) - g) / len(value_entries)
        _head_backward(model, grads, "value", X, A, dz)

    prior_loss = 0.0
    if prior_entries:
        feats = []
        for e in prior_entries:
            cells = _walls_from_encoding(e.encoding)
            cands = [None, *_empty_cells_of(cells)]
            if len(cands) != len(e.target):
                raise ValueError("prior target length does not match candidates")
            feats.append(prior_features(cells, e.s, e.s2, cands))
        X = np.concatenate(feats)
        z, A = model._head_forward("prior", X)
        dz = np.empty_like(z)
        off = 0
        total = 0.0
        for e, F in zip(prior_entries, feats):
            m = len(F)
            zs = z[off : off + m]
            p = _softmax(zs)
            logp = zs - (np.max(zs) + math.log(np.sum(np.exp(zs - np.max(zs)))))
            total += float(-np.dot(e.target, logp))
            dz[off : off + m] = (p - e.target) / len(prior_entries)
            off += m
        prior_loss = total / len(prior_entries)
        _head_backward(model, grads, "prior", X, A, dz)

    if not math.isfinite(prior_loss) or not math.isfinite(value_loss):
        raise ValueError(
            f"non-finite loss (prior={prior_loss}, value={value_loss}); "
            "check targets and learning rate"
        )

    _apply_gradients(model, grads)
    return prior_loss, value_loss


def _walls_from_encoding(encoding: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(encoding) == WALL, WALL, 0).astype(np.uint8)


def _head_backward(model, grads, head, X, A, dz) -> None:
    w2 = model.params[f"{head}_w2"]
    grads[f"{head}_w2"] += A.T @ dz
    grads[f"{head}_b2"] += np.array([np.sum(dz)])
    dA = np.outer(dz, w2)
    dZ1 = dA * (1.0 - A * A)
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
            meta[parts[1]] = parts[2]
            i += 1
        elif parts[0] == "param":
            name = parts[1]
            ndim = int(parts[2])
            if ndim == 1:
                n = int(parts[3])
                row = np.array([float(x) for x in lines[i + 1].split()])
                if len(row) != n:
                    raise ValueError(f"bad array length for {name}")
                arrays[name] = row
                i += 2
            else:
                r, c = int(parts[3]), int(parts[4])
                rows = [
                    np.array([float(x) for x in lines[i + 1 + k].split()])
                    for k in range(r)
                ]
                arr = np.stack(rows)
                if arr.shape != (r, c):
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
    return np.array([int(ch) for ch in text], dtype=np.uint8).reshape(height, width)


def save_replay(buffer: ReplayBuffer) -> str:
    """Text snapshot mirroring the checkpoint format."""
    lines = ["replay v1", f"meta capacity {buffer.capacity}"]
    for e in buffer.value_entries:
        h, w = e.encoding.shape
        lines.append(
            "value "
            f"{e.key.s.row},{e.key.s.col} {e.key.s2.row},{e.key.s2.col} "
            f"{repr(float(e.target))} {h} {w} {_encode_compact(e.encoding)}"
        )
    for e in buffer.prior_entries:
        h, w = e.encoding.shape
        mid = "∅" if e.mid is None else f"{e.mid.row},{e.mid.col}"
        target = " ".join(repr(float(x)) for x in e.target)
        lines.append(
            "prior "
            f"{e.s.row},{e.s.col} {mid} {e.s2.row},{e.s2.col} "
            f"{h} {w} {_encode_compact(e.encoding)} {target}"
        )
    return "\n".join(lines) + "\n"


def _parse_cell(text: str) -> StateId:
    r, c = text.split(",")
    return StateId(int(r), int(c))


def load_replay(text: str) -> ReplayBuffer:
    """Inverse of save_replay.  Entries pass the same checks as add_value and
    add_prior, and a snapshot may not hold more entries than its capacity."""
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
            s = _parse_cell(parts[1])
            s2 = _parse_cell(parts[2])
            target = float(parts[3])
            h, w = int(parts[4]), int(parts[5])
            enc = _decode_compact(parts[6], h, w)
            buffer.add_value(ValueEntry(enc, OrKey(s, s2), target))
        else:
            if len(buffer.prior_entries) >= buffer.capacity:
                raise ValueError("replay snapshot holds more prior entries than its capacity")
            s = _parse_cell(parts[1])
            mid = None if parts[2] == "∅" else _parse_cell(parts[2])
            s2 = _parse_cell(parts[3])
            h, w = int(parts[4]), int(parts[5])
            enc = _decode_compact(parts[6], h, w)
            target = np.array([float(x) for x in parts[7:]])
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


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


def _derive_int(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
            seed=_derive_int(seed, 4),
        )
    if buffer is None:
        buffer = ReplayBuffer(capacity=train_config.capacity)

    records: list[TrainRecord] = []
    for episode in range(start_episode, train_config.episodes):
        maze = generate_maze(
            env_config.width,
            env_config.height,
            env_config.density,
            seed=_derive_int(seed, 0, episode),
        )
        task = sample_task(maze, seed=_derive_int(seed, 1, episode))
        cfg = PlannerConfig(
            budget=planner_config.budget,
            max_depth=planner_config.max_depth,
            c_puct=planner_config.c_puct,
            mode=planner_config.mode,
            seed=_derive_int(seed, 5, episode),
            parallel_and=planner_config.parallel_and,
        )
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
