"""Experiment harness: config files, metrics records, plan rendering,
evaluation, learning-curve and sweep tables, and artifact validation.

Everything here is deterministic given explicit seeds: evaluation tasks come
from a seed-indexed stream (domain 1000) disjoint from the training streams,
floats are serialized via repr, and no wall-clock values enter any artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .gridworld import (
    Maze,
    StateId,
    Task,
    default_step_limit,
    derive_seed,
    execute_plan,
    format_cell,
    generate_maze,
    parse_maze,
    sample_task,
)
from .heuristics import (
    EnvConfig,
    TrainConfig,
    TrainingRun,
    load_checkpoint,
    load_replay,
    save_checkpoint,
    save_replay,
    training_loop,
)
from .planner import MODES, PlannerConfig, PlanResult, run_search
from .tree import load_tree_dump

# Evaluation draws its own maze/task/execution seeds from this spawn-key
# domain so they can never collide with the training loop's streams.
EVAL_STREAM_DOMAIN = 1000

MODE_ALIASES = {"dc": "divide_and_conquer", "sequential": "sequential_right"}

METRICS_FIELDS = ("episode", "solved", "L", "G", "budget",
                  "prior_loss", "value_loss", "seed")


def canonical_mode(name: str) -> str:
    mode = MODE_ALIASES.get(name, name)
    if mode not in MODES:
        choices = ", ".join(list(MODE_ALIASES) + list(MODES))
        raise ValueError(f"unknown mode {name!r} (choices: {choices})")
    return mode


# ---------------------------------------------------------------------------
# experiment config


@dataclass
class ExperimentConfig:
    """Flat bundle of environment, planner, and training settings.  The field
    order is the config file's line order; sub-configs own shared defaults.
    `eval_every` is the checkpoint-snapshot cadence in episodes; it runs no
    evaluation."""

    width: int = EnvConfig.width
    height: int = EnvConfig.height
    density: float = EnvConfig.density
    step_limit: int | None = EnvConfig.step_limit
    budget: int = 100
    c_puct: float = PlannerConfig.c_puct
    max_depth: int = PlannerConfig.max_depth
    mode: str = PlannerConfig.mode
    episodes: int = TrainConfig.episodes
    parser: str = TrainConfig.parser
    batch_size: int = TrainConfig.batch_size
    capacity: int = TrainConfig.capacity
    learning_rate: float = TrainConfig.learning_rate
    optimizer: str = TrainConfig.optimizer
    temperature: float = TrainConfig.temperature
    hidden: int = TrainConfig.hidden
    mc_value_targets: bool = TrainConfig.mc_value_targets
    eval_every: int = 250
    seed: int = 0
    out_dir: str = "run"

    def __post_init__(self):
        self.mode = canonical_mode(self.mode)
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        # constructing the sub-configs validates the remaining fields
        self.env_config()
        self.planner_config()
        self.train_config()

    def _sub_config(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def env_config(self) -> EnvConfig:
        return self._sub_config(EnvConfig)

    def planner_config(self) -> PlannerConfig:
        return self._sub_config(PlannerConfig)

    def train_config(self) -> TrainConfig:
        return self._sub_config(TrainConfig)


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce(name: str, hint, raw):
    """Convert a raw string to the field's declared type `hint`."""
    if not isinstance(raw, str):
        return raw
    value = raw.strip()
    if hint == int | None:
        return None if value.lower() in ("none", "null", "") else int(value)
    if hint is bool:
        low = value.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {raw!r}")
    return hint(value)


def _typed(cls, raw: Mapping[str, object]) -> dict:
    """Raw record values converted to `cls`'s declared field types."""
    hints = get_type_hints(cls)
    return {name: _coerce(name, hints[name], value) for name, value in raw.items()}


def _record_text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _record_lines(obj) -> list[str]:
    """`name = value` lines for a dataclass's fields in declaration order."""
    return [f"{f.name} = {_record_text(getattr(obj, f.name))}" for f in fields(obj)]


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def experiment_config(mapping: Mapping[str, object]) -> ExperimentConfig:
    """Build a config from a parsed file."""
    known = {f.name for f in fields(ExperimentConfig)}
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentConfig(**_typed(ExperimentConfig, mapping))


def load_config_file(path: str | Path) -> ExperimentConfig:
    return experiment_config(parse_config_text(Path(path).read_text()))


def serialize_config(config: ExperimentConfig) -> str:
    return "\n".join(_record_lines(config)) + "\n"


# ---------------------------------------------------------------------------
# metrics records


def metrics_line(record) -> str:
    obj = {
        "episode": record.episode,
        "solved": bool(record.solved),
        "L": record.L,
        "G": record.G,
        "budget": record.budget,
        "prior_loss": record.prior_loss,
        "value_loss": record.value_loss,
        "seed": record.seed,
        "plan_length": record.plan_length,
        "steps": record.steps,
    }
    return json.dumps(obj, sort_keys=True)


def parse_metrics_text(text: str) -> list[dict]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"metrics line {lineno}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"metrics line {lineno}: expected an object")
        missing = [k for k in METRICS_FIELDS if k not in obj]
        if missing:
            raise ValueError(f"metrics line {lineno}: missing fields {missing}")
        if not isinstance(obj["episode"], int) or not isinstance(obj["seed"], int):
            raise ValueError(f"metrics line {lineno}: episode/seed must be integers")
        if not isinstance(obj["solved"], bool):
            raise ValueError(f"metrics line {lineno}: solved must be a boolean")
        for key in ("L", "G"):
            v = obj[key]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"metrics line {lineno}: {key} must be finite")
        for key in ("prior_loss", "value_loss"):
            v = obj[key]
            if v is not None and (not isinstance(v, (int, float)) or not math.isfinite(v)):
                raise ValueError(f"metrics line {lineno}: {key} must be finite or null")
        records.append(obj)
    return records


# ---------------------------------------------------------------------------
# plan rendering and reports


def render_plan(maze: Maze, task: Task, result: PlanResult) -> str:
    """Character grid of the maze with the plan's sub-goals numbered in plan
    order.  A cell revisited by the plan shows the occurrence introduced at
    the smallest solution-tree depth; S and G mark unnumbered endpoints."""
    mids: list[tuple[StateId, int]] = []

    def walk(node, depth):
        if node.terminal:
            return
        walk(node.left, depth + 1)
        mids.append((node.chosen, depth))
        walk(node.right, depth + 1)

    walk(result.solution_tree.root, 0)
    best: dict[StateId, tuple[int, int]] = {}
    for number, (cell, depth) in enumerate(mids, start=1):
        seen = best.get(cell)
        if seen is None or depth < seen[0]:
            best[cell] = (depth, number)
    labels = {cell: str(number) for cell, (_, number) in best.items()}
    labels.setdefault(task.start, "S")
    labels.setdefault(task.goal, "G")
    width = max(len(v) for v in labels.values())
    rows = []
    for r in range(maze.height):
        tokens = []
        for c in range(maze.width):
            s = StateId(r, c)
            if s in labels:
                tok = labels[s]
            elif maze.cells[r, c]:
                tok = "#" * width
            else:
                tok = "."
            tokens.append(tok.rjust(width))
        rows.append(" ".join(tokens))
    return "\n".join(rows) + "\n"


def plan_report(result: PlanResult, config: PlannerConfig,
                maze: Maze, task: Task, render: bool = False) -> str:
    stats = result.tree_stats
    lines = [
        "plan v1",
        f"mode = {config.mode}",
        f"start = {format_cell(task.start)}",
        f"goal = {format_cell(task.goal)}",
        f"budget = {config.budget}",
        f"budget_used = {result.budget_used}",
        f"L = {result.plan.objective_L!r}",
        f"G = {result.returns[0][1]!r}",
        f"plan_length = {len(result.plan.sigma)}",
        "plan = " + " ".join(format_cell(s) for s in result.plan.sigma),
        f"or_nodes = {stats['or_nodes']}",
        f"and_nodes = {stats['and_nodes']}",
        f"traversals = {stats['traversals']}",
        f"stop = {stats['stop']}",
    ]
    text = "\n".join(lines) + "\n"
    if render:
        text += "\n" + render_plan(maze, task, result)
    return text


# ---------------------------------------------------------------------------
# evaluation


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def eval_task(env: EnvConfig, seed: int, index: int) -> Task:
    """The index-th task of the evaluation stream for this seed.

    Evaluation pairs keep a minimum start-goal separation that scales with
    the board, so the reported fractions measure planning rather than
    adjacent-pair luck."""
    maze = generate_maze(env.width, env.height, env.density,
                         seed=derive_seed(seed, EVAL_STREAM_DOMAIN, index, 0))
    return sample_task(maze, seed=derive_seed(seed, EVAL_STREAM_DOMAIN, index, 1),
                       min_dist=(env.width + env.height) // 4)


@dataclass
class EvalSummary:
    mode: str
    width: int
    height: int
    density: float
    budget: int
    c_puct: float
    tasks: int
    solved: int
    fraction: float
    ci_low: float
    ci_high: float
    seed: int
    heuristics: str


def evaluate(heuristics, env: EnvConfig, planner_config: PlannerConfig,
             tasks: int, seed: int, label: str = "untrained") -> EvalSummary:
    """Solve fraction over freshly sampled tasks, one plan execution each."""
    if tasks <= 0:
        raise ValueError("tasks must be positive")
    solved = 0
    for index in range(tasks):
        task = eval_task(env, seed, index)
        cfg = replace(planner_config,
                      seed=derive_seed(seed, EVAL_STREAM_DOMAIN, index, 3))
        result = run_search(task, heuristics, cfg)
        limit = env.step_limit
        if limit is None:
            limit = default_step_limit(task)
        rng = np.random.default_rng(derive_seed(seed, EVAL_STREAM_DOMAIN, index, 2))
        traj = execute_plan(rng, task, result.plan.sigma, step_limit=limit)
        solved += traj.reached_goal
    low, high = wilson_interval(solved, tasks)
    return EvalSummary(mode=planner_config.mode, width=env.width,
                       height=env.height, density=env.density,
                       budget=planner_config.budget,
                       c_puct=planner_config.c_puct, tasks=tasks,
                       solved=solved, fraction=solved / tasks,
                       ci_low=low, ci_high=high, seed=seed, heuristics=label)


def serialize_summary(summary: EvalSummary) -> str:
    return "\n".join(["summary v1", *_record_lines(summary)]) + "\n"


def parse_summary(text: str) -> EvalSummary:
    lines = text.splitlines()
    if not lines or lines[0] != "summary v1":
        raise ValueError("bad summary header")
    raw = parse_config_text("\n".join(lines[1:]))
    names = [f.name for f in fields(EvalSummary)]
    missing = [k for k in names if k not in raw]
    if missing:
        raise ValueError(f"summary missing fields {missing}")
    return EvalSummary(**_typed(EvalSummary, {k: raw[k] for k in names}))


# ---------------------------------------------------------------------------
# training orchestration


def run_training(config: ExperimentConfig, out_dir: str | Path,
                 resume: bool = False) -> TrainingRun:
    """Run (or resume) a training experiment, writing metrics, a resolved
    config, a rolling checkpoint/replay pair, and cadence snapshots.  A resume
    whose snapshot disagrees with the config's model settings or replay
    capacity, or is past its episodes, raises before anything is written."""
    out = Path(out_dir)
    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "checkpoint.txt"
    replay_path = out / "replay.txt"

    model = None
    buffer = None
    start = 0
    if resume:
        if not checkpoint_path.exists():
            raise ValueError(f"nothing to resume: {checkpoint_path} not found")
        model, start = load_checkpoint(checkpoint_path.read_text())
        buffer = load_replay(replay_path.read_text())
        train = config.train_config()
        pairs = [(k, getattr(model, k), getattr(train, k))
                 for k in ("hidden", "temperature", "learning_rate", "optimizer")]
        pairs.append(("capacity", buffer.capacity, train.capacity))
        changed = [f"{k} {old!r} (config {new!r})" for k, old, new in pairs if old != new]
        if start > config.episodes:
            changed.append(f"episode {start} (config episodes {config.episodes})")
        if changed:
            raise ValueError(f"cannot resume {out}: the snapshot has "
                             + ", ".join(changed))

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))
    if resume:
        kept = []
        if metrics_path.exists():
            for line in metrics_path.read_text().splitlines():
                if line.strip() and json.loads(line)["episode"] < start:
                    kept.append(line)
        metrics_path.write_text("".join(l + "\n" for l in kept))
    else:
        metrics_path.write_text("")

    handle = metrics_path.open("a")

    def on_episode(episode, record, model, buffer):
        handle.write(metrics_line(record) + "\n")
        handle.flush()
        done = episode + 1
        if done % config.eval_every == 0 and done < config.episodes:
            text = save_checkpoint(model, episode=done)
            checkpoint_path.write_text(text)
            replay_path.write_text(save_replay(buffer))
            (out / f"checkpoint_{done:06d}.txt").write_text(text)

    try:
        run = training_loop(config.env_config(), config.planner_config(),
                            config.train_config(), seed=config.seed,
                            model=model, buffer=buffer, start_episode=start,
                            on_episode=on_episode)
    finally:
        handle.close()
    final = save_checkpoint(run.model, episode=config.episodes)
    checkpoint_path.write_text(final)
    replay_path.write_text(save_replay(run.buffer))
    (out / f"checkpoint_{config.episodes:06d}.txt").write_text(final)
    return run


# ---------------------------------------------------------------------------
# learning-curve and sweep tables


def _float_cell(x: float) -> str:
    return repr(float(x))


def learning_curve_table(run_dirs: Sequence[str | Path], window: int) -> str:
    """Solve fraction per episode window, one column per run."""
    if len(run_dirs) < 2:
        raise ValueError("need at least two run directories to compare")
    if window <= 0:
        raise ValueError("window must be positive")
    names = [Path(d).name for d in run_dirs]
    configs = []
    runs = []
    for d in run_dirs:
        d = Path(d)
        configs.append(load_config_file(d / "config.txt"))
        runs.append(parse_metrics_text((d / "metrics.jsonl").read_text()))
    base = configs[0]
    for name, cfg, records in zip(names, configs, runs):
        mismatched = [k for k in ("width", "height", "density", "episodes")
                      if getattr(cfg, k) != getattr(base, k)]
        if mismatched:
            raise ValueError(f"incompatible run metadata for {name!r}: "
                             f"{mismatched} differ from {names[0]!r}")
        if not records:
            raise ValueError(f"run {name!r} has no metrics records")
    episodes = base.episodes
    lines = ["compare v1",
             f"# solve fraction per {window}-episode window",
             "\t".join(["episode"] + names)]
    for lo in range(0, episodes, window):
        hi = min(lo + window, episodes)
        row = [str(hi)]
        for records in runs:
            bucket = [r for r in records if lo <= r["episode"] < hi]
            if not bucket:
                raise ValueError(f"no records in episode window [{lo}, {hi})")
            row.append(_float_cell(sum(r["solved"] for r in bucket) / len(bucket)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def sweep_table(heuristics, label: str, env: EnvConfig, budgets: Sequence[int],
                modes: Sequence[str], c_pucts: Sequence[float], tasks: int,
                seed: int, max_depth: int = PlannerConfig.max_depth) -> str:
    """Solve fraction per (budget, c_puct) row and mode column, every cell on
    one shared evaluation task set; budgets are the outer row order."""
    if not budgets or not modes or not c_pucts:
        raise ValueError("need at least one budget, one mode and one c_puct")
    canon = [canonical_mode(m) for m in modes]
    header = ["budget", "c_puct"]
    for name in modes:
        header += [f"{name}_fraction", f"{name}_ci_low", f"{name}_ci_high"]
    lines = ["sweep v1",
             f"# heuristics = {label}; tasks = {tasks}; seed = {seed}",
             "\t".join(header)]
    for budget in budgets:
        for c in c_pucts:
            row = [str(budget), _float_cell(c)]
            for mode in canon:
                cfg = PlannerConfig(budget=budget, max_depth=max_depth,
                                    c_puct=float(c), mode=mode)
                s = evaluate(heuristics, env, cfg, tasks, seed, label=label)
                row += [_float_cell(s.fraction), _float_cell(s.ci_low),
                        _float_cell(s.ci_high)]
            lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    if not lines or lines[0] not in ("compare v1", "sweep v1"):
        raise ValueError("bad table header")
    body = [l for l in lines[1:] if l.strip() and not l.startswith("#")]
    if not body:
        raise ValueError("table has no header row")
    header = body[0].split("\t")
    rows = []
    for line in body[1:]:
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"table row has {len(cells)} cells, expected {len(header)}")
        rows.append([float(c) for c in cells])
    return header, rows


# ---------------------------------------------------------------------------
# artifact validation


def _first_line(text: str) -> str:
    return (text.splitlines() or [""])[0]


def _check_metrics(text: str) -> None:
    if not parse_metrics_text(text):
        raise ValueError("metrics file has no records")


def _check_plan_report(text: str) -> None:
    body = text.split("\n\n", 1)[0]
    raw = parse_config_text("\n".join(body.splitlines()[1:]))
    for key in ("mode", "budget", "budget_used", "L", "G", "plan"):
        if key not in raw:
            raise ValueError(f"plan report missing {key!r}")


# (kind, test on the file text, strict parser), tried in order
_ARTIFACT_KINDS = (
    ("maze", lambda t: _first_line(t).startswith("maze v1"), parse_maze),
    ("checkpoint", lambda t: _first_line(t) == "model v1", load_checkpoint),
    ("replay", lambda t: _first_line(t) == "replay v1", load_replay),
    ("summary", lambda t: _first_line(t) == "summary v1", parse_summary),
    ("table", lambda t: _first_line(t) in ("compare v1", "sweep v1"), parse_table),
    ("plan-report", lambda t: _first_line(t) == "plan v1", _check_plan_report),
    ("tree-dump", lambda t: _first_line(t).startswith("OR "), load_tree_dump),
    ("metrics", lambda t: t.lstrip().startswith("{"), _check_metrics),
    ("config", lambda t: True, lambda t: experiment_config(parse_config_text(t))),
)


def _artifact_kind(text: str):
    return next(entry for entry in _ARTIFACT_KINDS if entry[1](text))


def detect_artifact_type(text: str) -> str:
    return _artifact_kind(text)[0]


def validate_artifact(text: str) -> str:
    """Parse a harness-written file strictly; returns its detected type."""
    if not text.strip():
        raise ValueError("empty artifact file")
    kind, _, check = _artifact_kind(text)
    try:
        check(text)
    except Exception as exc:  # any parse failure means an invalid file
        raise ValueError(f"invalid {kind} file: {exc}") from exc
    return kind
