"""Experiment harness: config files, metrics records, plan rendering,
evaluation sweeps, comparison tables, and artifact validation.

Everything here is deterministic given explicit seeds: evaluation tasks come
from a seed-indexed stream (domain 1000) disjoint from the training streams,
floats are serialized via repr, and no wall-clock values enter any artifact.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .gridworld import (
    Maze,
    StateId,
    Task,
    default_step_limit,
    execute_plan,
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

ENV_PREFIX = "SUBPLAN_"

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
    """Flat bundle of environment, planner, and training settings."""

    width: int = 11
    height: int = 11
    density: float = 0.75
    step_limit: int | None = None
    budget: int = 100
    c_puct: float = 5.0
    max_depth: int = 8
    mode: str = "divide_and_conquer"
    parallel_and: bool = False
    episodes: int = 1000
    parser: str = "temporally_balanced"
    batch_size: int = 128
    capacity: int = 2048
    learning_rate: float = 1e-3
    optimizer: str = "sgd"
    temperature: float = 0.003
    hidden: int = 64
    mc_value_targets: bool = False
    eval_every: int = 250
    seed: int = 0
    out_dir: str = "run"

    def __post_init__(self):
        self.mode = canonical_mode(self.mode)
        if self.episodes < 0:
            raise ValueError("episodes must be non-negative")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        # constructing the sub-configs validates the remaining fields
        self.env_config()
        self.planner_config()
        self.train_config()

    def env_config(self) -> EnvConfig:
        return EnvConfig(self.width, self.height, self.density, self.step_limit)

    def planner_config(self) -> PlannerConfig:
        return PlannerConfig(budget=self.budget, max_depth=self.max_depth,
                             c_puct=self.c_puct, mode=self.mode,
                             seed=self.seed, parallel_and=self.parallel_and)

    def train_config(self) -> TrainConfig:
        return TrainConfig(episodes=self.episodes, parser=self.parser,
                           batch_size=self.batch_size, capacity=self.capacity,
                           learning_rate=self.learning_rate,
                           optimizer=self.optimizer,
                           temperature=self.temperature, hidden=self.hidden,
                           mc_value_targets=self.mc_value_targets)


_INT_FIELDS = {"width", "height", "budget", "max_depth", "episodes",
               "batch_size", "capacity", "hidden", "eval_every", "seed"}
_FLOAT_FIELDS = {"density", "c_puct", "learning_rate", "temperature"}
_BOOL_FIELDS = {"parallel_and", "mc_value_targets"}
_OPT_INT_FIELDS = {"step_limit"}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce(name: str, raw):
    if not isinstance(raw, str):
        return raw
    value = raw.strip()
    if name in _INT_FIELDS:
        return int(value)
    if name in _FLOAT_FIELDS:
        return float(value)
    if name in _OPT_INT_FIELDS:
        return None if value.lower() in ("none", "null", "") else int(value)
    if name in _BOOL_FIELDS:
        low = value.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {raw!r}")
    return value


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


def experiment_config(mapping: Mapping[str, object],
                      environ: Mapping[str, str] | None = None) -> ExperimentConfig:
    """Build a config from a parsed file, applying environment overrides."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = dict(mapping)
    for key in values:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    if environ is not None:
        for name in known:
            override = environ.get(ENV_PREFIX + name.upper())
            if override is not None:
                values[name] = override
    kwargs = {name: _coerce(name, value) for name, value in values.items()}
    return ExperimentConfig(**kwargs)


def load_config_file(path: str | Path,
                     environ: Mapping[str, str] | None = None) -> ExperimentConfig:
    if environ is None:
        environ = os.environ
    return experiment_config(parse_config_text(Path(path).read_text()), environ)


def serialize_config(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


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


def _fmt_cell(s: StateId) -> str:
    return f"{s.row},{s.col}"


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
        f"start = {_fmt_cell(task.start)}",
        f"goal = {_fmt_cell(task.goal)}",
        f"budget = {config.budget}",
        f"budget_used = {result.budget_used}",
        f"L = {result.plan.objective_L!r}",
        f"G = {result.returns[0][1]!r}",
        f"plan_length = {len(result.plan.sigma)}",
        "plan = " + " ".join(_fmt_cell(s) for s in result.plan.sigma),
        f"or_nodes = {stats['or_nodes']}",
        f"and_nodes = {stats['and_nodes']}",
        f"traversals = {stats['traversals']}",
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


def _stream_int(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def eval_task(env: EnvConfig, seed: int, index: int) -> Task:
    """The index-th task of the evaluation stream for this seed.

    Evaluation pairs keep a minimum start-goal separation that scales with
    the board, so the reported fractions measure planning rather than
    adjacent-pair luck."""
    maze = generate_maze(env.width, env.height, env.density,
                         seed=_stream_int(seed, EVAL_STREAM_DOMAIN, index, 0))
    return sample_task(maze, seed=_stream_int(seed, EVAL_STREAM_DOMAIN, index, 1),
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
             tasks: int, seed: int, label: str = "untrained",
             workers: int = 1) -> EvalSummary:
    """Solve fraction over freshly sampled tasks, one plan execution each."""
    if tasks <= 0:
        raise ValueError("tasks must be positive")

    def one(index: int) -> bool:
        task = eval_task(env, seed, index)
        cfg = replace(planner_config,
                      seed=_stream_int(seed, EVAL_STREAM_DOMAIN, index, 3))
        result = run_search(task, heuristics, cfg)
        limit = env.step_limit
        if limit is None:
            limit = default_step_limit(task)
        rng = np.random.default_rng(_stream_int(seed, EVAL_STREAM_DOMAIN, index, 2))
        traj = execute_plan(rng, task, result.plan.sigma, step_limit=limit)
        return bool(traj.reached_goal)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(tasks)))
    else:
        outcomes = [one(i) for i in range(tasks)]
    solved = int(sum(outcomes))
    low, high = wilson_interval(solved, tasks)
    return EvalSummary(mode=planner_config.mode, width=env.width,
                       height=env.height, density=env.density,
                       budget=planner_config.budget,
                       c_puct=planner_config.c_puct, tasks=tasks,
                       solved=solved, fraction=solved / tasks,
                       ci_low=low, ci_high=high, seed=seed, heuristics=label)


_SUMMARY_FIELDS = ("mode", "width", "height", "density", "budget", "c_puct",
                   "tasks", "solved", "fraction", "ci_low", "ci_high",
                   "seed", "heuristics")


def serialize_summary(summary: EvalSummary) -> str:
    lines = ["summary v1"]
    for name in _SUMMARY_FIELDS:
        value = getattr(summary, name)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def parse_summary(text: str) -> EvalSummary:
    lines = text.splitlines()
    if not lines or lines[0] != "summary v1":
        raise ValueError("bad summary header")
    raw = parse_config_text("\n".join(lines[1:]))
    missing = [k for k in _SUMMARY_FIELDS if k not in raw]
    if missing:
        raise ValueError(f"summary missing fields {missing}")
    ints = {"width", "height", "budget", "tasks", "solved", "seed"}
    floats = {"density", "c_puct", "fraction", "ci_low", "ci_high"}
    kwargs = {}
    for name in _SUMMARY_FIELDS:
        value = raw[name]
        if name in ints:
            kwargs[name] = int(value)
        elif name in floats:
            kwargs[name] = float(value)
        else:
            kwargs[name] = value
    return EvalSummary(**kwargs)


# ---------------------------------------------------------------------------
# training orchestration


def run_training(config: ExperimentConfig, out_dir: str | Path,
                 resume: bool = False) -> TrainingRun:
    """Run (or resume) a training experiment, writing metrics, a resolved
    config, a rolling checkpoint/replay pair, and cadence snapshots."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "checkpoint.txt"
    replay_path = out / "replay.txt"
    (out / "config.txt").write_text(serialize_config(config))

    model = None
    buffer = None
    start = 0
    if resume:
        if not checkpoint_path.exists():
            raise ValueError(f"nothing to resume: {checkpoint_path} not found")
        model, start = load_checkpoint(checkpoint_path.read_text())
        buffer = load_replay(replay_path.read_text())
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
# comparison tables


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
        configs.append(load_config_file(d / "config.txt", environ={}))
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


def budget_sweep_table(heuristics, label: str, env: EnvConfig,
                       budgets: Sequence[int], modes: Sequence[str],
                       tasks: int, seed: int, c_puct: float = 5.0,
                       max_depth: int = 8, workers: int = 1) -> str:
    """Solve fraction per (budget, mode) on one shared evaluation task set."""
    if not budgets or not modes:
        raise ValueError("need at least one budget and one mode")
    canon = [canonical_mode(m) for m in modes]
    header = ["budget"]
    for name in modes:
        header += [f"{name}_fraction", f"{name}_ci_low", f"{name}_ci_high"]
    lines = ["compare v1",
             f"# heuristics = {label}; tasks = {tasks}; seed = {seed}",
             "\t".join(header)]
    for budget in budgets:
        row = [str(budget)]
        for mode in canon:
            cfg = PlannerConfig(budget=budget, max_depth=max_depth,
                                c_puct=c_puct, mode=mode)
            s = evaluate(heuristics, env, cfg, tasks, seed,
                         label=label, workers=workers)
            row += [_float_cell(s.fraction), _float_cell(s.ci_low),
                    _float_cell(s.ci_high)]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def sweep_table(heuristics, label: str, env: EnvConfig,
                c_pucts: Sequence[float], budget: int, mode: str,
                tasks: int, seed: int, max_depth: int = 8,
                workers: int = 1) -> str:
    """Solve fraction per exploration constant on one shared task set."""
    if not c_pucts:
        raise ValueError("need at least one c_puct sample")
    lines = ["sweep v1",
             f"# heuristics = {label}; mode = {canonical_mode(mode)}; "
             f"budget = {budget}; tasks = {tasks}; seed = {seed}",
             "\t".join(["c_puct", "fraction", "ci_low", "ci_high"])]
    for c in c_pucts:
        cfg = PlannerConfig(budget=budget, max_depth=max_depth,
                            c_puct=float(c), mode=canonical_mode(mode))
        s = evaluate(heuristics, env, cfg, tasks, seed,
                     label=label, workers=workers)
        lines.append("\t".join([_float_cell(c), _float_cell(s.fraction),
                                _float_cell(s.ci_low), _float_cell(s.ci_high)]))
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


def detect_artifact_type(text: str) -> str:
    stripped = text.lstrip()
    first = text.splitlines()[0] if text.splitlines() else ""
    if first.startswith("maze v1"):
        return "maze"
    if first == "model v1":
        return "checkpoint"
    if first == "replay v1":
        return "replay"
    if first == "summary v1":
        return "summary"
    if first in ("compare v1", "sweep v1"):
        return "table"
    if first == "plan v1":
        return "plan-report"
    if first.startswith("OR "):
        return "tree-dump"
    if stripped.startswith("{"):
        return "metrics"
    return "config"


def validate_artifact(text: str) -> str:
    """Parse a harness-written file strictly; returns its detected type."""
    if not text.strip():
        raise ValueError("empty artifact file")
    kind = detect_artifact_type(text)
    try:
        _validate_as(kind, text)
    except ValueError:
        raise
    except Exception as exc:  # any parse failure means an invalid file
        raise ValueError(f"invalid {kind} file: {exc}") from exc
    return kind


def _validate_as(kind: str, text: str) -> None:
    if kind == "maze":
        parse_maze(text)
    elif kind == "checkpoint":
        load_checkpoint(text)
    elif kind == "replay":
        load_replay(text)
    elif kind == "summary":
        parse_summary(text)
    elif kind == "table":
        parse_table(text)
    elif kind == "tree-dump":
        load_tree_dump(text)
    elif kind == "metrics":
        if not parse_metrics_text(text):
            raise ValueError("metrics file has no records")
    elif kind == "plan-report":
        body = text.split("\n\n", 1)[0]
        raw = parse_config_text("\n".join(body.splitlines()[1:]))
        for key in ("mode", "budget", "budget_used", "L", "G", "plan"):
            if key not in raw:
                raise ValueError(f"plan report missing {key!r}")
    else:
        experiment_config(parse_config_text(text))
