"""Command-line front end.

Subcommands: gen, plan, train, eval, compare (align the learning curves of
training runs), sweep (solve fractions over budgets, modes and c_puct on one
task set), validate.  All randomness flows from explicit seed flags, so any
command re-run with the same flags writes byte-identical artifacts.  Exit
codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .gridworld import (
    StateId,
    Task,
    generate_maze,
    parse_cell,
    parse_maze,
    sample_task,
    serialize_maze,
)
from .heuristics import EnvConfig, UntrainedHeuristics, load_checkpoint
from .planner import PlannerConfig, run_search
from .tree import dump_tree

DEFAULT_MODE = "dc"


def _density(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"density must be in [0, 1], got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _cell(text: str) -> StateId:
    try:
        return parse_cell(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'row,col', got {text!r}") from exc


def _mode(text: str) -> str:
    try:
        return harness.canonical_mode(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _mode_name(text: str) -> str:
    _mode(text)  # validate; tables keep the user's spelling
    return text


def _list_of(item):
    """Comma-separated list parser whose entries `item` converts."""
    def parse(text: str) -> list:
        values = [item(x.strip()) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"
    return parse


def _load_heuristics(args) -> tuple[object, str]:
    if args.checkpoint:
        model, _ = load_checkpoint(Path(args.checkpoint).read_text())
        return model, Path(args.checkpoint).name
    return UntrainedHeuristics(), "untrained"


def _add_heuristics_flags(p: argparse.ArgumentParser, required: bool = False):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--checkpoint", default=None,
                       help="heuristics checkpoint (default: untrained)")
    group.add_argument("--untrained", action="store_true",
                       help="use untrained heuristics")


def _add_planner_flags(p: argparse.ArgumentParser,
                       budget_default: int = harness.ExperimentConfig.budget):
    p.add_argument("--budget", type=_positive_int, default=budget_default,
                   help="search budget in node expansions")
    p.add_argument("--mode", type=_mode, default=DEFAULT_MODE,
                   help="planner mode (dc, sequential, or a descend variant)")
    p.add_argument("--c-puct", type=float, default=PlannerConfig.c_puct)
    p.add_argument("--max-depth", type=_positive_int, default=PlannerConfig.max_depth)


def _add_env_flags(p: argparse.ArgumentParser):
    p.add_argument("--size", type=_positive_int, default=EnvConfig.width,
                   help="maze side length (square)")
    p.add_argument("--width", type=_positive_int, default=None)
    p.add_argument("--height", type=_positive_int, default=None)
    p.add_argument("--density", type=_density, default=EnvConfig.density)
    p.add_argument("--step-limit", type=_positive_int, default=None)


def _env_from_flags(args) -> EnvConfig:
    width = args.width if args.width is not None else args.size
    height = args.height if args.height is not None else args.size
    return EnvConfig(width, height, args.density, args.step_limit)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    maze = generate_maze(args.width, args.height, args.density, seed=args.seed)
    start = goal = None
    if args.task_seed is not None:
        task = sample_task(maze, seed=args.task_seed)
        start, goal = task.start, task.goal
    Path(args.out).write_text(serialize_maze(maze, start, goal))
    print(args.out)
    return 0


def cmd_plan(args) -> int:
    maze, file_start, file_goal = parse_maze(Path(args.maze).read_text())
    start = args.start if args.start is not None else file_start
    goal = args.goal if args.goal is not None else file_goal
    if start is None or goal is None:
        print("error: start and goal required (flags or S/G markers in the "
              "maze file)", file=sys.stderr)
        return 2
    task = Task(maze, start, goal)
    heuristics, _ = _load_heuristics(args)
    config = PlannerConfig(budget=args.budget, max_depth=args.max_depth,
                           c_puct=args.c_puct, mode=args.mode,
                           seed=args.seed)
    result = run_search(task, heuristics, config)
    print(harness.plan_report(result, config, maze, task, render=args.render),
          end="")
    if args.dump_tree:
        Path(args.dump_tree).write_text(dump_tree(result.tree))
        print(f"tree dump -> {args.dump_tree}")
    return 0


def cmd_train(args) -> int:
    config = harness.load_config_file(args.config)
    out_dir = Path(args.out) if args.out else Path(config.out_dir)
    run = harness.run_training(config, out_dir, resume=args.resume)
    solved = sum(r.solved for r in run.records)
    print(f"{out_dir}: {len(run.records)} episodes, {solved} solved")
    return 0


def cmd_eval(args) -> int:
    heuristics, label = _load_heuristics(args)
    env = _env_from_flags(args)
    config = PlannerConfig(budget=args.budget, max_depth=args.max_depth,
                           c_puct=args.c_puct, mode=args.mode)
    summary = harness.evaluate(heuristics, env, config, args.tasks,
                               args.seed, label=label)
    text = harness.serialize_summary(summary)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_compare(args) -> int:
    text = harness.learning_curve_table(args.runs, args.window)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_sweep(args) -> int:
    heuristics, label = _load_heuristics(args)
    env = _env_from_flags(args)
    text = harness.sweep_table(heuristics, label, env, args.budgets, args.modes,
                               args.c_pucts, args.tasks, args.seed,
                               max_depth=args.max_depth)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_validate(args) -> int:
    for path in args.files:
        kind = harness.validate_artifact(Path(path).read_text())
        print(f"{path}: ok ({kind})")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subplan",
        description="Divide-and-conquer tree search over sub-goals in mazes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a maze file")
    p.add_argument("--width", type=_positive_int, required=True)
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--density", type=_density, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task-seed", type=int, default=None,
                   help="also mark a sampled start/goal pair as S/G")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan", help="plan one task on a maze file")
    p.add_argument("--maze", required=True)
    p.add_argument("--start", type=_cell, default=None)
    p.add_argument("--goal", type=_cell, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="heuristics checkpoint (default: untrained)")
    p.add_argument("--render", action="store_true",
                   help="print the maze with numbered sub-goals")
    p.add_argument("--dump-tree", default=None,
                   help="write the search tree dump to this path")
    _add_planner_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="run a training experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config out_dir")
    p.add_argument("--resume", action="store_true",
                   help="continue from the run's rolling checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="measure solve fraction on fresh tasks")
    _add_heuristics_flags(p, required=True)
    p.add_argument("--tasks", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_env_flags(p)
    _add_planner_flags(p, budget_default=200)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="align the learning curves of training runs")
    p.add_argument("runs", nargs="+", help="run directories to align")
    p.add_argument("--window", type=_positive_int, default=250,
                   help="episode window for learning curves")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep",
                       help="solve fraction over budgets, modes and exploration constants")
    p.add_argument("--budgets", type=_list_of(_positive_int),
                   default=[harness.ExperimentConfig.budget], help="e.g. 25,50,100")
    p.add_argument("--modes", type=_list_of(_mode_name), default=[DEFAULT_MODE],
                   help="e.g. dc,sequential,descend_left_first")
    p.add_argument("--c-pucts", type=_list_of(float), default=[PlannerConfig.c_puct])
    _add_heuristics_flags(p)
    p.add_argument("--tasks", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_env_flags(p)
    p.add_argument("--max-depth", type=_positive_int, default=PlannerConfig.max_depth)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check files the harness writes")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except Exception as exc:  # runtime failure: diagnostic, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
