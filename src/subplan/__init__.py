"""Divide-and-conquer Monte Carlo tree search over sub-goals in mazes.

The package root exports what a script needs to generate mazes, plan,
train and evaluate; everything else is imported from its module.
"""

from subplan.gridworld import execute_plan, generate_maze, sample_task, serialize_maze
from subplan.harness import (
    ExperimentConfig,
    evaluate,
    plan_report,
    render_plan,
    run_training,
    sweep_table,
)
from subplan.heuristics import EnvConfig, UntrainedHeuristics, load_checkpoint
from subplan.planner import MODES, PlannerConfig, run_search

__all__ = [
    "EnvConfig",
    "ExperimentConfig",
    "MODES",
    "PlannerConfig",
    "UntrainedHeuristics",
    "evaluate",
    "execute_plan",
    "generate_maze",
    "load_checkpoint",
    "plan_report",
    "render_plan",
    "run_search",
    "run_training",
    "sample_task",
    "serialize_maze",
    "sweep_table",
]
