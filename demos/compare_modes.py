"""
Divide-and-conquer versus sequential search under a budget
==========================================================

The planner can spend its expansion budget two ways: splitting tasks into
sub-goal pairs recursively (divide-and-conquer) or always extending the
prefix from the start (sequential, a plain MCTS baseline).  This script
sweeps the budget on a shared batch of tasks and prints solve fractions
with Wilson 95% intervals for both modes, plus the descend-rule variants
at one fixed budget.
"""

from subplan import (
    EnvConfig,
    PlannerConfig,
    UntrainedHeuristics,
    MODES,
    sweep_table,
)

heuristics = UntrainedHeuristics()
env = EnvConfig(width=11, height=11, density=0.75)

# One row per budget, three columns (fraction, ci_low, ci_high) per mode.
# Both modes see exactly the same mazes and tasks at every budget.
print(sweep_table(heuristics, "untrained", env,
                  budgets=[25, 50, 100, 200],
                  modes=["dc", "sequential"],
                  c_pucts=[PlannerConfig.c_puct],
                  tasks=40, seed=0))

# The divide-and-conquer planner also supports three descend rules that
# commit to one branch of a split instead of refining both.  Compare all
# five modes at a single budget, again on the same tasks.
print(sweep_table(heuristics, "untrained", env, budgets=[100], modes=MODES,
                  c_pucts=[PlannerConfig.c_puct], tasks=40, seed=0))
