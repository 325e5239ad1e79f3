"""The repository benchmark: closed-loop workloads over subplan, one client each.

    python3 bench/run.py --workload search-untrained-15 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each invocation runs one workload in one process and one thread (``all`` runs
every workload in turn, each in a process of its own).  It imports ``subplan``
from ``src/`` of the checkout it sits in, makes its inputs from ``--seed``
(search-trained-11 plans a fixed corpus), measures for about ``--seconds``
seconds, checks every output, and prints a report followed by one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, each operation's time scaled by a fixed
reference work timed next to it (see ``reference_work``); with ``--trace 1``
they are per-layer self times and counts, unscaled, taken by wrapping module
attributes of ``subplan`` from this file (see README.md).
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = BENCH / "fixtures" / "trained_11x11_b100_seed0_ep150.ckpt"
FIXTURE_SHA256 = "e79f2538a6da65fcaad662af20ee3623b2d1b1bd64aafba1ae739767a6d26faf"

DENSITY = 0.75
MODE = "divide_and_conquer"
C_PUCT = 5.0
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
# Timings are reported as if the reference_work next to each operation took
# this long (see reference_work and README.md).  It takes 15 to 35 ms on a
# shared 2-vCPU x86-64 VM, as other tenants' load comes and goes.
REFERENCE_MS = 25.0


@dataclass(frozen=True)
class Workload:
    """A run is at least ``min_passes`` whole passes back to back.  A pass is
    one ``evaluate`` call over ``pass_size`` tasks, or one ``training_loop``
    of ``pass_size`` episodes from a fresh model; its seed is drawn from
    --seed and the pass number, unless ``corpus_seed`` fixes it.  Pass 0 is
    the behaviour digest."""

    name: str
    size: int
    budget: int
    heuristics: str  # "untrained", "trained" (the fixture) or "fresh" (trained in the run)
    pass_size: int
    min_passes: int = 1
    corpus_seed: int | None = None

    @property
    def tail_pct(self) -> int:
        """The highest whole percentile that leaves TAIL_BEYOND samples above
        it in the shortest run.  It is fixed per workload, so that a faster
        program, which fits more samples, is judged at the same percentile."""
        n = self.pass_size * self.min_passes
        return 100 * (n - TAIL_BEYOND) // n


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-untrained-15", 15, 200, "untrained", pass_size=20, min_passes=2),
        # The trained model's search cost is chaotic: one task takes 0.1 to
        # 2 s, and a different tie-break seed alone can double it.  Fresh
        # tasks per run put a 30% spread on plan_ms_p50 at 30 tasks a run, so
        # this workload plans one fixed corpus, the first 30 tasks of
        # `subplan eval --seed 0`, and --seed does not change its inputs.
        Workload("search-trained-11", 11, 100, "trained", pass_size=30, corpus_seed=0),
        # Episodes grow slower as the model learns (train_step starts near
        # episode 15; past about 100 searches turn traversal-bound, which
        # search-trained-11 covers), so every pass trains a fresh model for
        # the same number of episodes.
        Workload("train-11", 11, 100, "fresh", pass_size=40),
    )
}

# Spans of the traced run: (module, attribute, span).  A leading underscore
# marks a private name of subplan, which may change without notice.
TRACED = (
    ("subplan.harness", "evaluate", "loop"),
    ("subplan.heuristics", "training_loop", "loop"),
    ("subplan.harness", "run_search", "planner.run_search"),
    ("subplan.heuristics", "run_search", "planner.run_search"),
    ("subplan.planner", "_extract", "planner.extract"),
    ("subplan.planner", "selection_scores", "planner.select"),
    ("subplan.planner", "_PathRng.integers", "planner.tie_break"),
    ("subplan.planner", "expand_node", "tree.expand"),
    ("subplan.planner", "update_or_stats", "tree.backup"),
    ("subplan.planner", "touch_and_node", "tree.touch_and"),
    ("subplan.heuristics", "value_features", "heuristics.value_features"),
    ("subplan.heuristics", "prior_features", "heuristics.prior_features"),
    ("subplan.heuristics", "TrainableModel.values", "heuristics.forward"),
    ("subplan.heuristics", "TrainableModel.prior", "heuristics.forward"),
    ("subplan.heuristics", "UntrainedHeuristics.values", "heuristics.forward"),
    ("subplan.heuristics", "UntrainedHeuristics.prior", "heuristics.forward"),
    ("subplan.heuristics", "train_step", "heuristics.train_step"),
    ("subplan.heuristics", "prior_targets_from_tree", "heuristics.prior_targets"),
    ("subplan.heuristics", "ReplayBuffer.add_prior", "heuristics.replay_add"),
    ("subplan.heuristics", "ReplayBuffer.add_value", "heuristics.replay_add"),
    ("subplan.harness", "sample_task", "gridworld.sample_task"),
    ("subplan.heuristics", "sample_task", "gridworld.sample_task"),
    ("subplan.harness", "generate_maze", "gridworld.generate_maze"),
    ("subplan.heuristics", "generate_maze", "gridworld.generate_maze"),
    ("subplan.harness", "execute_plan", "gridworld.execute_plan"),
    ("subplan.heuristics", "execute_plan", "gridworld.execute_plan"),
    ("subplan.gridworld", "Pi0.value_matrix", "gridworld.value_matrix"),
)

# Per-layer metrics: (metric, span, "ms" for self time or "calls").
LAYER_SPANS = (
    ("planner.traverse_self_ms", "planner.run_search", "ms"),
    ("planner.extract_ms", "planner.extract", "ms"),
    ("planner.select_ms", "planner.select", "ms"),
    ("planner.select_calls", "planner.select", "calls"),
    ("planner.tie_break_ms", "planner.tie_break", "ms"),
    ("planner.tie_break_calls", "planner.tie_break", "calls"),
    ("tree.backup_ms", "tree.backup", "ms"),
    ("tree.touch_and_ms", "tree.touch_and", "ms"),
    ("tree.expand_calls", "tree.expand", "calls"),
    ("heuristics.value_features_ms", "heuristics.value_features", "ms"),
    ("heuristics.prior_features_ms", "heuristics.prior_features", "ms"),
    ("heuristics.forward_ms", "heuristics.forward", "ms"),
    ("heuristics.train_step_ms", "heuristics.train_step", "ms"),
    ("heuristics.prior_targets_ms", "heuristics.prior_targets", "ms"),
    ("heuristics.replay_add_ms", "heuristics.replay_add", "ms"),
    ("gridworld.sample_task_ms", "gridworld.sample_task", "ms"),
    ("gridworld.generate_maze_ms", "gridworld.generate_maze", "ms"),
    ("gridworld.execute_plan_ms", "gridworld.execute_plan", "ms"),
    ("gridworld.value_matrix_ms", "gridworld.value_matrix", "ms"),
    ("loop.self_ms", "loop", "ms"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def derive(seed: int, *key) -> int:
    """A 63-bit seed for one input of the run, fixed by the workload seed."""
    text = ":".join(str(k) for k in (seed, *key))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def reference_work() -> float:
    """A fixed piece of work in the program's idiom: float products looked up
    in a small dict keyed by pairs, lookups in random order in a larger one,
    and small-array numpy.

    On a shared host the CPU's speed can change by half from one second to
    the next, with other tenants' load.  So the benchmark runs this work before
    and after every operation and scales the operation's time by
    REFERENCE_MS over the mean of the two (see README.md).  The program
    cannot change this work, so only the program's own speed moves the
    scaled timings.  The collector is off while it runs, so the program's
    heap does not slow it."""
    gc.disable()
    try:
        return _reference_work(_reference_table())
    finally:
        gc.enable()


@functools.cache
def _reference_table() -> tuple[dict, list]:
    table = {(i * 7919 % 100003, i): float(i) for i in range(30000)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    return table, keys[:15000]


def _reference_work(reference_table) -> float:
    vals = {(i, j): 1.0 / (1 + i + j) for i in range(45) for j in range(45)}
    best = 0.0
    for i, j in vals:
        for x in range(0, 45, 4):
            score = vals[i, x] * vals[x, j]
            if score > best:
                best = score
    table, keys = reference_table
    for key in keys:
        best += table[key]
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    for _ in range(750):
        a = np.maximum(a * 0.99, a.mean())
    return best + float(a[0])


def setup(wl: Workload):
    """Import subplan from this checkout and build the workload's heuristics."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import subplan
        from subplan.heuristics import UntrainedHeuristics, load_checkpoint
    except ImportError as exc:
        raise SetupError(f"cannot import subplan from {SRC}: {exc}") from exc
    if Path(subplan.__file__).resolve().parent != SRC / "subplan":
        raise SetupError(f"imported subplan from {subplan.__file__}, not from {SRC}")
    if wl.heuristics == "untrained":
        return UntrainedHeuristics()
    if wl.heuristics == "trained":
        data = FIXTURE.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != FIXTURE_SHA256:
            raise SetupError(f"{FIXTURE.name} has sha256 {digest}, expected {FIXTURE_SHA256}")
        model, _ = load_checkpoint(data.decode())
        return model
    return None  # training_loop builds its own fresh model


def setup_seconds(wl: Workload) -> float:
    """Median set-up time over fresh interpreters: import plus heuristics."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", wl.name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Patches:
    """Module and class attributes replaced by wrappers, restored on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
        self._saved.append((owner, name, fn))
        setattr(owner, name, make(fn))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)


class Tracer:
    """Self time and calls per span name.  A span's self time is its duration
    minus the durations of the spans it encloses.  Spans are recorded only
    while ``enabled``, so the benchmark's own checks stay out of them."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.enabled = False
        self._stack: list[list[float]] = []

    def spanned(self, span: str):
        self.self_s.setdefault(span, 0.0)
        self.calls.setdefault(span, 0)
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                frame = [0.0]
                self._stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self._stack.pop()
                    self.self_s[span] += dt - frame[0]
                    self.calls[span] += 1
                    if self._stack:
                        self._stack[-1][0] += dt

            return wrapper

        return make


class Calls:
    """What one pass's run_search and execute_plan calls returned, and where
    each operation (evaluation task or training episode) began and ended.

    The loop calls ``boundary`` before each operation and after the last.
    When ``calibrate`` is set, that runs ``reference_work``; ``bounds`` holds
    the times before and after it, so an operation's time leaves it out."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        if calibrate:
            _reference_table()
        self.searches = []  # (task, config, result, seconds)
        self.trajectories = []
        self.bounds: list[tuple[float, float]] = []

    def clear(self) -> None:
        self.searches.clear()
        self.trajectories.clear()
        self.bounds.clear()

    def boundary(self) -> None:
        t0 = time.perf_counter()
        if self.calibrate:
            reference_work()
        self.bounds.append((t0, time.perf_counter()))

    def operations(self) -> tuple[list[float], list[float]]:
        """Each operation's seconds, and the mean seconds of the
        reference_work run just before and just after it."""
        pairs = list(zip(self.bounds, self.bounds[1:]))
        return ([b[0] - a[1] for a, b in pairs],
                [(a[1] - a[0] + b[1] - b[0]) / 2 for a, b in pairs])

    def timed_search(self, fn):
        def run_search(task, heuristics, config, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(task, heuristics, config, *args, **kwargs)
            self.searches.append((task, config, result, time.perf_counter() - t0))
            return result

        return run_search

    def kept_trajectory(self, fn):
        def execute_plan(*args, **kwargs):
            traj = fn(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        return execute_plan

    def marked(self, fn):
        def eval_task(*args, **kwargs):
            self.boundary()
            return fn(*args, **kwargs)

        return eval_task


def check_search(task, config, result) -> list[str]:
    """What is wrong with one run_search result, if anything."""
    from subplan.planner import extract_plan, plan_objective

    bad = []
    sigma = result.plan.sigma
    L = result.plan.objective_L
    if len(sigma) < 2 or sigma[0] != task.start or sigma[-1] != task.goal:
        bad.append("plan does not run from the task's start to its goal")
    elif L != plan_objective(task, sigma):
        bad.append(f"L={L!r} differs from plan_objective")
    if not 0.0 <= L <= 1.0:
        bad.append(f"L={L!r} outside [0, 1]")
    if result.budget_used > config.budget:
        bad.append(f"budget_used {result.budget_used} exceeds budget {config.budget}")
    if extract_plan(result.tree, result.tree.root)[0] != sigma:
        bad.append("extract_plan does not reproduce the returned plan")
    return bad


class Run:
    """One workload's closed loop: passes, their timings and their checks."""

    def __init__(self, wl: Workload, heuristics, seed: int, calls: Calls):
        from subplan import harness, heuristics as heur_mod
        from subplan.heuristics import EnvConfig, TrainConfig
        from subplan.planner import PlannerConfig

        self.wl = wl
        self.training = wl.heuristics == "fresh"
        self.heuristics = heuristics
        self.seed = seed
        self.env = EnvConfig(wl.size, wl.size, DENSITY)
        self.planner = PlannerConfig(budget=wl.budget, c_puct=C_PUCT, mode=MODE)
        self.train = replace(TrainConfig(), episodes=wl.pass_size)
        self.harness = harness
        self.heur_mod = heur_mod
        self.calls = calls
        self.tracer: Tracer | None = None
        self.task_s: list[float] = []  # one per evaluation task or training episode
        self.plan_s: list[float] = []  # one per run_search call
        self.reference_s: list[float] = []  # reference_work next to each operation
        self.traversals = 0
        self.expansions = 0
        self.attempted = 0
        self.failed = 0
        self.digest_lines: list[str] = []
        self.solved: list[bool] = []

    def _fail(self, p: int, what: str) -> None:
        print(f"FAILED {self.wl.name} pass {p}: {what}", file=sys.stderr)

    def _call(self, p: int):
        seed = self.wl.corpus_seed if self.wl.corpus_seed is not None else derive(self.seed, p)
        if self.training:
            self.calls.boundary()
            return self.heur_mod.training_loop(
                self.env, self.planner, self.train, seed=seed,
                on_episode=lambda *_: self.calls.boundary(),
            )
        return self.harness.evaluate(self.heuristics, self.env, self.planner,
                                     tasks=self.wl.pass_size, seed=seed)

    def run_pass(self, p: int) -> float:
        """Run pass p, check what it returned, and give its measured seconds."""
        n = self.wl.pass_size
        self.calls.clear()
        self.attempted += n
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = self._call(p)
        except Exception:  # a crash fails the pass; the run goes on
            self.failed += n
            self._fail(p, traceback.format_exc())
            return time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        if not self.training:
            self.calls.boundary()
        end = time.perf_counter()

        task_s, reference_s = self.calls.operations()
        searches = self.calls.searches
        outcomes = out.records if self.training else self.calls.trajectories
        if not len(searches) == len(outcomes) == len(task_s) == n:
            self.failed += n
            self._fail(p, f"{len(searches)} searches and {len(outcomes)} outcomes for {n} operations")
            return end - t0
        self.task_s.extend(task_s)
        self.reference_s.extend(reference_s)
        if not self.training and out.solved != sum(t.reached_goal for t in outcomes):
            self.failed += 1
            self._fail(p, "evaluate's solved count disagrees with the trajectories")
        for k, ((task, config, result, plan_s), outcome) in enumerate(zip(searches, outcomes)):
            self.plan_s.append(plan_s)
            self.traversals += result.tree_stats["traversals"]
            self.expansions += result.budget_used
            bad = check_search(task, config, result)
            line = f"{k} L={result.plan.objective_L!r} len={len(result.plan.sigma)}"
            if self.training:
                solved = outcome.solved
                if outcome.L != result.plan.objective_L or outcome.budget != result.budget_used:
                    bad.append("episode record disagrees with its search")
                for name in ("prior_loss", "value_loss"):
                    loss = getattr(outcome, name)
                    if loss is not None and not math.isfinite(loss):
                        bad.append(f"{name}={loss!r} is not finite")
                    line += f" {name}={loss!r}"
            else:
                solved = outcome.reached_goal
            if bad:
                self.failed += 1
                self._fail(p, f"operation {k}: " + "; ".join(bad))
            if p == 0:
                self.solved.append(solved)
                self.digest_lines.append(f"{line} solved={int(solved)}")
        return end - t0


def measure(step, seconds: float, min_steps: int) -> None:
    """Run step(0), step(1), ... back to back, at least ``min_steps`` of
    them, until another step of average length would take the measured time
    past ``seconds``."""
    spent = 0.0
    p = 0
    while p < min_steps or spent + spent / p <= seconds:
        spent += step(p)
        p += 1


def median_ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1e3


def percentile_ms(xs: list[float], pct: int) -> float:
    """The Harrell-Davis estimate of a percentile, in ms: a mean of all the
    sorted samples, weighted by a beta density centred on the percentile's
    rank.  A single order statistic jumps when the samples near that rank
    are far apart, as they are among the mixed task costs of a small
    corpus; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    steps = 64  # midpoint rule over each sample's 1/n of the unit interval
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(t ** (a - 1) * (1 - t) ** (b - 1) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights) * 1e3


def end_to_end(run: Run, wl: Workload) -> tuple[dict, list[str]]:
    """The end-to-end metrics.  Each operation's time, and its run_search
    time, is scaled by REFERENCE_MS over the reference_work run next to it.
    setup_s is not scaled: import time does not follow reference_work."""
    pct = wl.tail_pct
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scales = [REFERENCE_MS / (r * 1e3) for r in run.reference_s]
    task_s = [t * k for t, k in zip(run.task_s, scales)]
    plan_s = [t * k for t, k in zip(run.plan_s, scales)]
    metrics = {
        "plan_ms_p50": (percentile_ms(plan_s, 50), "ms"),
        "plan_ms_tail": (percentile_ms(plan_s, pct), "ms"),
        "task_ms_p50": (percentile_ms(task_s, 50), "ms"),
        "task_ms_tail": (percentile_ms(task_s, pct), "ms"),
        "tasks_per_s": (len(task_s) / sum(task_s), "1/s"),
        "setup_s": (setup_seconds(wl), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = {
        "plan_ms_p50": percentile_ms(run.plan_s, 50),
        "task_ms_p50": percentile_ms(run.task_s, 50),
        "tasks_per_s": len(run.task_s) / sum(run.task_s),
    }
    notes = [
        f"reference_work took {median_ms(run.reference_s):.2f} ms (median over "
        f"{len(run.reference_s)} operations); timings but setup_s are scaled to {REFERENCE_MS} ms",
        "as measured, unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in measured.items()),
        f"plan_ms_tail is p{pct} of n={len(run.plan_s)} run_search calls",
        f"task_ms_tail is p{pct} of n={len(run.task_s)} "
        + ("training episodes" if run.training else "evaluation tasks"),
        f"solved_fraction = {sum(run.solved) / len(run.solved)!r} "
        f"over the {len(run.solved)} digest {'episodes' if run.training else 'tasks'}",
        f"failed_fraction = {run.failed / run.attempted!r} ({run.failed} of {run.attempted})",
    ]
    return metrics, notes


def per_layer(run: Run, tracer: Tracer, overhead_ms: float) -> tuple[dict, list[str]]:
    units = len(run.task_s)
    metrics = {}
    for metric, span, kind in LAYER_SPANS:
        if kind == "ms":
            metrics[metric] = (tracer.self_s[span] * 1e3 / units, "ms")
        else:
            metrics[metric] = (tracer.calls[span] / units, "count")
    metrics["planner.traversals"] = (run.traversals / len(run.plan_s), "count")
    metrics["planner.expansions_per_traversal"] = (run.expansions / run.traversals, "ratio")
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    total = sum(tracer.self_s.values())
    shares = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    notes = [f"self-time share of traced time, over {units} "
             + ("episodes" if run.training else "tasks")]
    notes += [f"  {span:28s} {100 * s / total:6.2f}%" for span, s in shares]
    return metrics, notes


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> int:
    try:
        heuristics = setup(wl)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    calls = Calls(calibrate=not trace)
    run = Run(wl, heuristics, seed, calls)
    with Patches() as patches:
        patches.wrap("subplan.harness", "run_search", calls.timed_search)
        patches.wrap("subplan.heuristics", "run_search", calls.timed_search)
        patches.wrap("subplan.harness", "execute_plan", calls.kept_trajectory)
        patches.wrap("subplan.harness", "eval_task", calls.marked)
        if not trace:
            measure(run.run_pass, seconds, wl.min_passes)
        else:
            # Each pass runs twice, untraced then traced, so the difference in
            # plan_ms_p50 is the tracing overhead on the same tasks.  Per-layer
            # figures report no tail, so one pair of passes is enough.
            untraced = Run(wl, heuristics, seed, calls)
            run.tracer = tracer = Tracer()

            def traced_pass(p: int) -> float:
                with Patches() as spans:
                    for module, attr, span in TRACED:
                        spans.wrap(module, attr, tracer.spanned(span))
                    return run.run_pass(p)

            measure(lambda p: untraced.run_pass(p) + traced_pass(p), seconds, 1)
            if run.digest_lines != untraced.digest_lines:
                run.failed += 1
                print("FAILED: the traced pass behaved differently", file=sys.stderr)
            run.attempted += untraced.attempted
            run.failed += untraced.failed

    if not run.task_s or (trace and not untraced.task_s):
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    if trace:
        overhead_ms = percentile_ms(run.plan_s, 50) - percentile_ms(untraced.plan_s, 50)
        metrics, notes = per_layer(run, tracer, overhead_ms)
    else:
        metrics, notes = end_to_end(run, wl)
    digest = hashlib.sha256("\n".join(run.digest_lines).encode()).hexdigest()[:16]
    print(f"workload {wl.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"digest {digest} over the first {len(run.digest_lines)} "
          + ("episodes" if run.training else "tasks"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subplan benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One thread per workload: matrix products spread over the cores add noise
    # on a shared machine.  Set before numpy loads; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(WORKLOADS[args.workload])
        print(time.perf_counter() - t0)
        return 0
    if args.workload != "all":
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
