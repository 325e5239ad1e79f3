"""Harness tests: config files, metrics records, rendering, evaluation,
training runs, comparison tables, and artifact validation."""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from scipy.stats import binomtest

from subplan.gridworld import Maze, Pi0, StateId, Task
from subplan.harness import (
    EvalSummary,
    ExperimentConfig,
    canonical_mode,
    detect_artifact_type,
    eval_task,
    evaluate,
    learning_curve_table,
    load_config_file,
    metrics_line,
    parse_config_text,
    parse_metrics_text,
    parse_summary,
    parse_table,
    plan_report,
    render_plan,
    run_training,
    serialize_config,
    serialize_summary,
    sweep_table,
    experiment_config,
    validate_artifact,
    wilson_interval,
)
from subplan.heuristics import EnvConfig, TrainConfig, UntrainedHeuristics, load_checkpoint
from subplan.oracle import ExactHeuristics, exact_value_table
from subplan.planner import PlannerConfig, SolutionNode, SolutionTree, run_search


def open_grid(width: int, height: int | None = None) -> Maze:
    h = height if height is not None else width
    return Maze(width, h, np.zeros((h, width), dtype=np.uint8), 0.0, -1)


def cell(r: int, c: int) -> StateId:
    return StateId(r, c)


# ---------------------------------------------------------------------------
# config files


class TestConfig:
    def test_parse_comments_and_spacing(self):
        text = "\n".join([
            "# a comment",
            "width = 7",
            "  height=9   # trailing comment",
            "",
            "density = 0.5",
        ])
        assert parse_config_text(text) == {"width": "7", "height": "9",
                                           "density": "0.5"}

    def test_parse_rejects_bare_words(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("width = 7\nnot a pair\n")

    def test_type_coercion_and_alias(self):
        cfg = experiment_config({
            "width": "7", "density": "0.5", "mode": "dc",
            "mc_value_targets": "true", "step_limit": "none",
            "learning_rate": "0.01",
        })
        assert cfg.width == 7
        assert cfg.density == 0.5
        assert cfg.mode == "divide_and_conquer"
        assert cfg.mc_value_targets is True
        assert cfg.step_limit is None
        assert cfg.learning_rate == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            experiment_config({"widht": "7"})

    def test_removed_parallel_and_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'parallel_and'"):
            experiment_config({"parallel_and": "false"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            experiment_config({"mc_value_targets": "maybe"})

    def test_invalid_enums_rejected(self):
        with pytest.raises(ValueError):
            experiment_config({"parser": "sideways"})
        with pytest.raises(ValueError):
            experiment_config({"mode": "bfs"})
        with pytest.raises(ValueError):
            experiment_config({"eval_every": "0"})

    def test_serialize_round_trip(self, tmp_path):
        cfg = ExperimentConfig(width=7, height=5, density=0.6, budget=42,
                               mode="sequential", episodes=12, seed=3)
        path = tmp_path / "cfg.txt"
        path.write_text(serialize_config(cfg))
        assert load_config_file(path) == cfg

    def test_default_config_text(self):
        assert serialize_config(ExperimentConfig()) == "".join([
            "width = 11\n", "height = 11\n", "density = 0.75\n",
            "step_limit = none\n", "budget = 100\n", "c_puct = 5.0\n",
            "max_depth = 8\n", "mode = divide_and_conquer\n",
            "episodes = 1000\n", "parser = temporally_balanced\n",
            "batch_size = 128\n", "capacity = 2048\n",
            "learning_rate = 0.001\n", "optimizer = sgd\n",
            "temperature = 0.003\n", "hidden = 64\n",
            "mc_value_targets = false\n", "eval_every = 250\n", "seed = 0\n",
            "out_dir = run\n",
        ])

    def test_sub_configs_share_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.env_config() == EnvConfig()
        assert cfg.planner_config() == PlannerConfig(budget=100)
        assert cfg.train_config() == TrainConfig()

    def test_sub_config_fields_are_config_fields(self):
        """Each sub-config field is an ExperimentConfig field of the same
        declared type, so a config file line reaches it by name."""
        hints = get_type_hints(ExperimentConfig)
        for cls in (EnvConfig, PlannerConfig, TrainConfig):
            for name, kind in get_type_hints(cls).items():
                assert hints[name] == kind, (cls.__name__, name)

    def test_sub_configs_carry_values(self):
        cfg = ExperimentConfig(width=7, height=5, density=0.6, step_limit=9,
                               budget=42, c_puct=2.5, max_depth=3,
                               mode="sequential", episodes=12, batch_size=8,
                               capacity=16, mc_value_targets=True, seed=3)
        assert cfg.env_config() == EnvConfig(7, 5, 0.6, 9)
        assert cfg.planner_config() == PlannerConfig(
            budget=42, max_depth=3, c_puct=2.5, mode="sequential_right", seed=3)
        assert cfg.train_config() == TrainConfig(
            episodes=12, batch_size=8, capacity=16, mc_value_targets=True)

    def test_mode_aliases(self):
        assert canonical_mode("dc") == "divide_and_conquer"
        assert canonical_mode("sequential") == "sequential_right"
        assert canonical_mode("descend_left_first") == "descend_left_first"
        with pytest.raises(ValueError, match="unknown mode"):
            canonical_mode("dfs")


# ---------------------------------------------------------------------------
# metrics records


def fake_record(episode=0, solved=True, L=0.5, G=0.5, budget=10,
                prior_loss=None, value_loss=None, seed=1,
                plan_length=3, steps=7):
    return SimpleNamespace(episode=episode, solved=solved, L=L, G=G,
                           budget=budget, prior_loss=prior_loss,
                           value_loss=value_loss, seed=seed,
                           plan_length=plan_length, steps=steps)


class TestMetrics:
    def test_line_fields(self):
        obj = json.loads(metrics_line(fake_record(prior_loss=1.25)))
        assert obj["episode"] == 0
        assert obj["solved"] is True
        assert obj["L"] == 0.5
        assert obj["prior_loss"] == 1.25
        assert obj["value_loss"] is None
        assert obj["seed"] == 1

    def test_round_trip(self):
        text = "\n".join(metrics_line(fake_record(episode=e)) for e in range(3))
        records = parse_metrics_text(text + "\n")
        assert [r["episode"] for r in records] == [0, 1, 2]

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            parse_metrics_text('{"episode": 0}\n')

    def test_rejects_bad_types_with_line_numbers(self):
        good = metrics_line(fake_record())
        bad = good.replace("true", '"yes"')
        with pytest.raises(ValueError, match="line 2"):
            parse_metrics_text(good + "\n" + bad + "\n")

    def test_rejects_non_finite(self):
        bad = metrics_line(fake_record()).replace("0.5", "NaN", 1)
        with pytest.raises(ValueError, match="finite"):
            parse_metrics_text(bad + "\n")


# ---------------------------------------------------------------------------
# rendering and reports


class TestRender:
    def planned(self, n=5, budget=60):
        maze = open_grid(n)
        task = Task(maze, cell(0, 0), cell(n - 1, n - 1))
        heuristics = ExactHeuristics(exact_value_table(task, Pi0()))
        result = run_search(task, heuristics, PlannerConfig(budget=budget, seed=0))
        return maze, task, result

    def test_dimensions_match_maze(self):
        maze, task, result = self.planned()
        grid = render_plan(maze, task, result)
        lines = grid.splitlines()
        assert len(lines) == maze.height
        for line in lines:
            assert len(line.split()) == maze.width

    def test_every_subgoal_numbered_once(self):
        maze, task, result = self.planned()
        sigma = result.plan.sigma
        assert len(sigma) > 2, "expected a split plan for this test"
        grid = render_plan(maze, task, result)
        by_cell = {}
        for r, line in enumerate(grid.splitlines()):
            for c, tok in enumerate(line.split()):
                by_cell[cell(r, c)] = tok
        interior = set(sigma[1:-1])
        numbered = {s: int(t) for s, t in by_cell.items() if t.isdigit()}
        # each distinct sub-goal cell gets exactly one number, and that
        # number points back at an occurrence of the cell in the plan
        assert set(numbered) == interior
        for s, num in numbered.items():
            assert sigma[num] == s
        if task.start not in interior:
            assert by_cell[task.start] == "S"
        if task.goal not in interior:
            assert by_cell[task.goal] == "G"

    def test_direct_plan_renders_endpoints_only(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(0, 1))
        result = run_search(task, UntrainedHeuristics(), PlannerConfig(budget=2, seed=0))
        grid = render_plan(maze, task, result)
        tokens = [t for line in grid.splitlines() for t in line.split()]
        assert sorted(set(tokens)) == [".", "G", "S"]

    def test_revisited_cell_shows_smallest_depth_number(self):
        # hand-built solution for the walk a -> b -> c -> b -> d: the cell b
        # is first split off at depth 2 (number 1) and again at depth 0
        # (number 3); the shallower occurrence must win.
        maze = open_grid(5, 1)
        a, b, c, d = cell(0, 0), cell(0, 1), cell(0, 2), cell(0, 4)
        leaf = lambda x, y: SolutionNode(key=(x, y), G=1.0, terminal=True)
        inner_ab = SolutionNode(key=(a, b), G=1.0, terminal=False, chosen=b,
                                left=leaf(a, b), right=leaf(b, c))
        left = SolutionNode(key=(a, b), G=1.0, terminal=False, chosen=c,
                            left=inner_ab, right=leaf(c, b))
        root = SolutionNode(key=(a, d), G=1.0, terminal=False, chosen=b,
                            left=left, right=leaf(b, d))
        task = Task(maze, a, d)
        result = SimpleNamespace(solution_tree=SolutionTree(root))
        grid = render_plan(maze, task, result)
        tokens = grid.splitlines()[0].split()
        assert tokens == ["S", "3", "2", ".", "G"]

    def test_plan_report_structure(self):
        maze, task, result = self.planned(budget=30)
        config = PlannerConfig(budget=30, seed=0)
        report = plan_report(result, config, maze, task)
        lines = report.splitlines()
        assert lines[0] == "plan v1"
        fields = parse_config_text("\n".join(lines[1:]))
        assert fields["mode"] == "divide_and_conquer"
        assert fields["budget"] == "30"
        assert fields["budget_used"] == str(result.budget_used)
        assert fields["stop"] == result.tree_stats["stop"]
        assert float(fields["L"]) == result.plan.objective_L
        assert float(fields["G"]) == result.returns[0][1]
        assert len(fields["plan"].split(" ")) == len(result.plan.sigma)
        rendered = plan_report(result, config, maze, task, render=True)
        assert rendered.startswith(report)
        assert len(rendered.splitlines()) == len(lines) + 1 + maze.height


# ---------------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_wilson_matches_scipy(self):
        for k, n in ((0, 10), (7, 10), (10, 10), (13, 200)):
            lo, hi = wilson_interval(k, n)
            ref = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                                method="wilson")
            assert lo == pytest.approx(ref.low, abs=2e-3)
            assert hi == pytest.approx(ref.high, abs=2e-3)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_wilson_validates(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_eval_task_stream_is_stable_and_varied(self):
        env = EnvConfig(7, 7, 0.5)
        tasks = [eval_task(env, seed=3, index=i) for i in range(5)]
        again = [eval_task(env, seed=3, index=i) for i in range(5)]
        for t, u in zip(tasks, again):
            assert (t.start, t.goal) == (u.start, u.goal)
            assert np.array_equal(t.maze.cells, u.maze.cells)
        keys = {(t.start, t.goal) for t in tasks}
        assert len(keys) > 1

    def test_summary_consistency_and_determinism(self):
        env = EnvConfig(6, 6, 0.5)
        cfg = PlannerConfig(budget=10)
        a = evaluate(UntrainedHeuristics(), env, cfg, tasks=8, seed=5)
        b = evaluate(UntrainedHeuristics(), env, cfg, tasks=8, seed=5)
        assert a == b
        assert a.solved == round(a.fraction * a.tasks)
        assert a.ci_low <= a.fraction <= a.ci_high
        assert a.mode == "divide_and_conquer"

    def test_summary_round_trip(self):
        s = EvalSummary(mode="divide_and_conquer", width=6, height=6,
                        density=0.5, budget=10, c_puct=5.0, tasks=8,
                        solved=3, fraction=0.375, ci_low=0.1, ci_high=0.7,
                        seed=5, heuristics="untrained")
        parsed = parse_summary(serialize_summary(s))
        assert parsed == s
        assert [type(getattr(parsed, f.name)) for f in fields(s)] == \
            [type(getattr(s, f.name)) for f in fields(s)]
        with pytest.raises(ValueError, match="header"):
            parse_summary("summary v2\n")
        with pytest.raises(ValueError, match="missing fields"):
            parse_summary("summary v1\nmode = divide_and_conquer\n")

    def test_summary_text(self):
        s = EvalSummary(mode="sequential_right", width=7, height=5,
                        density=0.6, budget=10, c_puct=5.0, tasks=3,
                        solved=1, fraction=1 / 3, ci_low=0.1, ci_high=0.7,
                        seed=5, heuristics="untrained")
        assert serialize_summary(s) == (
            "summary v1\nmode = sequential_right\nwidth = 7\nheight = 5\n"
            "density = 0.6\nbudget = 10\nc_puct = 5.0\ntasks = 3\n"
            "solved = 1\nfraction = 0.3333333333333333\nci_low = 0.1\n"
            "ci_high = 0.7\nseed = 5\nheuristics = untrained\n")

    def test_tasks_must_be_positive(self):
        with pytest.raises(ValueError, match="tasks"):
            evaluate(UntrainedHeuristics(), EnvConfig(5, 5, 0.5),
                     PlannerConfig(budget=5), tasks=0, seed=0)


# ---------------------------------------------------------------------------
# training runs


def tiny_experiment(episodes: int, seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(width=5, height=5, density=0.45, budget=6,
                            episodes=episodes, eval_every=3, batch_size=4,
                            capacity=32, hidden=8, learning_rate=0.01,
                            seed=seed)


class TestRunTraining:
    def test_artifacts_written_and_valid(self, tmp_path):
        out = tmp_path / "run"
        run = run_training(tiny_experiment(6), out)
        assert len(run.records) == 6
        names = {p.name for p in out.iterdir()}
        assert {"config.txt", "metrics.jsonl", "checkpoint.txt", "replay.txt",
                "checkpoint_000003.txt", "checkpoint_000006.txt"} <= names
        for p in out.iterdir():
            validate_artifact(p.read_text())
        records = parse_metrics_text((out / "metrics.jsonl").read_text())
        assert [r["episode"] for r in records] == list(range(6))
        _, episode = load_checkpoint((out / "checkpoint.txt").read_text())
        assert episode == 6

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_training(tiny_experiment(5), a)
        run_training(tiny_experiment(5), b)
        for name in ("metrics.jsonl", "checkpoint.txt", "replay.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_training(tiny_experiment(6), full_dir)
        run_training(tiny_experiment(3), part_dir)
        run_training(tiny_experiment(6), part_dir, resume=True)
        for name in ("metrics.jsonl", "checkpoint.txt", "replay.txt",
                     "config.txt"):
            assert (full_dir / name).read_bytes() == (part_dir / name).read_bytes()

    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            run_training(tiny_experiment(3), tmp_path, resume=True)

    def test_resume_replay_capacity_must_match(self, tmp_path):
        """A snapshot whose replay capacity differs from the config's (here
        below its batch size, so no train_step could run) is rejected."""
        run_training(replace(tiny_experiment(3), capacity=8), tmp_path)
        with pytest.raises(ValueError, match=r"capacity 8 \(config 32\)"):
            run_training(replace(tiny_experiment(6), batch_size=16), tmp_path,
                         resume=True)

    @pytest.mark.parametrize("field, value", [("hidden", 16), ("temperature", 0.5),
                                              ("learning_rate", 0.02), ("optimizer", "adam")])
    def test_resume_model_settings_must_match(self, tmp_path, field, value):
        run_training(tiny_experiment(3), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=f"cannot resume .*{field}"):
            run_training(replace(tiny_experiment(6), **{field: value}), tmp_path,
                         resume=True)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_past_the_configured_episodes_rejected(self, tmp_path):
        """A 6-episode snapshot under `episodes = 3` would train nothing and
        relabel the 6-episode model as episode 3."""
        run_training(tiny_experiment(6), tmp_path)
        with pytest.raises(ValueError, match=r"episode 6 \(config episodes 3\)"):
            run_training(tiny_experiment(3), tmp_path, resume=True)
        run_training(tiny_experiment(6), tmp_path, resume=True)  # a finished run may resume

    def test_failed_resume_writes_nothing(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="nothing to resume"):
            run_training(tiny_experiment(3), out, resume=True)
        assert not out.exists()
        out.mkdir()
        with pytest.raises(ValueError, match="nothing to resume"):
            run_training(tiny_experiment(3), out, resume=True)
        assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# comparison tables


def write_fake_run(path: Path, solved: list[bool], **overrides):
    path.mkdir(parents=True, exist_ok=True)
    kwargs = dict(width=5, height=5, density=0.45, budget=6,
                  episodes=len(solved), eval_every=2)
    kwargs.update(overrides)
    cfg = ExperimentConfig(**kwargs)
    (path / "config.txt").write_text(serialize_config(cfg))
    lines = [metrics_line(fake_record(episode=e, solved=s))
             for e, s in enumerate(solved)]
    (path / "metrics.jsonl").write_text("".join(l + "\n" for l in lines))


class TestCompareTables:
    def test_learning_curve_values(self, tmp_path):
        write_fake_run(tmp_path / "a", [True, False, True, True])
        write_fake_run(tmp_path / "b", [False, False, True, False])
        table = learning_curve_table([tmp_path / "a", tmp_path / "b"], window=2)
        header, rows = parse_table(table)
        assert header == ["episode", "a", "b"]
        assert rows == [[2.0, 0.5, 0.0], [4.0, 1.0, 0.5]]

    def test_compare_run_to_itself(self, tmp_path):
        write_fake_run(tmp_path / "a", [True, False, True, False])
        table = learning_curve_table([tmp_path / "a", tmp_path / "a"], window=2)
        _, rows = parse_table(table)
        for row in rows:
            assert row[1] == row[2]

    def test_incompatible_metadata_rejected(self, tmp_path):
        write_fake_run(tmp_path / "a", [True, False])
        write_fake_run(tmp_path / "b", [True, False], density=0.6)
        with pytest.raises(ValueError, match="incompatible"):
            learning_curve_table([tmp_path / "a", tmp_path / "b"], window=2)

    def test_requires_two_runs_and_full_windows(self, tmp_path):
        write_fake_run(tmp_path / "a", [True, False, True, False])
        with pytest.raises(ValueError, match="two"):
            learning_curve_table([tmp_path / "a"], window=2)
        (tmp_path / "a" / "metrics.jsonl").write_text(
            metrics_line(fake_record(episode=0)) + "\n")
        with pytest.raises(ValueError, match="window"):
            learning_curve_table([tmp_path / "a", tmp_path / "a"], window=2)

    def test_sweep_grid_cells_are_evaluate_summaries(self):
        env = EnvConfig(6, 6, 0.5)
        budgets, modes, c_pucts = [4, 10], ["dc", "sequential"], [3.0, 7.0]
        text = sweep_table(UntrainedHeuristics(), "untrained", env, budgets,
                           modes, c_pucts, tasks=4, seed=2, max_depth=6)
        assert text == sweep_table(UntrainedHeuristics(), "untrained", env, budgets,
                                   modes, c_pucts, tasks=4, seed=2, max_depth=6)
        lines = text.splitlines()
        assert lines[0] == "sweep v1"
        assert lines[2].split("\t") == [
            "budget", "c_puct",
            "dc_fraction", "dc_ci_low", "dc_ci_high",
            "sequential_fraction", "sequential_ci_low", "sequential_ci_high"]
        rows = [line.split("\t") for line in lines[3:]]
        expected = []
        for budget in budgets:
            for c in c_pucts:
                row = [str(budget), repr(c)]
                for mode in modes:
                    cfg = PlannerConfig(budget=budget, max_depth=6, c_puct=c,
                                        mode=canonical_mode(mode))
                    s = evaluate(UntrainedHeuristics(), env, cfg, tasks=4, seed=2)
                    row += [repr(s.fraction), repr(s.ci_low), repr(s.ci_high)]
                expected.append(row)
        assert rows == expected
        _, parsed = parse_table(text)
        assert [r[:2] for r in parsed] == [[4.0, 3.0], [4.0, 7.0], [10.0, 3.0], [10.0, 7.0]]

    @pytest.mark.parametrize("empty", ["budgets", "modes", "c_pucts"])
    def test_sweep_needs_every_axis(self, empty):
        axes = {"budgets": [4], "modes": ["dc"], "c_pucts": [5.0]}
        axes[empty] = []
        with pytest.raises(ValueError, match="at least one"):
            sweep_table(UntrainedHeuristics(), "untrained", EnvConfig(5, 5, 0.5),
                        tasks=2, seed=0, **axes)


# ---------------------------------------------------------------------------
# artifact validation


class TestValidation:
    def test_detection_by_header(self):
        assert detect_artifact_type("maze v1 3 3\n") == "maze"
        assert detect_artifact_type("model v1\n") == "checkpoint"
        assert detect_artifact_type("replay v1\n") == "replay"
        assert detect_artifact_type("summary v1\n") == "summary"
        assert detect_artifact_type("compare v1\n") == "table"
        assert detect_artifact_type("sweep v1\n") == "table"
        assert detect_artifact_type("plan v1\n") == "plan-report"
        assert detect_artifact_type("OR 0,0 1,1 0.5 3 true\n") == "tree-dump"
        assert detect_artifact_type('{"episode": 0}\n') == "metrics"
        assert detect_artifact_type("budget = 5\n") == "config"

    def test_rejects_malformed_artifacts(self):
        with pytest.raises(ValueError):
            validate_artifact("maze v1 3 3\n..\n")  # wrong row count
        with pytest.raises(ValueError):
            validate_artifact("widht = 5\n")  # unknown config key
        with pytest.raises(ValueError):
            validate_artifact('{"episode": 0}\n')  # incomplete metrics
        with pytest.raises(ValueError):
            validate_artifact("compare v1\nh1\th2\n1.0\n")  # ragged table
        with pytest.raises(ValueError):
            validate_artifact("model v1\n")  # truncated checkpoint

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"])
    def test_rejects_empty_artifact(self, text):
        with pytest.raises(ValueError, match="empty"):
            validate_artifact(text)

    def test_accepts_plan_report(self):
        maze = open_grid(3)
        task = Task(maze, cell(0, 0), cell(2, 2))
        result = run_search(task, UntrainedHeuristics(), PlannerConfig(budget=4))
        report = plan_report(result, PlannerConfig(budget=4), maze, task,
                             render=True)
        assert validate_artifact(report) == "plan-report"
