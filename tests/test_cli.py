"""Command-line behavior: flags, exit codes, reports, and determinism of the
artifacts each subcommand writes."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import numpy as np

from subplan.cli import build_parser, main
from subplan.gridworld import Maze, parse_maze, serialize_maze
from subplan.harness import (
    ExperimentConfig,
    parse_metrics_text,
    parse_summary,
    parse_table,
    serialize_config,
)


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, ""
    captured = capsys.readouterr()
    return code, captured.out


def report_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


def open_maze_file(tmp_path, n=3, name="open.txt"):
    maze = Maze(n, n, np.zeros((n, n), dtype=np.uint8), 0.0, -1)
    path = tmp_path / name
    path.write_text(serialize_maze(maze))
    return path


class TestGen:
    def test_round_trip_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "maze.txt"
        code, stdout = run_cli("gen", "--width", "21", "--height", "21",
                               "--density", "0.75", "--seed", "1",
                               "--out", str(out), capsys=capsys)
        assert code == 0
        assert stdout.strip() == str(out)
        maze, start, goal = parse_maze(out.read_text())
        assert (maze.width, maze.height) == (21, 21)
        assert start is None and goal is None
        first = out.read_bytes()
        run_cli("gen", "--width", "21", "--height", "21", "--density", "0.75",
                "--seed", "1", "--out", str(out))
        assert out.read_bytes() == first

    def test_task_seed_marks_endpoints(self, tmp_path):
        out = tmp_path / "m.txt"
        code, _ = run_cli("gen", "--width", "9", "--height", "9",
                          "--density", "0.5", "--seed", "3",
                          "--task-seed", "4", "--out", str(out))
        assert code == 0
        _, start, goal = parse_maze(out.read_text())
        assert start is not None and goal is not None and start != goal

    def test_density_out_of_range_is_usage_error(self, tmp_path):
        code, _ = run_cli("gen", "--width", "5", "--height", "5",
                          "--density", "1.5", "--seed", "1",
                          "--out", str(tmp_path / "x.txt"))
        assert code == 1

    def test_missing_flag_is_usage_error(self):
        code, _ = run_cli("gen", "--width", "5")
        assert code == 1


class TestPlan:
    def test_adjacent_task_reports_l_one(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path)
        code, out = run_cli("plan", "--maze", str(maze), "--start", "0,0",
                            "--goal", "0,1", "--budget", "4", capsys=capsys)
        assert code == 0
        fields = report_fields(out)
        assert float(fields["L"]) == 1.0
        assert fields["plan_length"] == "2"

    def test_budget_one_uses_one_expansion(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path, n=5)
        code, out = run_cli("plan", "--maze", str(maze), "--start", "0,0",
                            "--goal", "4,4", "--budget", "1", capsys=capsys)
        assert code == 0
        assert report_fields(out)["budget_used"] == "1"

    def test_dc_dump_has_left_children_sequential_does_not(self, tmp_path, capsys):
        maze_path = tmp_path / "m.txt"
        run_cli("gen", "--width", "9", "--height", "9", "--density", "0.6",
                "--seed", "4", "--task-seed", "2", "--out", str(maze_path))
        _, _, goal = parse_maze(maze_path.read_text())
        goal_token = f"{goal.row},{goal.col}"
        dumps = {}
        for mode in ("dc", "sequential"):
            dump = tmp_path / f"dump_{mode}.txt"
            code, _ = run_cli("plan", "--maze", str(maze_path), "--budget",
                              "40", "--seed", "0", "--mode", mode,
                              "--dump-tree", str(dump), capsys=capsys)
            assert code == 0
            dumps[mode] = [l.split() for l in dump.read_text().splitlines()
                           if l.startswith("OR ")]
        seq_keys = dumps["sequential"]
        assert all(parts[2] == goal_token for parts in seq_keys)
        dc_left_expanded = [p for p in dumps["dc"]
                            if p[2] != goal_token and p[5] == "true"]
        assert dc_left_expanded, "expected expanded left children in dc mode"

    def test_render_grid_dimensions(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path, n=4)
        code, out = run_cli("plan", "--maze", str(maze), "--start", "0,0",
                            "--goal", "3,3", "--budget", "20", "--render",
                            capsys=capsys)
        assert code == 0
        grid = out.split("\n\n", 1)[1]
        lines = [l for l in grid.splitlines() if l]
        assert len(lines) == 4
        assert all(len(l.split()) == 4 for l in lines)

    def test_same_flags_twice_byte_identical_dump(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path, n=5)
        outs = []
        for name in ("a.txt", "b.txt"):
            dump = tmp_path / name
            code, out = run_cli("plan", "--maze", str(maze), "--start", "0,0",
                                "--goal", "4,4", "--budget", "25",
                                "--seed", "3",
                                "--dump-tree", str(dump), capsys=capsys)
            assert code == 0
            report = [l for l in out.splitlines() if not l.startswith("tree dump")]
            outs.append((report, dump.read_bytes()))
        assert outs[0] == outs[1]

    def test_unreachable_goal_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "split.txt"
        path.write_text("maze v1 5 1\n..#..\n")
        code, _ = run_cli("plan", "--maze", str(path), "--start", "0,0",
                          "--goal", "0,4", "--budget", "4", capsys=capsys)
        assert code == 2

    def test_wall_start_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "split.txt"
        path.write_text("maze v1 5 1\n..#..\n")
        code, _ = run_cli("plan", "--maze", str(path), "--start", "0,2",
                          "--goal", "0,4", "--budget", "4", capsys=capsys)
        assert code == 2

    def test_off_board_start_is_runtime_error(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path)
        code = main(["plan", "--maze", str(maze), "--start", "9,9",
                     "--goal", "2,2", "--budget", "4"])
        assert code == 2
        assert "error: task start" in capsys.readouterr().err

    def test_missing_endpoints_is_runtime_error(self, tmp_path, capsys):
        maze = open_maze_file(tmp_path)
        code, _ = run_cli("plan", "--maze", str(maze), "--budget", "4",
                          capsys=capsys)
        assert code == 2


class TestEval:
    def test_deterministic_summaries(self, tmp_path, capsys):
        args = ("eval", "--untrained", "--tasks", "5", "--size", "7",
                "--density", "0.5", "--budget", "10", "--seed", "0",
                "--out", str(tmp_path / "s.txt"))
        code_a, out_a = run_cli(*args, capsys=capsys)
        code_b, out_b = run_cli(*args, capsys=capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        summary = parse_summary((tmp_path / "s.txt").read_text())
        assert summary.tasks == 5
        assert summary.heuristics == "untrained"

    def test_zero_tasks_is_usage_error(self):
        code, _ = run_cli("eval", "--untrained", "--tasks", "0")
        assert code == 1

    def test_needs_heuristics_choice(self):
        code, _ = run_cli("eval", "--tasks", "5")
        assert code == 1


class TestTrainCompare:
    def write_config(self, tmp_path, episodes, name="cfg.txt"):
        cfg = ExperimentConfig(width=5, height=5, density=0.45, budget=6,
                               episodes=episodes, eval_every=3, batch_size=4,
                               capacity=32, hidden=8, learning_rate=0.01,
                               seed=7)
        path = tmp_path / name
        path.write_text(serialize_config(cfg))
        return path

    def test_train_smoke_and_resume(self, tmp_path, capsys):
        cfg6 = self.write_config(tmp_path, 6, "cfg6.txt")
        cfg3 = self.write_config(tmp_path, 3, "cfg3.txt")
        full, part = tmp_path / "full", tmp_path / "part"
        assert run_cli("train", "--config", str(cfg6), "--out", str(full),
                       capsys=capsys)[0] == 0
        assert run_cli("train", "--config", str(cfg3), "--out", str(part),
                       capsys=capsys)[0] == 0
        assert run_cli("train", "--config", str(cfg6), "--out", str(part),
                       "--resume", capsys=capsys)[0] == 0
        for name in ("metrics.jsonl", "checkpoint.txt", "replay.txt"):
            assert (full / name).read_bytes() == (part / name).read_bytes()
        records = parse_metrics_text((full / "metrics.jsonl").read_text())
        assert len(records) == 6

    def test_trained_checkpoint_feeds_eval(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, 3)
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg), "--out", str(out), capsys=capsys)
        code, text = run_cli("eval", "--checkpoint", str(out / "checkpoint.txt"),
                             "--tasks", "4", "--size", "5", "--density", "0.45",
                             "--budget", "6", capsys=capsys)
        assert code == 0
        assert parse_summary(text).heuristics == "checkpoint.txt"

    def test_malformed_config_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("widht = 5\n")
        code, _ = run_cli("train", "--config", str(bad), capsys=capsys)
        assert code == 2

    def test_compare_self_identical_columns(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, 4)
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg), "--out", str(out), capsys=capsys)
        code, text = run_cli("compare", str(out), str(out), "--window", "2",
                             capsys=capsys)
        assert code == 0
        _, rows = parse_table(text)
        assert rows and all(row[1] == row[2] for row in rows)

    def test_compare_needs_two_runs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, 2)
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg), "--out", str(out), capsys=capsys)
        code, _ = run_cli("compare", str(out), capsys=capsys)
        assert code == 2

    def test_compare_rejects_sweep_flags(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, 2)
        out = str(tmp_path / "run")
        run_cli("train", "--config", str(cfg), "--out", out, capsys=capsys)
        assert run_cli("compare", out, out, "--window", "1", capsys=capsys)[0] == 0
        for flag, value in (("--budgets", "4"), ("--modes", "dc"),
                            ("--checkpoint", out + "/checkpoint.txt"),
                            ("--tasks", "2"), ("--c-puct", "5.0"), ("--size", "5")):
            code, _ = run_cli("compare", out, out, flag, value, capsys=capsys)
            assert code == 1, flag

    def test_sweep_budget_mode_table(self, capsys):
        args = ("sweep", "--budgets", "4,8", "--modes", "dc,sequential",
                "--untrained", "--tasks", "3", "--size", "6",
                "--density", "0.5", "--seed", "2")
        code, text = run_cli(*args, capsys=capsys)
        assert code == 0
        header, rows = parse_table(text)
        assert header[:3] == ["budget", "c_puct", "dc_fraction"]
        assert [r[:2] for r in rows] == [[4.0, 5.0], [8.0, 5.0]]
        assert run_cli(*args, capsys=capsys)[1] == text

    def test_sweep_c_pucts(self, capsys):
        code, text = run_cli("sweep", "--c-pucts", "3,7", "--budgets", "6",
                             "--untrained", "--tasks", "3", "--size", "6",
                             "--density", "0.5", "--seed", "1", capsys=capsys)
        assert code == 0
        header, rows = parse_table(text)
        assert header == ["budget", "c_puct", "dc_fraction", "dc_ci_low", "dc_ci_high"]
        assert [r[:2] for r in rows] == [[6.0, 3.0], [6.0, 7.0]]

    def test_sweep_rejects_run_directories(self, tmp_path, capsys):
        code, _ = run_cli("sweep", str(tmp_path), str(tmp_path), "--untrained",
                          "--tasks", "1", capsys=capsys)
        assert code == 1

    def test_sweep_rejects_bad_lists(self, capsys):
        for flag, value in (("--budgets", "4,0"), ("--budgets", ","),
                            ("--modes", "dc,sideways"), ("--c-pucts", "x")):
            assert run_cli("sweep", flag, value, capsys=capsys)[0] == 1, (flag, value)

    def test_checkpoint_and_untrained_conflict(self, tmp_path, capsys):
        ckpt = str(tmp_path / "model.txt")
        code, _ = run_cli("sweep", "--checkpoint", ckpt, "--untrained", capsys=capsys)
        assert code == 1


class TestValidateAndMisc:
    def test_validate_accepts_harness_outputs(self, tmp_path, capsys):
        maze = tmp_path / "m.txt"
        dump = tmp_path / "d.txt"
        run_cli("gen", "--width", "7", "--height", "7", "--density", "0.5",
                "--seed", "1", "--task-seed", "2", "--out", str(maze))
        run_cli("plan", "--maze", str(maze), "--budget", "10",
                "--dump-tree", str(dump), capsys=capsys)
        code, out = run_cli("validate", str(maze), str(dump), capsys=capsys)
        assert code == 0
        assert out.count("ok") == 2

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("model v1\nmeta hidden x\n")
        code, _ = run_cli("validate", str(bad), capsys=capsys)
        assert code == 2

    def test_validate_rejects_a_config_no_model_can_use(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text(serialize_config(ExperimentConfig()))
        assert run_cli("validate", str(good), capsys=capsys)[0] == 0
        for k, line in enumerate(("temperature = 0.0", "learning_rate = nan", "hidden = 0",
                                  "batch_size = 0", "c_puct = nan", "batch_size = 4096")):
            bad = tmp_path / f"bad{k}.txt"
            bad.write_text(f"{line}\n")
            code, _ = run_cli("validate", str(bad), capsys=capsys)
            assert code == 2, line

    def test_eval_rejects_a_c_puct_no_search_can_use(self, capsys):
        for value in ("nan", "inf", "-1"):
            assert main(["eval", "--untrained", "--tasks", "2", "--c-puct", value]) == 2, value
            captured = capsys.readouterr()
            assert captured.err.startswith("error: c_puct"), captured.err
            assert "c_puct =" not in captured.out

    def test_a_truncated_checkpoint_is_named_in_the_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("model v1\nmeta hidden\n")
        for argv in (["validate", str(bad)], ["eval", "--checkpoint", str(bad), "--tasks", "1"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "meta" in err and "index" not in err, err

    def test_train_rejects_a_zero_temperature_before_training(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("temperature = 0\nepisodes = 2\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
        assert "temperature" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_validate_rejects_impossible_tree_dumps(self, tmp_path, capsys):
        # a negative visit count, an unexpanded node, a split under a
        # missing sub-task: parse fine, but no search writes them
        for k, text in enumerate(("OR 1,1 2,2 0.5 -3 true\n",
                                  "OR 1,1 2,2 0.5 0 false\n",
                                  "OR 1,1 2,2 0.5 1 true\nAND 1,1 ∅ 3,3 1\n")):
            bad = tmp_path / f"dump{k}.txt"
            bad.write_text(text, encoding="utf-8")
            code, _ = run_cli("validate", str(bad), capsys=capsys)
            assert code == 2, text

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate")[0] == 1

    def test_no_arguments_is_usage_error(self):
        assert run_cli()[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0


def test_readme_table_names_every_subcommand():
    """The README's subcommand table lists exactly the CLI's subcommands."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = re.findall(r"^\| `([a-z-]+)` \|", readme, flags=re.MULTILINE)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
