"""The demo scripts import only what the package root exports, and the
quickest one runs to completion."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subplan

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def root_imports(path: Path) -> list[str]:
    """Names a script imports with `from subplan import ...`."""
    tree = ast.parse(path.read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "subplan" and node.level == 0
        for alias in node.names
    ]


def test_demos_found():
    assert [p.name for p in DEMOS] == ["compare_modes.py", "plan_one_maze.py", "train_small.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_are_exported(path):
    names = root_imports(path)
    assert names, f"{path.name} imports nothing from subplan"
    missing = [n for n in names if n not in subplan.__all__ or not hasattr(subplan, n)]
    assert not missing, f"{path.name} imports names subplan does not export: {missing}"


def test_plan_one_maze_runs():
    src = str(Path(subplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = next(p for p in DEMOS if p.name == "plan_one_maze.py")
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "plan v1" in proc.stdout
