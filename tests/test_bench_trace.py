"""`bench/run.py` imports names from subplan and wraps subplan attributes:
those in its TRACED table under `--trace 1`, and a few it names directly in
every run.  A rename in subplan must not leave one dangling.  The file is
read with `ast`, never run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def run_tree() -> ast.Module:
    return ast.parse(RUN.read_text())


def resolve(module: str, attr: str):
    """The object module.attr names, through dotted attributes."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def unresolved(targets) -> list[str]:
    """The (module, attr) targets that are missing or not callable."""
    missing = []
    for module, attr in targets:
        try:
            if not callable(resolve(module, attr)):
                missing.append(f"{module}.{attr} (not callable)")
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
    return missing


def traced_table() -> tuple[tuple[str, str, str], ...]:
    """TRACED of bench/run.py."""
    for node in run_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no TRACED table")


def test_every_traced_attribute_resolves():
    table = traced_table()
    assert table
    for module, _attr, _span in table:
        assert module == "subplan" or module.startswith("subplan."), module
    missing = unresolved((module, attr) for module, attr, _span in table)
    assert not missing, f"bench/run.py traces attributes subplan lacks: {missing}"


def test_every_literal_wrap_target_resolves():
    # patches.wrap("subplan.harness", "eval_task", ...) and the like, outside TRACED
    targets = [
        (call.args[0].value, call.args[1].value)
        for call in ast.walk(run_tree())
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "wrap"
        and len(call.args) >= 2
        and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in call.args[:2])
    ]
    assert ("subplan.harness", "eval_task") in targets
    missing = unresolved(targets)
    assert not missing, f"bench/run.py wraps attributes subplan lacks: {missing}"


def test_every_name_imported_from_subplan_resolves():
    names = []
    for node in ast.walk(run_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subplan":
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "subplan"
            ]
    assert ("subplan.heuristics", "load_checkpoint") in names
    missing = []
    for module, name in names:
        try:
            owner = importlib.import_module(module)
            if name is not None and not hasattr(owner, name):
                importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            missing.append(module if name is None else f"{module}.{name}")
    assert not missing, f"bench/run.py imports names subplan lacks: {missing}"
