"""`bench/run.py --trace 1` times layers by wrapping subplan attributes it
names in its TRACED table; a rename in subplan must not leave one dangling."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_table() -> tuple[tuple[str, str, str], ...]:
    """TRACED of bench/run.py, read from its source without running it."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no TRACED table")


def test_every_traced_attribute_resolves():
    table = traced_table()
    assert table
    missing = []
    for module, attr, _span in table:
        assert module == "subplan" or module.startswith("subplan."), module
        owner = importlib.import_module(module)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        if not callable(owner):
            missing.append(f"{module}.{attr} (not callable)")
    assert not missing, f"bench/run.py traces attributes subplan lacks: {missing}"
