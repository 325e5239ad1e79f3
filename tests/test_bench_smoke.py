"""`bench/run.py --trace 1` runs every workload end to end: each wraps the
subplan attributes of its TRACED table, runs traced and untraced passes, and
prints one JSON line.  A wrap target that no longer resolves, or a traced
pass that raises, makes the run exit 1; this test runs the real path once at
the shortest duration."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_traced_run_of_every_workload_is_correct():
    # --trace 1 only: --trace 0 spawns set-up probe processes per workload
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    reports = [json.loads(line) for line in out.stdout.splitlines()
               if line.startswith("{")]
    assert len(reports) == 3, out.stdout
    for report in reports:
        assert report["correct"] is True
        assert report["failed"] == 0
