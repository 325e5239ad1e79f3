"""Rebuild the trained checkpoint that the search-trained-11 workload loads.

    python3 bench/make_fixture.py            # write the fixture
    python3 bench/make_fixture.py --check    # rebuild and compare byte-for-byte

The checkpoint comes from ``training_loop`` at 11x11, density 0.75,
divide_and_conquer, c_puct 5, budget 100, seed 0 and the default
``TrainConfig`` cut to 150 episodes.  ``run.py`` pins the committed file by
its sha256, so a changed fixture shows up as a set-up failure, not as drift.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from subplan.heuristics import EnvConfig, TrainConfig, save_checkpoint, training_loop  # noqa: E402
from subplan.planner import PlannerConfig  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "trained_11x11_b100_seed0_ep150.ckpt"
EPISODES = 150
SEED = 0


def build() -> str:
    env = EnvConfig(width=11, height=11, density=0.75)
    planner = PlannerConfig(budget=100, c_puct=5.0, mode="divide_and_conquer")
    run = training_loop(env, planner, replace(TrainConfig(), episodes=EPISODES), seed=SEED)
    return save_checkpoint(run.model, episode=EPISODES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild and compare with the committed file instead of writing it")
    args = parser.parse_args()
    text = build()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if args.check:
        same = FIXTURE.read_text() == text
        print(f"{'match' if same else 'MISMATCH'} sha256={digest}")
        return 0 if same else 1
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE.name} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
