"""A small seed sweep: the default training settings converge on fresh data seeds.

``tools/sweep.py`` measures held-out joint accuracy over data seeds.  Seeds
1-12 chose the defaults and seeds 13-25 checked them; the seeds here are the
next four integers, fixed before the test first ran and not picked by result.
"""

import importlib.util
from pathlib import Path

from retsym import TrainConfig

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
SEEDS = (26, 27, 28, 29)


def _sweep_module():
    spec = importlib.util.spec_from_file_location("tools_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_training_reaches_090_on_fresh_data_seeds():
    sweep = _sweep_module()
    rows = [sweep.sweep_seed(seed, TrainConfig()) for seed in SEEDS]
    assert sweep.summarize(rows)["min_joint_accuracy"] >= 0.90, rows
