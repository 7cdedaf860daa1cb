"""Held-out joint accuracy of the grader over synthetic data seeds.

    PYTHONPATH=src python3 tools/sweep.py --seeds 13-25 [--batch-size N] [--lr X] ...

Each data seed ``s`` gives one dataset, ``plan_dataset(SynthSpec(n_images=2000,
width=256, height=256, seed=s))``.  Its features are the planted bucket counts
as extended features; acceptance run A3 checks that extraction from the masks
gives exactly these, so no mask is written or read.  20% of the rows are held
out by ``np.random.default_rng([s, 2]).permutation``, as ``bench/run.py``
splits them, and the training rows keep their file order.  The grader trains
with the CLI's defaults; the training flags of ``retsym train`` (``--lr``,
``--batch-size``, ``--max-epochs``, ``--patience``, ``--seed``,
``--hidden-dims``, ``--config``, ...) override them the same way.

Stdout gets one JSON object per data seed, then one summary object: the
minimum joint accuracy, its seed, and the seeds below 0.90.  Each seed's
object also holds ``train_s``, the wall-clock seconds of its ``train`` call;
every other field is the same on every run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from retsym import FeatureMode, FeatureVector, SynthSpec, TrainConfig, evaluate, plan_dataset, predict_batch, train
from retsym.cli import _add_train_options, _training_settings
from retsym.grader import DEFAULT_HIDDEN_DIMS
from retsym.mask_io import parse_int

N_IMAGES = 2000
CANVAS = 256
HELDOUT_FRACTION = 0.2
FLOOR = 0.90


def sweep_seed(seed: int, config: TrainConfig, hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS) -> dict:
    """Train on data seed ``seed``'s training rows and score its held-out rows."""
    plans = plan_dataset(SynthSpec(n_images=N_IMAGES, width=CANVAS, height=CANVAS, seed=seed))
    vectors = [FeatureVector(FeatureMode.EXTENDED, tuple(p.bucket_counts.ravel().tolist())) for p in plans]
    labels = [p.label for p in plans]
    is_heldout = np.zeros(len(plans), dtype=bool)
    is_heldout[np.random.default_rng([seed, 2]).permutation(len(plans))[: round(len(plans) * HELDOUT_FRACTION)]] = True
    started = time.perf_counter()
    model = train([(v, y) for v, y, h in zip(vectors, labels, is_heldout) if not h], config, hidden_dims=hidden_dims)
    train_s = time.perf_counter() - started
    heldout = np.flatnonzero(is_heldout)
    report = evaluate([labels[i] for i in heldout], predict_batch(model, [vectors[i] for i in heldout]))
    return {
        "seed": seed,
        "joint_accuracy": report.joint_accuracy,
        "dr_accuracy": report.dr_accuracy,
        "dme_accuracy": report.dme_accuracy,
        "best_epoch": model.training_meta["best_epoch"],
        "epochs_run": model.training_meta["epochs_run"],
        "train_s": round(train_s, 3),
    }


def summarize(rows: Sequence[dict]) -> dict:
    """The minimum joint accuracy over ``rows``, its seed, and the seeds below ``FLOOR``."""
    worst = min(rows, key=lambda row: row["joint_accuracy"])
    return {
        "seeds": len(rows),
        "min_joint_accuracy": worst["joint_accuracy"],
        "min_seed": worst["seed"],
        f"below_{FLOOR:.2f}": [row["seed"] for row in rows if row["joint_accuracy"] < FLOOR],
    }


def parse_seeds(text: str) -> list[int]:
    """``13-25``, ``7,9,11`` or a mix such as ``1-3,8``, as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        first = parse_int(low, "--seeds")
        last = parse_int(high, "--seeds") if high else first
        if not 0 <= first <= last:
            raise ValueError(f"--seeds range {part!r} must run from a seed >= 0 upwards")
        seeds.extend(range(first, last + 1))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="data seeds, such as 13-25 or 1,4,9")
    _add_train_options(parser)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        _, config, options = _training_settings(args)
    except ValueError as exc:  # a bad --seeds value or --config file
        parser.error(str(exc))
    rows = []
    for seed in seeds:
        rows.append(sweep_seed(seed, config, options["hidden_dims"]))
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({**summarize(rows), "config": config.to_dict(), "hidden_dims": list(options["hidden_dims"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
