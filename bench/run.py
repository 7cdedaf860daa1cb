"""Benchmark of the mask-to-explanation pipeline, run as a user would run it.

    PYTHONPATH=src python3 bench/run.py --workload cohort-256 --seed 1 --seconds 20 --trace 0

Set-up writes the workload's inputs from ``--seed`` (several times, each in
its own process; ``setup_s`` is the median).  Then, for ``--seconds``, the
benchmark runs whole rounds of ``retsym extract`` (extended mode), ``train``
(fixed epoch count), ``predict``, ``explain`` and ``evaluate`` in this
process through ``retsym.cli.main``, one command after the other.  The
outputs of every round must be identical, and the last round's outputs are
checked for correctness.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (images), and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over rounds); with ``--trace 1`` the rounds
alternate between untraced and traced, and the metrics are the per-layer
ones from :mod:`spans` (medians over traced rounds), plus the
tracing overhead.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import common

common.prepare()

import numpy as np  # noqa: E402  (after prepare(): threads pinned, src/ on the path)

import checks  # noqa: E402
import spans  # noqa: E402
from retsym import cli  # noqa: E402
from workloads import EPOCHS, SETUP_REPEATS, WORKLOADS, Workload  # noqa: E402

HELDOUT_FRACTION = 0.2
OUTPUTS = ("features.csv", "model.json", "predictions.csv", "explanations.txt", "report.csv")
SETUP_TIMEOUT_S = 120


class RoundFailed(Exception):
    pass


def set_up(workload: Workload, seed: int, out: Path, trace: bool) -> dict:
    """Write the inputs in a fresh process; returns its JSON result line."""
    proc = subprocess.run(
        [
            sys.executable,
            str(common.BENCH_DIR / "make_inputs.py"),
            "--workload", workload.name,
            "--seed", str(seed),
            "--out", str(out),
            "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up of {workload.name} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def split_heldout(features: Path, train: Path, heldout: Path, seed: int) -> None:
    """Seeded 80/20 split of the extracted rows, in file order (not timed)."""
    with features.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    n_heldout = round(len(rows) * HELDOUT_FRACTION)
    is_heldout = np.zeros(len(rows), dtype=bool)
    is_heldout[np.random.default_rng([seed, 2]).permutation(len(rows))[:n_heldout]] = True
    for path, keep in ((train, ~is_heldout), (heldout, is_heldout)):
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(row for row, k in zip(rows, keep) if k)


def run_cli(command: str, args: list[str], tracer: Optional[spans.Tracer]) -> float:
    """One ``retsym`` command in-process; returns its wall time."""
    sink = io.StringIO()
    span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), span:
        code = cli.main([command, *args])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RoundFailed(f"retsym {command} exited {code}")
    return elapsed


def run_round(workload: Workload, seed: int, manifest: Path, out: Path, tracer) -> dict[str, float]:
    """extract -> (split) -> train -> predict -> explain -> evaluate."""
    epochs = str(EPOCHS)
    features, train_csv, heldout = out / "features.csv", out / "train.csv", out / "heldout.csv"
    model, predictions = out / "model.json", out / "predictions.csv"
    times = {
        "extract": run_cli(
            "extract",
            ["--manifest", str(manifest), "--mode", "extended", "--out", str(features)],
            tracer,
        )
    }
    split_heldout(features, train_csv, heldout, seed)
    times["train"] = run_cli(
        "train",
        ["--features", str(train_csv), "--out", str(model), "--max-epochs", epochs, "--patience", epochs],
        tracer,
    )
    times["predict"] = run_cli(
        "predict", ["--model", str(model), "--features", str(heldout), "--out", str(predictions)], tracer
    )
    times["explain"] = run_cli(
        "explain",
        ["--model", str(model), "--features", str(heldout), "--out", str(out / "explanations.txt")],
        tracer,
    )
    times["evaluate"] = run_cli(
        "evaluate",
        ["--truth", str(manifest), "--pred", str(predictions), "--out", str(out / "report.csv")],
        tracer,
    )
    times["pipeline"] = sum(times.values())
    return times


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def set_up_all(workload: Workload, seed: int, trace: bool, work: Path) -> tuple[Path, list[dict]]:
    """Set up ``SETUP_REPEATS`` times; keep only the last inputs.

    Each set-up's files are removed before the next one starts, so the page
    cache never holds more than one set of unwritten inputs.
    """
    inputs = work / "inputs"
    setups = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        setups.append(set_up(workload, seed, inputs, trace))
        print(f"bench: set-up {k + 1}: {setups[-1]['setup_s']:.3f}s", file=sys.stderr)
    return inputs, setups


class Rounds:
    """Stage times of the untraced rounds, and times plus per-layer metrics of the traced ones."""

    def __init__(self) -> None:
        self.untraced: list[dict[str, float]] = []
        self.traced: list[tuple[dict[str, float], dict]] = []
        self.count = self.failed = 0
        self.digests: set[str] = set()


def run_rounds(workload: Workload, seed: int, manifest: Path, out: Path, seconds: float, trace: bool) -> Rounds:
    """Whole rounds until ``seconds`` have passed since the first one began,
    and at least three, so that a median passes over one slow round.

    With tracing, rounds alternate untraced, traced, untraced, ...
    """
    tracer = spans.Tracer()
    rounds = Rounds()
    start = time.perf_counter()
    while rounds.count < 3 or time.perf_counter() - start < seconds:
        traced = trace and rounds.count % 2 == 1
        rounds.count += 1
        gc.collect()
        try:
            if traced:
                tracer.reset()
                tracer.trace_id = rounds.count
                with tracer.patched():
                    times = run_round(workload, seed, manifest, out, tracer)
                rounds.traced.append((times, spans.pipeline_metrics(tracer)))
            else:
                times = run_round(workload, seed, manifest, out, None)
                rounds.untraced.append(times)
        except RoundFailed as exc:
            print(f"bench: round {rounds.count}: {exc}", file=sys.stderr)
            rounds.failed += 1
            continue
        rounds.digests.add(digest(out))
        stages = ", ".join(f"{stage} {t:.3f}s" for stage, t in times.items())
        print(f"bench: round {rounds.count}{' (traced)' if traced else ''}: {stages}", file=sys.stderr)
    return rounds


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    inputs, setups = set_up_all(workload, seed, trace, work)
    manifest = inputs / "manifest.csv"
    out = work / "outputs"
    out.mkdir()
    rounds = run_rounds(workload, seed, manifest, out, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    parse_s = accuracy = 0.0
    if rounds.failed == rounds.count:
        problems.append("no round finished")
    else:
        if len(rounds.digests) != 1:
            problems.append(f"rounds produced {len(rounds.digests)} different sets of outputs")
        found, parse_s, accuracy = checks.check_round(workload, inputs, out)
        problems += found
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    def median(samples: list[dict[str, float]], stage: str) -> float:
        return statistics.median(t[stage] for t in samples)

    if trace:
        metrics = median_metrics([m for _, m in rounds.traced])
        metrics.update(median_metrics([s["layers"] for s in setups]))
        metrics["explain.parse_s"] = {"value": parse_s, "unit": "s"}
        metrics["evaluation.heldout_joint_accuracy"] = {"value": accuracy, "unit": "ratio"}
        overhead = median([t for t, _ in rounds.traced], "pipeline") - median(rounds.untraced, "pipeline")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(setups, "setup_s"), "unit": "s"},
            "extract_s": {"value": median(rounds.untraced, "extract"), "unit": "s"},
            "train_s": {"value": median(rounds.untraced, "train"), "unit": "s"},
            "pipeline_s": {"value": median(rounds.untraced, "pipeline"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    n_images = workload.n_images
    return {
        "correct": not problems,
        "attempted": rounds.count * n_images,
        "failed": rounds.failed * n_images,
        "metrics": metrics,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="how long to run rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # On SIGTERM, unwind through the finally below (and kill a running set-up).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = common.BENCH_DIR / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
