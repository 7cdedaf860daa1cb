"""The benchmark's workloads and the set-up that writes their inputs.

Every input comes from ``retsym.synth.generate`` with the workload seed; the
``speckle-1024`` and ``ascii-256`` workloads then rewrite each mask (salt
noise, or P2 text).  The program only ever sees the files written here.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from retsym import mask_io, synth
from retsym.mask_io import LesionClass, LesionMask

MASK_COLUMNS = {cls.manifest_column: cls for cls in LesionClass}

# Every round trains exactly this many epochs: patience is set to the same
# number, so early stopping never fires.
EPOCHS = 60
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n_images: int
    canvas: int  # square masks, canvas x canvas pixels
    ascii_masks: bool = False
    # Salt-noise density range; each mask gets one density from an evenly
    # spaced schedule over the range, shuffled by the seed, so every seed has
    # the same total noise.
    speckle: Optional[tuple[float, float]] = None
    min_joint_accuracy: Optional[float] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cohort-256",
            n_images=2000,
            canvas=256,
            # Catches broken training: a constant predictor scores at most
            # 0.125 on the generator's grade mix.  The 0.90 that acceptance
            # run A5 asserts for seed 42 is not a floor here, because with the
            # default training settings some seeds settle in a poor basin
            # (0.7475 on seed 2, the lowest of seeds 1-25).
            min_joint_accuracy=0.5,
        ),
        Workload(
            name="speckle-1024",
            n_images=10,
            canvas=1024,
            speckle=(0.005, 0.05),
        ),
        Workload(
            name="ascii-256",
            n_images=16,
            canvas=256,
            ascii_masks=True,
        ),
    )
}

_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_p5(path: Path) -> np.ndarray:
    """The benchmark's own reader for the comment-free P5 files the generator writes."""
    data = path.read_bytes()
    match = _P5_HEADER.match(data)
    if match is None:
        raise ValueError(f"{path}: not a comment-free P5 file")
    width, height = int(match[1]), int(match[2])
    payload = data[match.end() :]
    if len(payload) != width * height:
        raise ValueError(f"{path}: {len(payload)} payload bytes for {width}x{height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def mask_paths(manifest: Path) -> list[tuple[str, LesionClass, Path]]:
    """(image_id, class, path) for every mask, in manifest order."""
    with manifest.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [
        (row["image_id"], cls, manifest.parent / row[column])
        for row in rows
        for column, cls in MASK_COLUMNS.items()
    ]


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's masks, manifest and ground truth; return the manifest path."""
    spec = synth.SynthSpec(
        n_images=workload.n_images, width=workload.canvas, height=workload.canvas, seed=seed
    )
    # Module attributes, not imported names, so that traced set-ups see the calls.
    manifest = synth.generate(spec, out_dir)
    if workload.speckle is not None:
        masks = mask_paths(manifest)
        rng = np.random.default_rng([seed, 1])
        densities = rng.permutation(np.linspace(*workload.speckle, num=len(masks)))
        for (_, cls, path), density in zip(masks, densities):
            pixels = (read_p5(path) > 127) | (rng.random((spec.height, spec.width)) < density)
            mask_io.save_mask(LesionMask(pixels, cls), path)
        # Noise merges into planted regions, so the planted counts no longer hold.
        (out_dir / "ground_truth.csv").unlink()
    elif workload.ascii_masks:
        for _, cls, path in mask_paths(manifest):
            mask_io.save_mask(LesionMask(read_p5(path) > 127, cls), path, ascii_format=True)
    return manifest
