"""Joint-accuracy scoring and the simple-vs-extended feature ablation.

The headline metric is joint accuracy: a prediction counts only when both
the DR grade and the DME grade match the reference.  Per-head accuracies
and confusion matrices are kept alongside for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .grader import DEFAULT_HIDDEN_DIMS, TrainConfig, _check_dims, predict_batch, train
from .mask_io import (
    DME_GRADE_NAMES,
    DR_GRADE_NAMES,
    GradePair,
    ManifestRecord,
    graded,
    load_manifest,
    load_mask,
    write_csv,
)
from .regions import RegionSet, extract_regions
from .symbolic import (
    DEFAULT_THRESHOLDS,
    FeatureMode,
    FeatureVector,
    SizeThresholds,
    features_of,
)

REPORT_COLUMNS = ("arm", "n", "joint_accuracy", "dr_accuracy", "dme_accuracy")


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary over one set of (reference, predicted) grade pairs."""

    n_samples: int
    joint_accuracy: float
    dr_accuracy: float
    dme_accuracy: float
    dr_confusion: np.ndarray  # (5, 5), rows = reference grade, cols = predicted
    dme_confusion: np.ndarray  # (3, 3)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvalReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def joint_accuracy(reference: Sequence[GradePair], predicted: Sequence[GradePair]) -> float:
    """Fraction of samples where both grades match.  Empty input is an error."""
    return evaluate(reference, predicted).joint_accuracy


def evaluate(reference: Sequence[GradePair], predicted: Sequence[GradePair]) -> EvalReport:
    """Score predictions against reference grades in one pass.  Empty input is an error."""
    if len(reference) != len(predicted):
        raise ValueError(
            f"got {len(reference)} reference pairs but {len(predicted)} predictions"
        )
    if not reference:
        raise ValueError("cannot score an empty set of predictions")
    n = len(reference)
    dr_conf = np.zeros((len(DR_GRADE_NAMES),) * 2, dtype=int)
    dme_conf = np.zeros((len(DME_GRADE_NAMES),) * 2, dtype=int)
    hits = 0
    for ref, pred in zip(reference, predicted):
        dr_conf[ref.dr, pred.dr] += 1
        dme_conf[ref.dme, pred.dme] += 1
        hits += ref == pred
    # int() keeps each accuracy a Python float, as hits / n is.
    return EvalReport(n, hits / n, int(dr_conf.trace()) / n, int(dme_conf.trace()) / n, dr_conf, dme_conf)


def format_report(report: EvalReport, title: Optional[str] = None) -> str:
    lines = [title] if title else []
    lines += [
        f"samples:        {report.n_samples}",
        f"joint accuracy: {report.joint_accuracy:.4f}",
        f"DR accuracy:    {report.dr_accuracy:.4f}",
        f"DME accuracy:   {report.dme_accuracy:.4f}",
    ]
    for head, confusion in (("DR", report.dr_confusion), ("DME", report.dme_confusion)):
        lines.append(f"{head} confusion (row = reference grade, column = predicted):")
        lines += ["  " + " ".join(f"{v:5d}" for v in row) for row in confusion]
    return "\n".join(lines)


def write_report_csv(path: str | Path, reports: Sequence[tuple[str, EvalReport]]) -> None:
    """Write one CSV row per named report (confusion matrices are not included).

    A name holding a comma, a quote or a line break is quoted, as ids are.
    """
    write_csv(path, REPORT_COLUMNS, (
        (arm, r.n_samples, r.joint_accuracy, r.dr_accuracy, r.dme_accuracy) for arm, r in reports
    ))


# ---------------------------------------------------------------------------
# Manifest-driven extraction and the feature ablation


@dataclass(frozen=True)
class ExtractedImage:
    """Regions of all four masks of one image, plus its label when present.

    A list of these holds every run of every mask; ``retsym extract`` and
    :func:`ablation` take them one at a time from :func:`iter_extracted`.
    """

    image_id: str
    region_sets: tuple[RegionSet, ...]
    label: Optional[GradePair]


def iter_extracted(records: Iterable[ManifestRecord]) -> Iterator[ExtractedImage]:
    """Load one image's four masks and extract their regions, image by image."""
    for record in records:
        yield ExtractedImage(
            record.image_id,
            tuple(extract_regions(load_mask(path, cls)) for cls, path in record.mask_paths.items()),
            record.label,
        )


def extract_dataset(manifest_path: str | Path) -> list[ExtractedImage]:
    """Every image of a manifest with its regions, held at once for inspection (checks, demos)."""
    return list(iter_extracted(load_manifest(manifest_path)))


def features_for_mode(
    images: Iterable[ExtractedImage],
    mode: FeatureMode,
    thresholds: SizeThresholds = DEFAULT_THRESHOLDS,
) -> list[FeatureVector]:
    """One feature vector per image.

    Fed by :func:`iter_extracted`, it holds one image's regions at a time:
    map() drops each image before it draws the next.
    """
    return list(map(lambda img: features_of(img.region_sets, mode, thresholds), images))


@dataclass(frozen=True)
class AblationResult:
    simple: EvalReport
    extended: EvalReport
    n_train: int
    n_test: int

    @property
    def gap(self) -> float:
        """Extended-arm joint accuracy minus simple-arm joint accuracy."""
        return self.extended.joint_accuracy - self.simple.joint_accuracy


def ablation(
    manifest_path: str | Path,
    config: TrainConfig,
    thresholds: SizeThresholds = DEFAULT_THRESHOLDS,
    test_fraction: float = 0.2,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
) -> AblationResult:
    """Train and score both feature modes on one shared train/test split.

    Grades and ``hidden_dims`` are checked before any mask is read.  Masks
    are loaded and regions extracted once, one image at a time; the two arms
    differ only in how regions are summarized into features.  The split permutation and
    both arms' training runs draw from the same ``config.seed``, so the
    comparison is paired.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    for mode in FeatureMode:
        _check_dims((mode.length, *hidden_dims), mode)
    records = load_manifest(manifest_path)
    labels = graded([(r.image_id, r.label) for r in records], "ablation")
    n = len(records)
    if n < 5:
        raise ValueError(f"ablation needs at least 5 labeled images, got {n}")
    # As in features_for_mode, map() drops each image before reading the next.
    both_modes = map(
        lambda img: [features_of(img.region_sets, mode, thresholds) for mode in FeatureMode],
        iter_extracted(records),
    )
    vectors = dict(zip(FeatureMode, zip(*both_modes)))

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_test = min(max(1, round(n * test_fraction)), n - 2)
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    reports = {}
    for mode, fvs in vectors.items():
        model = train(
            [(fvs[i], labels[i]) for i in train_idx],
            config,
            thresholds=thresholds,
            hidden_dims=hidden_dims,
        )
        predictions = predict_batch(model, [fvs[i] for i in test_idx])
        reports[mode] = evaluate([labels[i] for i in test_idx], predictions)
    return AblationResult(
        simple=reports[FeatureMode.SIMPLE],
        extended=reports[FeatureMode.EXTENDED],
        n_train=n - n_test,
        n_test=n_test,
    )
