"""Joint-accuracy scoring and the simple-vs-extended feature ablation.

The headline metric is joint accuracy: a prediction counts only when both
the DR grade and the DME grade match the reference.  Per-head accuracies
and confusion matrices are kept alongside for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grader import (
    DEFAULT_HIDDEN_DIMS,
    GradePair,
    N_DME_CLASSES,
    N_DR_CLASSES,
    TrainConfig,
    predict_batch,
    train,
)
from .mask_io import load_manifest, load_mask, write_csv
from .regions import RegionSet, extract_regions
from .symbolic import (
    DEFAULT_THRESHOLDS,
    FeatureMode,
    FeatureVector,
    SizeThresholds,
    extended_features,
    simple_features,
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
        return (
            self.n_samples == other.n_samples
            and self.joint_accuracy == other.joint_accuracy
            and self.dr_accuracy == other.dr_accuracy
            and self.dme_accuracy == other.dme_accuracy
            and np.array_equal(self.dr_confusion, other.dr_confusion)
            and np.array_equal(self.dme_confusion, other.dme_confusion)
        )


def joint_accuracy(reference: Sequence[GradePair], predicted: Sequence[GradePair]) -> float:
    """Fraction of samples where both grades match.  Empty input is an error."""
    if len(reference) != len(predicted):
        raise ValueError(
            f"got {len(reference)} reference pairs but {len(predicted)} predictions"
        )
    if not reference:
        raise ValueError("cannot score an empty set of predictions")
    hits = sum(1 for ref, pred in zip(reference, predicted) if ref == pred)
    return hits / len(reference)


def evaluate(reference: Sequence[GradePair], predicted: Sequence[GradePair]) -> EvalReport:
    """Score predictions against reference grades."""
    joint = joint_accuracy(reference, predicted)
    n = len(reference)
    dr_conf = np.zeros((N_DR_CLASSES, N_DR_CLASSES), dtype=int)
    dme_conf = np.zeros((N_DME_CLASSES, N_DME_CLASSES), dtype=int)
    dr_hits = dme_hits = 0
    for ref, pred in zip(reference, predicted):
        dr_conf[ref.dr, pred.dr] += 1
        dme_conf[ref.dme, pred.dme] += 1
        dr_hits += ref.dr == pred.dr
        dme_hits += ref.dme == pred.dme
    return EvalReport(
        n_samples=n,
        joint_accuracy=joint,
        dr_accuracy=dr_hits / n,
        dme_accuracy=dme_hits / n,
        dr_confusion=dr_conf,
        dme_confusion=dme_conf,
    )


def format_report(report: EvalReport, title: Optional[str] = None) -> str:
    lines = []
    if title:
        lines.append(title)
    lines += [
        f"samples:        {report.n_samples}",
        f"joint accuracy: {report.joint_accuracy:.4f}",
        f"DR accuracy:    {report.dr_accuracy:.4f}",
        f"DME accuracy:   {report.dme_accuracy:.4f}",
        "DR confusion (row = reference grade, column = predicted):",
    ]
    lines += ["  " + " ".join(f"{v:5d}" for v in row) for row in report.dr_confusion]
    lines.append("DME confusion (row = reference grade, column = predicted):")
    lines += ["  " + " ".join(f"{v:5d}" for v in row) for row in report.dme_confusion]
    return "\n".join(lines)


def write_report_csv(path: str | Path, reports: Sequence[tuple[str, EvalReport]]) -> None:
    """Write one CSV row per named report (confusion matrices are not included)."""
    for arm, _ in reports:
        if "," in arm or "\n" in arm:
            raise ValueError(f"report name {arm!r} must not contain commas or newlines")
    write_csv(path, REPORT_COLUMNS, (
        (arm, r.n_samples, r.joint_accuracy, r.dr_accuracy, r.dme_accuracy) for arm, r in reports
    ))


# ---------------------------------------------------------------------------
# Manifest-driven extraction and the feature ablation


@dataclass(frozen=True)
class ExtractedImage:
    """Regions of all four masks of one image, plus its label when present."""

    image_id: str
    region_sets: tuple[RegionSet, ...]
    label: Optional[GradePair]


def extract_dataset(manifest_path: str | Path) -> list[ExtractedImage]:
    """Load every mask named by a manifest and extract its regions."""
    images = []
    for record in load_manifest(manifest_path):
        region_sets = tuple(extract_regions(load_mask(path, cls)) for cls, path in record.mask_paths.items())
        label = None
        if record.labeled:
            label = GradePair(dr=record.dr_grade, dme=record.dme_grade)
        images.append(ExtractedImage(record.image_id, region_sets, label))
    return images


def features_for_mode(
    images: Sequence[ExtractedImage],
    mode: FeatureMode,
    thresholds: SizeThresholds = DEFAULT_THRESHOLDS,
) -> list[FeatureVector]:
    if mode is FeatureMode.SIMPLE:
        return [simple_features(img.region_sets) for img in images]
    return [extended_features(img.region_sets, thresholds) for img in images]


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

    Masks are loaded and regions extracted once; the two arms differ only
    in how regions are summarized into features.  The split permutation and
    both arms' training runs draw from the same ``config.seed``, so the
    comparison is paired.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    images = extract_dataset(manifest_path)
    unlabeled = [img.image_id for img in images if img.label is None]
    if unlabeled:
        raise ValueError(
            f"ablation needs grades for every image; missing for {unlabeled[:5]}"
        )
    n = len(images)
    if n < 5:
        raise ValueError(f"ablation needs at least 5 labeled images, got {n}")
    labels = [img.label for img in images]

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_test = min(max(1, round(n * test_fraction)), n - 2)
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    reports = {}
    for mode in (FeatureMode.SIMPLE, FeatureMode.EXTENDED):
        fvs = features_for_mode(images, mode, thresholds)
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
