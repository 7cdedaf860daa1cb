"""Human-readable symbolic feature vectors built from lesion regions.

Two representations: the simple 4-vector of raw per-class region counts, and
the extended 12-vector of per-class small/medium/large counts after size
quantization.  Size buckets follow half-open interval rules on pixel count s:
small when t0 < s <= t1, medium when t1 < s <= t2, large when t2 < s <= t3;
anything at or below t0, or above t3, is discarded as segmentation noise.
Only the extended representation filters; the simple counts keep every
region, single-pixel specks included.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .mask_io import GradePair, LesionClass, _shown, integers, parse_grades, parse_int, read_table, write_csv
from .regions import RegionSet

SIZE_WORDS = ("small", "medium", "large")

LESION_ORDER = tuple(LesionClass)


class FeatureMode(enum.Enum):
    SIMPLE = "simple"
    EXTENDED = "extended"

    @property
    def length(self) -> int:
        return 4 if self is FeatureMode.SIMPLE else 12


@dataclass(frozen=True)
class SizeThresholds:
    """Strictly increasing pixel-count cut points for size quantization."""

    tau0: int = 10
    tau1: int = 500
    tau2: int = 1000
    tau3: int = 10000

    def __post_init__(self) -> None:
        cuts = integers(self.as_tuple(), "thresholds")
        if not (cuts[0] < cuts[1] < cuts[2] < cuts[3]):
            raise ValueError(f"thresholds must be strictly increasing, got {cuts}")
        for f, cut in zip(fields(self), cuts):
            object.__setattr__(self, f.name, cut)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.tau0, self.tau1, self.tau2, self.tau3)

    def bucket_of(self, size: int) -> Optional[int]:
        """Bucket index 0/1/2 for small/medium/large, None for discarded."""
        slot = bisect_left(self.as_tuple(), size)  # the slot rule of extended_features
        return slot - 1 if 1 <= slot <= 3 else None


DEFAULT_THRESHOLDS = SizeThresholds()


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Region counts in a fixed order: MA, HE, SE, EX (x small/medium/large
    when extended)."""

    mode: FeatureMode
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = integers(self.values, "feature counts")
        if len(values) != self.mode.length:
            raise ValueError(
                f"{self.mode.value} feature vector needs {self.mode.length} entries, "
                f"got {len(values)}"
            )
        # Counts stay below 2**53, where float64 (the grader's input) is exact.
        if any(not 0 <= v < 2**53 for v in values):
            raise ValueError(f"feature counts must be in 0..2**53-1, got {_shown(str(values), str)}")
        object.__setattr__(self, "values", values)


def _by_class(region_sets: Iterable[RegionSet]) -> dict[LesionClass, RegionSet]:
    by_class: dict[LesionClass, RegionSet] = {}
    for rs in region_sets:
        if rs.lesion_class in by_class:
            raise ValueError(f"duplicate region set for lesion class {rs.lesion_class.name}")
        by_class[rs.lesion_class] = rs
    missing = [cls.name for cls in LESION_ORDER if cls not in by_class]
    if missing:
        raise ValueError(f"missing region set(s) for lesion class(es) {', '.join(missing)}")
    return by_class


def simple_features(region_sets: Iterable[RegionSet]) -> FeatureVector:
    """Raw region counts per class, unfiltered: [n_MA, n_HE, n_SE, n_EX]."""
    by_class = _by_class(region_sets)
    return FeatureVector(
        mode=FeatureMode.SIMPLE,
        values=tuple(len(by_class[cls]) for cls in LESION_ORDER),
    )


def extended_features(
    region_sets: Iterable[RegionSet], thresholds: SizeThresholds = DEFAULT_THRESHOLDS
) -> FeatureVector:
    """Size-bucketed counts per class; discarded regions contribute nothing."""
    by_class = _by_class(region_sets)
    values: list[int] = []
    for cls in LESION_ORDER:
        # searchsorted puts s <= t0 in slot 0 and s > t3 in slot 4; slots 1-3
        # are small, medium and large.
        slots = np.searchsorted(thresholds.as_tuple(), by_class[cls].size_array)
        values.extend(np.bincount(slots, minlength=5)[1:4].tolist())
    return FeatureVector(mode=FeatureMode.EXTENDED, values=tuple(values))


def features_of(
    region_sets: Iterable[RegionSet], mode: FeatureMode, thresholds: SizeThresholds = DEFAULT_THRESHOLDS
) -> FeatureVector:
    """One image's feature vector in either mode."""
    if mode is FeatureMode.SIMPLE:
        return simple_features(region_sets)
    return extended_features(region_sets, thresholds)


# ---------------------------------------------------------------------------
# Features CSV: image_id, f1..fK, dr_grade, dme_grade (grades may be empty)


class FeaturesCsvError(ValueError):
    """Raised for malformed features CSV files."""


FeatureRow = tuple[str, FeatureVector, Optional[GradePair]]  # image id, counts, label


def features_header(mode: FeatureMode) -> list[str]:
    return ["image_id"] + [f"f{i}" for i in range(1, mode.length + 1)] + ["dr_grade", "dme_grade"]


# The mode of a features-CSV header or row, by its cell count.  A dict, since
# every row is looked up and reading an enum member costs more.
_MODE_OF_WIDTH = {len(features_header(mode)): mode for mode in FeatureMode}


def write_features_csv(path: str | Path, mode: FeatureMode, rows: Sequence[FeatureRow]) -> None:
    for image_id, vector, label in rows:
        if vector.mode is not mode:
            raise FeaturesCsvError(
                f"row {image_id!r} has {vector.mode.value} features in a {mode.value} file"
            )
        if label is not None and not isinstance(label, GradePair):
            raise FeaturesCsvError(f"row {image_id!r} has label {label!r}, neither None nor a GradePair")
    write_csv(path, features_header(mode), (
        [i, *vector.values, *((label.dr, label.dme) if label else ("", ""))] for i, vector, label in rows
    ))


def read_features_csv(path: str | Path) -> tuple[FeatureMode, list[FeatureRow]]:
    """Read a features CSV, inferring the mode from the column count."""
    headers = [features_header(mode) for mode in FeatureMode]
    header, rows = read_table(Path(path), FeaturesCsvError, "features", headers, parse_feature_row)
    return _MODE_OF_WIDTH[len(header)], rows


def parse_feature_row(cells: list[str]) -> FeatureRow:
    """A features-CSV or ``ground_truth.csv`` row of 7 or 15 cells: the image id,
    the counts of the mode that width gives, then the label's cells.  A bad count
    or grade raises ValueError."""
    counts = tuple(parse_int(cell, "feature count") for cell in cells[1:-2])
    return cells[0], FeatureVector(_MODE_OF_WIDTH[len(cells)], counts), parse_grades(cells[-2], cells[-1])
