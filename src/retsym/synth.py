"""Synthetic lesion-mask datasets with known regions and rule-based labels.

Each image gets four masks (one per lesion class) built from planted
rectangles and discs of exact pixel counts.  Planted regions are kept at
least two pixels apart, so 8-connected extraction recovers exactly the
planted count and size multiset; the generator is therefore its own ground
truth.  Labels come from a deterministic grading rule over the planted
small/medium/large bucket counts.

The DR side of the size-aware rule is a synthetic reading of the clinical
severity criteria: no lesions at all is grade 0, microaneurysms alone grade
1, more than 20 hemorrhages grade 3, and three or more large hemorrhages
stands in for proliferative disease (grade 4) since neovascularization is
not expressible with these four lesion classes.  Everything else is grade
2.  DME similarly uses medium/large hard exudates as a stand-in for macular
involvement.  Neither proxy is clinically meaningful; they exist to give
the synthetic pipeline a five-class and three-class oracle.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .mask_io import (
    DME_GRADE_RANGE,
    DR_GRADE_RANGE,
    GradePair,
    LesionClass,
    LesionMask,
    as_number,
    graded,
    integers,
    read_table,
    save_mask,
    write_csv,
    write_manifest,
)
from .symbolic import (
    DEFAULT_THRESHOLDS,
    LESION_ORDER,
    SIZE_WORDS,
    SizeThresholds,
    parse_feature_row,
)

GROUND_TRUTH_COLUMNS = (
    "image_id",
    *(f"{cls.name.lower()}_{word}" for cls in LESION_ORDER for word in SIZE_WORDS),
    "dr_grade",
    "dme_grade",
)


class PackingError(ValueError):
    """Raised when the requested regions cannot be placed on the canvas."""


class LabelRule(enum.Enum):
    SIZE_AWARE = "size-aware"
    COUNT_ONLY = "count-only"


# Each cut of a rule: (head, grade, class row, size buckets, above).  When the row's counts
# in those buckets sum to more than ``above``, the head's grade is at least ``grade``.
_RULE_CUTS = {
    LabelRule.SIZE_AWARE: (
        ("dr", 4, 1, (2,), 2),  # three or more large HEs: the proliferative proxy
        ("dr", 3, 1, (0, 1, 2), 20),  # more than 20 HEs
        ("dme", 2, 3, (1, 2), 0),  # any medium or large EX: the macular proxy
    ),
    LabelRule.COUNT_ONLY: (
        ("dr", 4, 1, (0, 1, 2), 40),
        ("dr", 3, 1, (0, 1, 2), 20),
        ("dme", 2, 3, (0, 1, 2), 10),
    ),
}


def label_rule(bucket_counts: np.ndarray, rule: LabelRule = LabelRule.SIZE_AWARE) -> GradePair:
    """Grade a (4, 3) array of per-class small/medium/large region counts.

    The base grades are DR 0 without lesions, 1 for MAs only, else 2, and
    DME 0 without EXs, else 1.  Each head's grade is the highest of its base
    and of every cut of ``_RULE_CUTS[rule]`` that fires.
    """
    counts = np.asarray(bucket_counts, dtype=int)
    if counts.shape != (4, 3) or (counts < 0).any():
        raise ValueError(f"bucket_counts must be a nonnegative (4, 3) array, got {counts!r}")
    rows = counts.tolist()
    ma, he, se, ex = map(sum, rows)
    grades = {"dr": 0 if ma + he + se + ex == 0 else 1 if he + se + ex == 0 else 2, "dme": min(ex, 1)}
    for head, grade, row, buckets, above in _RULE_CUTS[rule]:
        if grade > grades[head] and sum([rows[row][b] for b in buckets]) > above:
            grades[head] = grade
    return GradePair(grades["dr"], grades["dme"])


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset.

    Size ranges are inclusive and must sit inside the matching threshold
    bucket; noise regions are sub-threshold specks that the extended
    features discard but the simple counts see.
    """

    n_images: int
    width: int = 1024
    height: int = 1024
    seed: int = 0
    rule: LabelRule = LabelRule.SIZE_AWARE
    thresholds: SizeThresholds = DEFAULT_THRESHOLDS
    small_size: tuple[int, int] = (11, 80)
    medium_size: tuple[int, int] = (501, 900)
    large_size: tuple[int, int] = (1001, 2400)
    noise_size: tuple[int, int] = (1, 10)
    noise_count: tuple[int, int] = (0, 2)
    active_dr_grades: tuple[int, ...] = tuple(DR_GRADE_RANGE)
    active_dme_grades: tuple[int, ...] = tuple(DME_GRADE_RANGE)

    def __post_init__(self) -> None:
        for name, kind in (("rule", LabelRule), ("thresholds", SizeThresholds)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("n_images", "width", "height", "seed"):
            object.__setattr__(self, name, as_number(name, getattr(self, name), int))
        for name in ("small_size", "medium_size", "large_size", "noise_size", "noise_count",
                     "active_dr_grades", "active_dme_grades"):
            object.__setattr__(self, name, integers(getattr(self, name), name))
        for name in ("n_images", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.width < 8 or self.height < 8:
            raise ValueError(f"canvas {self.width}x{self.height} is too small")
        t = self.thresholds
        for name, (lo, hi), bucket_lo, bucket_hi in (
            ("small_size", self.small_size, t.tau0 + 1, t.tau1),
            ("medium_size", self.medium_size, t.tau1 + 1, t.tau2),
            ("large_size", self.large_size, t.tau2 + 1, t.tau3),
            ("noise_size", self.noise_size, 1, t.tau0),
        ):
            if not (bucket_lo <= lo <= hi <= bucket_hi):
                raise ValueError(
                    f"{name} range {lo}..{hi} must lie within {bucket_lo}..{bucket_hi}"
                )
        if not (0 <= self.noise_count[0] <= self.noise_count[1]):
            raise ValueError(f"bad noise_count range {self.noise_count}")
        if not self.active_dr_grades or any(g not in DR_GRADE_RANGE for g in self.active_dr_grades):
            raise ValueError(f"bad active_dr_grades {self.active_dr_grades}")
        if not self.active_dme_grades or any(d not in DME_GRADE_RANGE for d in self.active_dme_grades):
            raise ValueError(f"bad active_dme_grades {self.active_dme_grades}")

    def size_range(self, bucket: int) -> tuple[int, int]:
        return (self.small_size, self.medium_size, self.large_size, self.noise_size)[bucket]


@dataclass(frozen=True)
class PlacedShape:
    """One planted region: a filled rectangle or disc at a fixed position."""

    kind: str  # "rect" or "disc"
    row: int
    col: int
    height: int
    width: int
    size: int
    radius: int = 0


@dataclass(frozen=True)
class ImagePlan:
    image_id: str
    label: GradePair
    bucket_counts: np.ndarray = field(compare=False)  # (4, 3) planted in-bucket counts
    shapes: dict[LesionClass, tuple[PlacedShape, ...]] = field(compare=False)


# ---------------------------------------------------------------------------
# Shape sampling


def _disc_count(radius: int) -> int:
    count = 0
    rr = radius * radius
    for dy in range(-radius, radius + 1):
        count += 2 * math.isqrt(rr - dy * dy) + 1
    return count


_DISC_COUNTS = tuple((r, _disc_count(r)) for r in range(1, 81))  # (radius, pixel count)


@functools.cache
def _disc_template(radius: int) -> np.ndarray:
    """The disc's pixels in its bounding square; read-only, as every caller shares it."""
    axis = np.arange(-radius, radius + 1)
    template = (axis[:, np.newaxis] ** 2 + axis[np.newaxis, :] ** 2) <= radius * radius
    template.flags.writeable = False
    return template


@functools.cache
def _shape_choices(
    size_range: tuple[int, int], max_h: int, max_w: int
) -> tuple[tuple[tuple[int, int], ...], range]:
    """The (radius, pixel count) discs and the rectangle heights that a shape
    of ``size_range`` pixels is drawn from; :class:`PackingError` when
    neither a disc nor a rectangle of that many pixels fits the canvas."""
    lo, hi = size_range[0] - 1, size_range[1]  # sizes s satisfy lo < s <= hi
    discs = tuple((r, n) for r, n in _DISC_COUNTS if lo < n <= hi and 2 * r + 1 <= min(max_h, max_w))
    # From ceil((lo + 1) / max_w), below which no width is wide enough, to isqrt(hi).
    heights = range(max(1, -((lo + 1) // -max_w)), min(max_h, math.isqrt(hi)) + 1)
    if not discs and all(lo // hh >= min(hi // hh, max_w) for hh in heights):
        raise PackingError(
            f"no shape of {size_range[0]}..{size_range[1]} px fits a {max_h}x{max_w} canvas"
        )
    return discs, heights


def _draw_shape(
    rng: np.random.Generator, size_range: tuple[int, int], max_h: int, max_w: int
) -> PlacedShape:
    """Draw a rectangle or disc with pixel count inside ``size_range``, at
    (0, 0) until :func:`_pack_shelves` places it.  A rectangle height that
    leaves no width (in a narrow size range) starts the draw again.

    The draws from ``rng`` and their order fix the generated files' bytes.
    """
    lo, hi = size_range[0] - 1, size_range[1]
    discs, heights = _shape_choices(size_range, max_h, max_w)
    while True:
        if discs and rng.random() < 0.3:
            # Indexing by integers(0, n) draws what rng.choice(discs) would.
            radius, count = discs[int(rng.integers(0, len(discs)))]
            side = 2 * radius + 1
            return PlacedShape("disc", 0, 0, side, side, count, radius)
        hh = int(rng.integers(heights.start, heights.stop))
        ww_min, ww_max = lo // hh + 1, min(hi // hh, max_w)
        if ww_min <= ww_max:
            ww = int(rng.integers(ww_min, ww_max + 1))
            return PlacedShape("rect", 0, 0, hh, ww, hh * ww)


def _pack_shelves(
    drafts: Sequence[PlacedShape], width: int, height: int
) -> Optional[list[PlacedShape]]:
    """Place shapes with >= 2 px gaps via first-fit decreasing-height shelves."""
    ordered = sorted(drafts, key=lambda d: (-d.height, -d.width, d.kind))
    placed: list[PlacedShape] = []
    x = y = shelf_h = 0
    for d in ordered:
        if x > 0 and x + d.width > width:
            y += shelf_h + 2
            x = 0
            shelf_h = 0
        if d.width > width or y + d.height > height:
            return None
        placed.append(PlacedShape(d.kind, y, x, d.height, d.width, d.size, d.radius))
        x += d.width + 2
        shelf_h = max(shelf_h, d.height)
    return placed


_PACKING_RETRIES = 3


def _plan_class_shapes(
    rng: np.random.Generator,
    spec: SynthSpec,
    bucket_counts: Sequence[int],
    noise_count: int,
    diagnostic: str,
) -> tuple[PlacedShape, ...]:
    for _ in range(_PACKING_RETRIES):
        drafts: list[PlacedShape] = []
        for bucket, count in (*enumerate(bucket_counts), (3, noise_count)):
            for _ in range(count):
                drafts.append(
                    _draw_shape(rng, spec.size_range(bucket), spec.height, spec.width)
                )
        placed = _pack_shelves(drafts, spec.width, spec.height)
        if placed is not None:
            return tuple(placed)
    total = sum(bucket_counts) + noise_count
    raise PackingError(
        f"{diagnostic}: cannot pack {total} regions into a "
        f"{spec.width}x{spec.height} canvas after {_PACKING_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Bucket-count sampling per target grade


# Inclusive (lo, hi) counts planted in the small, medium and large buckets:
# per rule, the MA, HE and SE rows of each DR grade and the EX row of each DME
# grade.  A one-value range draws nothing from the generator.  Size-aware DR 2
# and 3 sit in tight clusters far on either side of the 20-HE cut, and only
# grade 4 plants large HEs.  Its small-HE range spans the other two, so totals
# overlap across grades 3 and 4 and cannot settle the grade -- that ambiguity
# (with DME 1 and 2, whose EX totals differ only in whether any EX clears the
# medium-size cut) is what the simple-vs-extended ablation measures.  The
# count-only rule reads totals alone: all is small, with wide margins.
_ZERO = ((0, 0),) * 3
_PLANTED = {
    LabelRule.SIZE_AWARE: {
        "dr": (
            (_ZERO, _ZERO, _ZERO), (((1, 20), (0, 2), (0, 1)), _ZERO, _ZERO),
            *((((0, 6), (0, 1), (0, 0)), he, ((0, 5), (0, 1), (0, 1))) for he in (
                ((1, 2), (0, 2), (0, 0)),  # HE total 1..4
                ((26, 30), (0, 2), (0, 0)),  # 26..32
                ((0, 27), (0, 2), (5, 6)),  # 5..35
            )),
        ),
        "dme": (_ZERO, ((2, 12), (0, 0), (0, 0)), ((0, 10), (0, 2), (0, 1))),  # DME 2 may top up
    },
    LabelRule.COUNT_ONLY: {
        "dr": (
            (_ZERO, _ZERO, _ZERO), (((1, 20), (0, 0), (0, 0)), _ZERO, _ZERO),
            *((((0, 10), (0, 0), (0, 0)), (he, (0, 0), (0, 0)), ((0, 5), (0, 0), (0, 0)))
              for he in ((1, 8), (25, 30), (55, 60))),
        ),
        "dme": (_ZERO, ((1, 5), (0, 0), (0, 0)), ((18, 26), (0, 0), (0, 0))),
    },
}


def _sample_bucket_counts(rng: np.random.Generator, rule: LabelRule, dr: int, dme: int) -> np.ndarray:
    """The (4, 3) counts of ``_PLANTED[rule]`` for a target grade pair.  The
    draws from ``rng`` and their order fix the generated files' bytes."""
    planted = _PLANTED[rule]
    counts = []
    for row, ranges in enumerate((*planted["dr"][dr], planted["dme"][dme])):
        keep = rule is LabelRule.COUNT_ONLY and row == 1 and dr >= 2
        if keep:  # every grade's HE total is drawn and this grade's kept
            ranges = [grade[1][0] for grade in planted["dr"][2:]]
        drawn = [lo if lo == hi else int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
        counts.append([drawn[dr - 2], 0, 0] if keep else drawn)
    if dme == 2 and label_rule(counts, rule).dme < 2:  # no medium or large EX was drawn
        counts[3][1] += 1
    return np.array(counts)


def _sample_targets(rng: np.random.Generator, spec: SynthSpec) -> tuple[int, int]:
    # Grades 2..4 carry the hard distinctions (size- and threshold-based),
    # so they are drawn twice as often as grades 0..1.
    weights = np.array([2.0 if g >= 2 else 1.0 for g in spec.active_dr_grades])
    dr = int(rng.choice(spec.active_dr_grades, p=weights / weights.sum()))
    if dr <= 1:
        return dr, 0
    dme = int(rng.choice(spec.active_dme_grades))
    return dr, dme


def plan_dataset(spec: SynthSpec) -> list[ImagePlan]:
    """Deterministically sample every image's counts, labels and placements."""
    rng = np.random.default_rng(spec.seed)
    id_width = max(4, len(str(max(spec.n_images - 1, 0))))
    plans: list[ImagePlan] = []
    for i in range(spec.n_images):
        image_id = f"img_{i:0{id_width}d}"
        dr, dme = _sample_targets(rng, spec)
        counts = _sample_bucket_counts(rng, spec.rule, dr, dme)
        label = label_rule(counts, spec.rule)
        if label != GradePair(dr, dme):
            raise RuntimeError(f"sampler produced rule-inconsistent counts for {image_id}")
        shapes: dict[LesionClass, tuple[PlacedShape, ...]] = {}
        for cls, row in zip(LESION_ORDER, counts.tolist()):
            noise = int(rng.integers(spec.noise_count[0], spec.noise_count[1] + 1))
            shapes[cls] = _plan_class_shapes(rng, spec, row, noise, f"image {image_id}, class {cls.name}")
        plans.append(ImagePlan(image_id, label, counts, shapes))
    return plans


def rasterize(plan: ImagePlan, spec: SynthSpec, cls: LesionClass) -> LesionMask:
    """Stamp one class's planted shapes onto a blank canvas."""
    canvas = np.zeros((spec.height, spec.width), dtype=bool)
    for s in plan.shapes[cls]:
        if s.kind == "rect":
            canvas[s.row : s.row + s.height, s.col : s.col + s.width] = True
        else:
            window = canvas[s.row : s.row + s.height, s.col : s.col + s.width]
            window |= _disc_template(s.radius)
    return LesionMask(pixels=canvas, lesion_class=cls)


def generate(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the dataset tree and return the manifest path.

    Layout: ``masks/<image_id>_<CLASS>.pgm`` per mask, ``manifest.csv`` with
    rule-derived labels, and ``ground_truth.csv`` carrying the planted
    bucket counts.  Identical specs produce byte-identical trees.  On
    failure, files written so far are removed, then the directories this
    call made.
    """
    out_dir = Path(out_dir)
    plans = plan_dataset(spec)  # first, so that a spec that cannot be packed makes no directory
    masks = out_dir / "masks"
    made = [d for d in (masks, *masks.parents) if not d.exists()]  # deepest first
    written: list[Path] = []
    try:
        masks.mkdir(parents=True, exist_ok=True)
        manifest_rows = []
        truth_rows = []
        for plan in plans:
            row = {"image_id": plan.image_id}
            for cls in LESION_ORDER:
                rel = f"masks/{plan.image_id}_{cls.name}.pgm"
                mask_path = out_dir / rel
                written.append(mask_path)  # before writing: a failed write leaves a partial file
                save_mask(rasterize(plan, spec, cls), mask_path)
                row[cls.manifest_column] = rel
            row["dr_grade"] = str(plan.label.dr)
            row["dme_grade"] = str(plan.label.dme)
            manifest_rows.append(row)
            counts = plan.bucket_counts.ravel().tolist()
            truth_rows.append([plan.image_id, *counts, plan.label.dr, plan.label.dme])
        manifest_path = out_dir / "manifest.csv"
        written.append(manifest_path)
        write_manifest(manifest_path, manifest_rows)
        truth_path = out_dir / "ground_truth.csv"
        written.append(truth_path)
        write_csv(truth_path, GROUND_TRUTH_COLUMNS, truth_rows)
        return manifest_path
    except BaseException:
        for remove in [*(path.unlink for path in written), *(d.rmdir for d in made)]:
            try:
                remove()
            except OSError:
                pass
        raise


def read_ground_truth(path: str | Path) -> list[tuple[str, np.ndarray, GradePair]]:
    """Read a ground-truth sidecar back into (image_id, (4, 3) counts, label).
    It is a table with the rules of an extended features CSV, and every row
    must be graded."""
    _, rows = read_table(
        Path(path), ValueError, "ground-truth sidecar", [GROUND_TRUTH_COLUMNS], parse_feature_row
    )
    labels = graded(rows, f"{path}: ground truth")
    return [
        (image_id, np.array(fv.values, dtype=int).reshape(4, 3), label)
        for (image_id, fv, _), label in zip(rows, labels)
    ]
