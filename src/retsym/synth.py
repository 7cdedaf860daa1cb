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

from .grader import GradePair
from .mask_io import LesionClass, LesionMask, read_csv, save_mask, write_csv, write_manifest
from .symbolic import DEFAULT_THRESHOLDS, LESION_ORDER, SizeThresholds

GROUND_TRUTH_COLUMNS = (
    "image_id",
    *(f"{cls.name.lower()}_{word}" for cls in LESION_ORDER for word in ("small", "medium", "large")),
    "dr_grade",
    "dme_grade",
)


class PackingError(RuntimeError):
    """Raised when the requested regions cannot be placed on the canvas."""


class LabelRule(enum.Enum):
    SIZE_AWARE = "size-aware"
    COUNT_ONLY = "count-only"


def label_rule(bucket_counts: np.ndarray, rule: LabelRule = LabelRule.SIZE_AWARE) -> GradePair:
    """Grade a (4, 3) array of per-class small/medium/large region counts.

    Size-aware DR: 0 when everything is zero; 1 for MAs only; 4 when there
    are >= 3 large HEs (checked before grade 3, since severe disease is
    defined by the absence of proliferative signs); 3 when HEs total > 20;
    else 2.  Size-aware DME: 0 without EXs, 2 with any medium/large EX,
    else 1.  The count-only rule uses per-class totals alone: DR 4 above 40
    HEs, 3 above 20; DME 2 above 10 EXs.
    """
    counts = np.asarray(bucket_counts, dtype=int)
    if counts.shape != (4, 3) or (counts < 0).any():
        raise ValueError(f"bucket_counts must be a nonnegative (4, 3) array, got {counts!r}")
    ma, he, se, ex = (int(t) for t in counts.sum(axis=1))

    if ma == he == se == ex == 0:
        dr = 0
    elif he == se == ex == 0:
        dr = 1
    elif rule is LabelRule.SIZE_AWARE:
        if counts[1, 2] >= 3:
            dr = 4
        elif he > 20:
            dr = 3
        else:
            dr = 2
    else:
        if he > 40:
            dr = 4
        elif he > 20:
            dr = 3
        else:
            dr = 2

    if ex == 0:
        dme = 0
    elif rule is LabelRule.SIZE_AWARE:
        dme = 2 if counts[3, 1] + counts[3, 2] >= 1 else 1
    else:
        dme = 2 if ex > 10 else 1
    return GradePair(dr=dr, dme=dme)


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
    active_dr_grades: tuple[int, ...] = (0, 1, 2, 3, 4)
    active_dme_grades: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        if self.n_images < 0:
            raise ValueError("n_images must be >= 0")
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
        if not self.active_dr_grades or any(g not in range(5) for g in self.active_dr_grades):
            raise ValueError(f"bad active_dr_grades {self.active_dr_grades}")
        if not self.active_dme_grades or any(d not in range(3) for d in self.active_dme_grades):
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

    def planted_sizes(self, cls: LesionClass) -> list[int]:
        """All planted region sizes for one class, noise specks included."""
        return sorted(s.size for s in self.shapes[cls])


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
def _disc_candidates(lo: int, hi: int, max_side: int) -> tuple[tuple[int, int], ...]:
    """The (radius, pixel count) discs with lo < count <= hi that fit ``max_side``."""
    return tuple((r, n) for r, n in _DISC_COUNTS if lo < n <= hi and 2 * r + 1 <= max_side)


@functools.cache
def _disc_template(radius: int) -> np.ndarray:
    """The disc's pixels in its bounding square; read-only, as every caller shares it."""
    axis = np.arange(-radius, radius + 1)
    template = (axis[:, np.newaxis] ** 2 + axis[np.newaxis, :] ** 2) <= radius * radius
    template.flags.writeable = False
    return template


def _sample_shape(
    rng: np.random.Generator, size_range: tuple[int, int], max_h: int, max_w: int
) -> PlacedShape:
    """Draw a rectangle or disc with pixel count inside ``size_range``, at
    (0, 0) until :func:`_pack_shelves` places it.

    The draws from ``rng`` and their order fix the generated files' bytes.
    """
    lo, hi = size_range[0] - 1, size_range[1]  # sizes s satisfy lo < s <= hi
    discs = _disc_candidates(lo, hi, min(max_h, max_w))
    if discs and rng.random() < 0.3:
        # Indexing by integers(0, n) draws what rng.choice(discs) would.
        radius, count = discs[int(rng.integers(0, len(discs)))]
        side = 2 * radius + 1
        return PlacedShape("disc", 0, 0, side, side, count, radius)

    hh_min = max(1, -((lo + 1) // -max_w))  # ceil((lo + 1) / max_w)
    hh_max = min(max_h, math.isqrt(hi))
    if hh_min > hh_max:
        raise PackingError(
            f"no rectangle of {size_range[0]}..{size_range[1]} px fits a "
            f"{max_h}x{max_w} canvas"
        )
    hh = int(rng.integers(hh_min, hh_max + 1))
    ww_min = lo // hh + 1
    ww_max = min(hi // hh, max_w)
    if ww_min > ww_max:  # a narrow size range; _draw_shape draws again
        raise ValueError(f"no {hh}-row rectangle has {size_range[0]}..{hi} px")
    ww = int(rng.integers(ww_min, ww_max + 1))
    return PlacedShape("rect", 0, 0, hh, ww, hh * ww)


def _fits_some_shape(size_range: tuple[int, int], max_h: int, max_w: int) -> bool:
    """Whether a disc or rectangle of ``size_range`` pixels fits the canvas."""
    lo, hi = size_range[0] - 1, size_range[1]
    return bool(_disc_candidates(lo, hi, min(max_h, max_w))) or any(
        lo // hh < min(hi // hh, max_w) for hh in range(1, min(max_h, math.isqrt(hi)) + 1)
    )


def _draw_shape(
    rng: np.random.Generator, size_range: tuple[int, int], max_h: int, max_w: int
) -> PlacedShape:
    """:func:`_sample_shape`, drawn again while the rectangle height it draws
    leaves no width (its only ``ValueError``).  A draw that succeeds the first
    time is kept, so every range that never fails draws what it always did."""
    while True:
        try:
            return _sample_shape(rng, size_range, max_h, max_w)
        except ValueError:
            if not _fits_some_shape(size_range, max_h, max_w):
                raise PackingError(
                    f"no shape of {size_range[0]}..{size_range[1]} px fits a "
                    f"{max_h}x{max_w} canvas"
                ) from None


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


def _counts(rng: np.random.Generator, *ranges: tuple[int, int]) -> list[int]:
    return [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]


def _sample_bucket_counts(
    rng: np.random.Generator, rule: LabelRule, dr: int, dme: int
) -> np.ndarray:
    counts = np.zeros((4, 3), dtype=int)
    if rule is LabelRule.COUNT_ONLY:
        # Totals drive the label; buckets are irrelevant, so everything is
        # planted small, with wide margins around the rule cuts.
        if dr == 1:
            counts[0, 0] = int(rng.integers(1, 21))
        elif dr >= 2:
            counts[0, 0] = int(rng.integers(0, 11))
            counts[1, 0] = {
                2: int(rng.integers(1, 9)),
                3: int(rng.integers(25, 31)),
                4: int(rng.integers(55, 61)),
            }[dr]
            counts[2, 0] = int(rng.integers(0, 6))
            if dme == 1:
                counts[3, 0] = int(rng.integers(1, 6))
            elif dme == 2:
                counts[3, 0] = int(rng.integers(18, 27))
        return counts

    if dr == 1:
        counts[0] = [int(rng.integers(1, 21)), *_counts(rng, (0, 2), (0, 1))]
        return counts
    if dr >= 2:
        counts[0] = _counts(rng, (0, 6), (0, 1), (0, 0))
        # Grades 2 and 3 sit in tight clusters far on either side of the
        # 20-HE rule cut, and only grade 4 ever plants large HEs.  Grade 4's
        # small-HE range spans the other two, so per-class totals still
        # overlap across grades 3 and 4 and totals alone cannot settle the
        # grade -- that ambiguity (with the EX overlap below) is what the
        # simple-vs-extended ablation measures.
        if dr == 2:
            counts[1] = _counts(rng, (1, 2), (0, 2), (0, 0))  # total 1..4
        elif dr == 3:
            counts[1] = _counts(rng, (26, 30), (0, 2), (0, 0))  # total 26..32
        else:  # dr == 4: the large-HE proxy fires regardless of total
            counts[1] = _counts(rng, (0, 27), (0, 2), (5, 6))  # total 5..35
        counts[2] = _counts(rng, (0, 5), (0, 1), (0, 1))
        # The two DME-positive grades have near-identical EX totals; they
        # differ only in whether any EX clears the medium-size cut.
        if dme == 1:
            counts[3] = [int(rng.integers(2, 13)), 0, 0]
        elif dme == 2:
            counts[3] = _counts(rng, (0, 10), (0, 2), (0, 1))
            if counts[3, 1] + counts[3, 2] == 0:
                counts[3, 1] = 1
    return counts


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
        assert label == GradePair(dr, dme), "sampler produced rule-inconsistent counts"
        shapes: dict[LesionClass, tuple[PlacedShape, ...]] = {}
        for row, cls in enumerate(LESION_ORDER):
            noise = int(rng.integers(spec.noise_count[0], spec.noise_count[1] + 1))
            shapes[cls] = _plan_class_shapes(
                rng, spec, counts[row].tolist(), noise, f"image {image_id}, class {cls.name}"
            )
        plans.append(ImagePlan(image_id, label, counts.copy(), shapes))
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
    failure, files written so far are removed.
    """
    out_dir = Path(out_dir)
    mask_dir = out_dir / "masks"
    mask_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        plans = plan_dataset(spec)
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
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def read_ground_truth(path: str | Path) -> list[tuple[str, np.ndarray, GradePair]]:
    """Read a ground-truth sidecar back into (image_id, (4, 3) counts, label)."""
    records = read_csv(Path(path), ValueError, "ground-truth")
    if not records or records[0][1] != list(GROUND_TRUTH_COLUMNS):
        raise ValueError(f"{path}: not a ground-truth sidecar")
    out = []
    for line, cells in records[1:]:
        if len(cells) != len(GROUND_TRUTH_COLUMNS):
            raise ValueError(f"{path}: line {line}: malformed row {cells!r}")
        counts = np.array([int(c) for c in cells[1:13]], dtype=int).reshape(4, 3)
        out.append((cells[0], counts, GradePair(int(cells[13]), int(cells[14]))))
    return out
