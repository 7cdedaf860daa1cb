"""Connected lesion-region extraction from binary masks.

Foreground pixels are grouped under 8-connectivity by run-based labeling
(He, Chao & Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP
2008), in numpy:

1. Every horizontal run of foreground is found where the flattened mask
   changes value (a boolean ``np.diff``), with a background column padded
   onto each row so no run crosses a row end.
2. The runs in the row above that touch a run form one contiguous range of
   the raster-ordered run list; two ``np.searchsorted`` calls find it.
3. Only when some run touches the row above are runs merged, by a
   union-find over the linked runs that keeps the earliest run as the root.

Regions are numbered by their first run in raster order, which is the order
of their seed pixels, so identical masks always produce identical region
lists.  A :class:`RegionSet` keeps the runs and the region sizes as arrays;
the per-region :class:`Region` objects, with bounding box and seed pixel,
are built only when :attr:`RegionSet.regions` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mask_io import LesionClass, LesionMask


@dataclass(frozen=True)
class Region:
    """One 8-connected foreground component.

    ``size`` is its pixel count, ``bbox`` the inclusive (min_row, min_col,
    max_row, max_col) bounds, ``seed_pixel`` its lexicographically smallest
    (row, col) member.
    """

    size: int
    bbox: tuple[int, int, int, int]
    seed_pixel: tuple[int, int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"region size must be >= 1, got {self.size}")
        r0, c0, r1, c1 = self.bbox
        if r1 < r0 or c1 < c0:
            raise ValueError(f"degenerate bbox {self.bbox}")
        if (r1 - r0 + 1) * (c1 - c0 + 1) < self.size:
            raise ValueError(f"bbox {self.bbox} too small for {self.size} pixels")
        sr, sc = self.seed_pixel
        if not (r0 <= sr <= r1 and c0 <= sc <= c1):
            raise ValueError(f"seed pixel {self.seed_pixel} outside bbox {self.bbox}")


@dataclass(frozen=True, eq=False)
class RegionSet:
    """All regions of one mask, numbered in seed-pixel order.

    ``size_array`` holds each region's pixel count.  ``runs`` is an int32
    array of shape (4, n_runs): for each horizontal run of foreground, in
    raster order, its region number, row, first column and length.
    """

    lesion_class: LesionClass
    size_array: np.ndarray
    runs: np.ndarray

    def sizes(self) -> list[int]:
        return self.size_array.tolist()

    def __len__(self) -> int:
        return len(self.size_array)

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        """One validated :class:`Region` per region, in seed-pixel order."""
        # Raster order meets each region first at its seed run, so the dict
        # keeps region order; later runs can only widen or lower the box.
        boxes: dict[int, list[int]] = {}  # region -> [r0, c0, r1, c1, seed col]
        for region, row, first, length in zip(*self.runs.tolist()):
            last = first + length - 1
            box = boxes.get(region)
            if box is None:
                boxes[region] = [row, first, row, last, first]
                continue
            box[1] = min(box[1], first)
            box[2] = row
            box[3] = max(box[3], last)
        return tuple(
            Region(size=size, bbox=(r0, c0, r1, c1), seed_pixel=(r0, sc))
            for size, (r0, c0, r1, c1, sc) in zip(self.sizes(), boxes.values())
        )


def _merge_linked_runs(
    n_runs: int, linked: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Region number of every run, given that run ``k`` in ``linked`` touches
    runs ``lo[k]`` to ``hi[k] - 1`` above it.

    Union-find with path halving, over the linked runs only: ``parent`` holds
    the runs that are no longer roots.  A root is always the smallest run
    index of its region, so ``parent[x] < x``.
    """
    parent: dict[int, int] = {}
    for k, a, b in zip(linked.tolist(), lo[linked].tolist(), hi[linked].tolist()):
        root = k  # runs are visited in raster order, so k is still a root
        for j in range(a, b):
            while j in parent:
                up = parent[j]
                parent[j] = j = parent.get(up, up)
            if j < root:
                parent[root] = root = j
            elif j > root:
                parent[j] = root
    merged = sorted(parent)
    roots = []
    for x in merged:  # a smaller merged run already points at its root
        up = parent[x]
        parent[x] = up = parent.get(up, up)
        roots.append(up)
    # A root's region number is its index less the merged runs before it.
    region = np.arange(n_runs)
    merged = np.array(merged)
    region -= merged.searchsorted(region)
    region[merged] = region[roots]
    return region


def extract_regions(mask: LesionMask) -> RegionSet:
    """Partition a mask's foreground into 8-connected regions.

    Every foreground pixel lands in exactly one region; region sizes sum to
    the mask's foreground count.  An all-background mask yields an empty set.
    """
    height, width = mask.pixels.shape
    stride = width + 1
    # A background pixel before the mask and one after each row, so every run
    # starts and stops inside its own row.
    padded = np.zeros(height * stride + 1, dtype=bool)
    padded[1:].reshape(height, stride)[:, :width] = mask.pixels
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    # Flat positions (row * stride + column) of each run's first pixel and
    # of the pixel just past its last.
    starts, stops = edges[0::2], edges[1::2]
    lengths = stops - starts

    # A run [p0, p1] in the row above touches [c0, c1] iff p0 <= c1 + 1 and
    # p1 >= c0 - 1.  With the run shifted up one row, the runs that do are
    # lo..hi-1 in raster order; the pad column keeps other rows out of it.
    above = edges - stride
    lo = stops.searchsorted(above[0::2])
    hi = starts.searchsorted(above[1::2], side="right")
    linked = (hi > lo).nonzero()[0]
    if len(linked):
        region = _merge_linked_runs(len(starts), linked, lo, hi)
        sizes = np.bincount(region, weights=lengths).astype(np.int64)
    else:
        region, sizes = np.arange(len(starts)), lengths
    row, first = np.divmod(starts, stride)
    runs = np.array((region, row, first, lengths), dtype=np.int32)
    return RegionSet(mask.lesion_class, sizes, runs)
