"""Connected lesion-region extraction from binary masks.

Foreground pixels are grouped under 8-connectivity by run-based labeling
(He, Chao & Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP
2008), in numpy:

1. Every horizontal run of foreground is found where the flattened mask
   changes value (a boolean ``np.diff``), with a background column padded
   onto each row so no run crosses a row end.
2. The runs in the row above that touch a run form one contiguous range of
   the raster-ordered run list.  One ``np.searchsorted`` over all runs finds
   where it starts, and whether it is empty; a second, over the linked runs
   only, finds where it ends.
3. Only when some run touches the row above are runs merged, keeping the
   earliest run as the root: by hook-and-shortcut in numpy, or below
   ``_NUMPY_MERGE_MIN_LINKS`` linked runs by a dict union-find, which is
   faster there.

Regions are numbered by their first run in raster order, which is the order
of their seed pixels, so identical masks always produce identical region
lists.  A :class:`RegionSet` is the region sizes plus the runs, as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask_io import LesionClass, LesionMask


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


def _union_find(
    n_runs: int, linked: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """:func:`_merge_linked_runs` as a dict union-find with path halving.

    ``parent`` holds the runs that are no longer roots.  A root is always
    the smallest run index of its region, so ``parent[x] < x``.
    """
    parent: dict[int, int] = {}
    for k, a, b in zip(linked.tolist(), lo.tolist(), hi.tolist()):
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


def _hook_and_shortcut(
    n_runs: int, linked: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """:func:`_merge_linked_runs` as hook-and-shortcut connectivity in numpy
    (Shiloach & Vishkin, J. Algorithms 1982).

    Each linked run first points at the earliest run it touches.  Every
    further link, from a run touching two or more above, joins the two
    runs' roots: shortcutting (``parent = parent[parent]``) brings every run
    to its root, and hooking points the larger of two differing roots at
    the smaller, until every link joins one root.  As ``parent[x] <= x``
    throughout, a region's root is its smallest run.
    """
    index = np.arange(n_runs)
    parent = index.copy()
    parent[linked] = lo
    extra = hi - lo - 1  # links beyond the first of each run
    many = extra.nonzero()[0]
    if len(many):
        # Run ks[i] touches run js[i] above: lo + 1 .. hi - 1 for each run in many.
        counts = extra[many]
        ends = counts.cumsum()
        ks = np.repeat(linked[many], counts)
        js = np.arange(ends[-1]) + np.repeat(lo[many] + 1 - (ends - counts), counts)
    while True:
        up = parent[parent]
        while (up != parent).any():
            parent, up = up, up[up]
        if not len(many):
            break
        a, b = parent[ks], parent[js]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
    # A root's region number is the count of roots before it.
    return (parent == index).cumsum()[parent] - 1


# Below this many linked runs the dict union-find beats the numpy merge,
# whose fixed cost is about twenty numpy calls; measured crossover: see README.
_NUMPY_MERGE_MIN_LINKS = 48


def _merge_linked_runs(
    n_runs: int, linked: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Region number of every run, given that run ``linked[i]`` touches runs
    ``lo[i]`` to ``hi[i] - 1`` above it.

    Regions are numbered in the order of their first run.
    """
    merge = _union_find if len(linked) < _NUMPY_MERGE_MIN_LINKS else _hook_and_shortcut
    return merge(n_runs, linked, lo, hi)


def extract_regions(mask: LesionMask) -> RegionSet:
    """Partition a mask's foreground into 8-connected regions.

    Every foreground pixel lands in exactly one region; region sizes sum to
    the mask's foreground count.  An all-background mask yields an empty set.
    """
    height, width = mask.pixels.shape
    stride = width + 1
    # A background pixel before each row and a background row after the
    # mask, so every run starts and stops inside its own row.
    padded = np.zeros((height + 1, stride), dtype=bool)
    padded[:height, 1:] = mask.pixels
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    # Flat positions (row * stride + column) of each run's first pixel and
    # of the pixel just past its last.
    starts, stops = edges[0::2], edges[1::2]
    lengths = stops - starts

    # A run [p0, p1] in the row above touches [c0, c1] iff p0 <= c1 + 1 and
    # p1 >= c0 - 1.  With the run shifted up one row, the runs that do are
    # lo..hi-1 in raster order; the pad column keeps other rows out of it.
    # lo <= k for run k itself, and k is linked iff run lo starts in reach.
    above = edges - stride
    lo = stops.searchsorted(above[0::2])
    reach = above[1::2]
    linked = (starts[lo] <= reach).nonzero()[0]
    if len(linked):
        hi = starts.searchsorted(reach[linked], side="right")
        region = _merge_linked_runs(len(starts), linked, lo[linked], hi)
        sizes = np.bincount(region, weights=lengths).astype(np.int64)
    else:
        region, sizes = np.arange(len(starts)), lengths
    row, first = np.divmod(starts, stride)
    runs = np.array((region, row, first, lengths), dtype=np.int32)
    return RegionSet(mask.lesion_class, sizes, runs)
