"""
From pixels to regions: 8-connected component extraction
========================================================

A lesion is a connected clump of foreground pixels.  Extraction finds every
clump, its pixel count, bounding box and seed pixel (the top-left-most
member), using 8-connectivity: pixels touching diagonally belong together.
"""

import numpy as np

from retsym import LesionClass, LesionMask, extract_regions


def show(title, art):
    pixels = np.array([[ch == "#" for ch in row] for row in art])
    regions = extract_regions(LesionMask(pixels, LesionClass.HE))
    print(title)
    for row in art:
        print("   ", row)
    print(f"    -> {len(regions)} region(s); sizes {regions.sizes()}")
    for r in regions.regions:
        print(f"       size={r.size:<3d} bbox={r.bbox} seed={r.seed_pixel}")
    print()
    return regions


# Diagonal contact is enough to connect: this staircase is ONE region.
show("a diagonal staircase", [
    "#....",
    ".#...",
    "..#..",
    "...#.",
])

# Two blobs separated by a full background band stay separate.
show("two separated blobs", [
    "##....",
    "##....",
    "......",
    "....##",
    "....##",
])

# A U-shape exercises the interesting case for single-pass labelers: the two
# legs look like different regions until the bottom row merges them.
show("a U-shape (legs merge late)", [
    "#.#",
    "#.#",
    "###",
])

# Region counts are what the downstream features use, so the extractor must
# agree with the obvious definition on arbitrary inputs.  Quick spot check
# against plain flood fill semantics: total pixels are conserved.
rng = np.random.default_rng(0)
pixels = rng.random((48, 48)) < 0.35
regions = extract_regions(LesionMask(pixels, LesionClass.EX))
print(f"random 48x48 mask at density 0.35: {len(regions)} regions, "
      f"{sum(regions.sizes())} region pixels == {int(pixels.sum())} foreground pixels")
assert sum(regions.sizes()) == int(pixels.sum())

# Regions come back sorted by seed pixel, so output order is reproducible.
seeds = [r.seed_pixel for r in regions.regions]
assert seeds == sorted(seeds)
print("regions are ordered by their seed pixel (row-major)")
