"""
From pixels to regions: 8-connected component extraction
========================================================

A lesion is a connected clump of foreground pixels.  Extraction finds every
clump and its pixel count, using 8-connectivity: pixels touching diagonally
belong together.
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

# Regions are numbered in the order of their first pixel in row-major order,
# so output order is reproducible: the runs, which come in that order, meet
# region 0 first, then region 1, and so on.
first_met = list(dict.fromkeys(regions.runs[0].tolist()))
assert first_met == list(range(len(regions)))
print("regions are numbered in the order of their first pixel (row-major)")
