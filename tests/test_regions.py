import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retsym import LesionClass, LesionMask, Region, extract_regions
from retsym.regions import (
    _NUMPY_MERGE_MIN_LINKS,
    _hook_and_shortcut,
    _merge_linked_runs,
    _union_find,
)

from conftest import mask_from_ascii
from oracles import flood_fill_components, flood_fill_sizes


def _mask(pixels):
    return LesionMask(np.asarray(pixels, dtype=bool), LesionClass.MA)


def test_empty_mask_has_no_regions():
    assert len(extract_regions(_mask(np.zeros((8, 8))))) == 0


def test_full_mask_is_one_region():
    rs = extract_regions(_mask(np.ones((5, 7))))
    assert rs.sizes() == [35]
    assert rs.regions[0].bbox == (0, 0, 4, 6)
    assert rs.regions[0].seed_pixel == (0, 0)


def test_two_corner_blocks():
    mask = mask_from_ascii(
        """
        ##....
        ##....
        ......
        ....##
        ....##
        """
    )
    rs = extract_regions(mask)
    assert rs.sizes() == [4, 4]
    assert [r.seed_pixel for r in rs.regions] == [(0, 0), (3, 4)]


def test_diagonal_touch_is_connected():
    mask = mask_from_ascii(
        """
        #..
        .#.
        ..#
        """
    )
    rs = extract_regions(mask)
    assert rs.sizes() == [3]


def test_anti_diagonal_and_gaps():
    mask = mask_from_ascii(
        """
        ..#
        .#.
        #.#
        """
    )
    # the (2,2) pixel touches (1,1) diagonally, so everything joins up
    assert extract_regions(mask).sizes() == [4]


def test_single_pixel_regions():
    mask = mask_from_ascii(
        """
        #.#.#
        .....
        #.#.#
        """
    )
    rs = extract_regions(mask)
    assert rs.sizes() == [1] * 6
    assert [r.bbox for r in rs.regions] == [
        (r, c, r, c) for r, c in [(0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (2, 4)]
    ]


def test_u_shape_merges_late():
    # The two legs are separate until the bottom row joins them; run-merging
    # has to fold the provisional labels together.
    mask = mask_from_ascii(
        """
        #.#
        #.#
        ###
        """
    )
    rs = extract_regions(mask)
    assert rs.sizes() == [7]
    assert rs.regions[0].bbox == (0, 0, 2, 2)


def test_spiral_single_region():
    mask = mask_from_ascii(
        """
        #######
        ......#
        #####.#
        #...#.#
        #.###.#
        #.....#
        #######
        """
    )
    rs = extract_regions(mask)
    oracle = flood_fill_sizes(mask.pixels)
    assert rs.sizes() == sorted(oracle, reverse=False) or rs.sizes() == oracle
    assert len(rs) == 1


def test_exhaustive_4x4_against_flood_fill():
    for code in range(1 << 16):
        bits = (code >> np.arange(16)) & 1
        pixels = bits.astype(bool).reshape(4, 4)
        got = extract_regions(_mask(pixels))
        want = flood_fill_components(pixels)
        assert len(got) == len(want), f"pattern {code:04x}"
        assert [r.size for r in got.regions] == [len(c) for c in want], f"pattern {code:04x}"


def test_random_masks_match_flood_fill_oracle():
    rng = np.random.default_rng(77)
    for trial in range(300):
        h, w = rng.integers(1, 48, size=2)
        density = rng.uniform(0.05, 0.6)
        pixels = rng.random((h, w)) < density
        rs = extract_regions(_mask(pixels))
        components = flood_fill_components(pixels)
        assert sorted(rs.sizes()) == sorted(len(c) for c in components), f"trial {trial}"
        # same decomposition, not just the same size multiset: compare the
        # sorted pixel sets via each region's seed pixel
        seeds = {min(c): frozenset(c) for c in components}
        for region in rs.regions:
            component = seeds[region.seed_pixel]
            assert region.size == len(component)
            rows = [p[0] for p in component]
            cols = [p[1] for p in component]
            assert region.bbox == (min(rows), min(cols), max(rows), max(cols))


def _oracle_regions(pixels):
    """(size, bbox, seed pixel) of every flood-fill component, in seed order."""
    out = []
    for component in flood_fill_components(pixels):
        rows = [p[0] for p in component]
        cols = [p[1] for p in component]
        out.append((len(component), (min(rows), min(cols), max(rows), max(cols)), min(component)))
    return sorted(out, key=lambda region: region[2])


def _serpentine(side):
    """A 1-pixel-wide path that snakes down a side x side square."""
    pixels = np.zeros((side, side), dtype=bool)
    pixels[0::2] = True
    pixels[1::4, -1] = True
    pixels[3::4, 0] = True
    return pixels


def _alternating(shape):
    pixels = np.zeros(shape, dtype=bool)
    pixels.ravel()[0::2] = True
    return pixels


@pytest.mark.parametrize(
    "pixels",
    [
        np.random.default_rng(3).random((512, 512)) < 0.3,
        _serpentine(257),
        np.ones((300, 300), dtype=bool),
        _alternating((1, 1000)),
        _alternating((1000, 1)),
    ],
    ids=["random-512-0.3", "serpentine-257", "full-300", "alternating-1x1000",
         "alternating-1000x1"],
)
def test_large_masks_match_flood_fill_oracle(pixels):
    rs = extract_regions(_mask(pixels))
    want = _oracle_regions(pixels)
    assert [(r.size, r.bbox, r.seed_pixel) for r in rs.regions] == want
    assert rs.sizes() == [region[0] for region in want]


def _links_reference(pixels):
    """What ``extract_regions`` hands the merge, from two full-size searches:
    the run count, the linked runs, and the first and one-past-last run each
    of them touches in the row above."""
    height, width = pixels.shape
    stride = width + 1
    padded = np.zeros(height * stride + 1, dtype=bool)
    padded[1:].reshape(height, stride)[:, :width] = pixels
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    starts, stops = edges[0::2], edges[1::2]
    lo = stops.searchsorted(starts - stride)
    hi = starts.searchsorted(stops - stride, side="right")
    linked = (hi > lo).nonzero()[0]
    return len(starts), linked, lo[linked], hi[linked]


@settings(max_examples=300, deadline=None)
@given(
    height=st.integers(1, 96),
    width=st.integers(1, 96),
    density=st.floats(0.05, 0.7),
    seed=st.integers(0, 2**32 - 1),
)
def test_numpy_merge_matches_union_find(height, width, density, seed):
    # From a few to a few thousand linked runs, on both sides of the cutoff.
    pixels = np.random.default_rng(seed).random((height, width)) < density
    n_runs, linked, lo, hi = _links_reference(pixels)
    runs = extract_regions(_mask(pixels)).runs
    if not len(linked):
        assert runs[0].tolist() == list(range(n_runs))
        return
    want = _union_find(n_runs, linked, lo, hi)
    assert np.array_equal(_hook_and_shortcut(n_runs, linked, lo, hi), want)
    assert np.array_equal(_merge_linked_runs(n_runs, linked, lo, hi), want)
    assert np.array_equal(runs[0], want)


def test_oracle_masks_reach_both_merge_paths():
    # A 4x4 mask has at most 6 linked runs, so the exhaustive 4x4 test checks
    # the dict union-find; 64x64 masks like A1's fall on both sides.
    assert _NUMPY_MERGE_MIN_LINKS > 6
    rng = np.random.default_rng(0)
    sparse, dense = (len(_links_reference(rng.random((64, 64)) < p)[1]) for p in (0.05, 0.5))
    assert sparse < _NUMPY_MERGE_MIN_LINKS <= dense


def test_serpentine_is_one_region():
    assert extract_regions(_mask(_serpentine(257))).sizes() == [33_281]


def test_partition_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pixels = rng.random((30, 30)) < 0.4
        rs = extract_regions(_mask(pixels))
        assert sum(rs.sizes()) == int(pixels.sum())


def _region_pixels(mask: LesionMask, region: Region) -> np.ndarray:
    """Boolean image of the single region containing ``region.seed_pixel``.

    Re-grows the component from its seed by iterative dilation within the
    region's bounding box; used to check connectivity soundness.
    """
    r0, c0, r1, c1 = region.bbox
    window = mask.pixels[r0 : r1 + 1, c0 : c1 + 1]
    grown = np.zeros_like(window)
    grown[region.seed_pixel[0] - r0, region.seed_pixel[1] - c0] = True
    while True:
        padded = np.pad(grown, 1)
        neighbors = (
            padded[:-2, :-2] | padded[:-2, 1:-1] | padded[:-2, 2:]
            | padded[1:-1, :-2] | padded[1:-1, 1:-1] | padded[1:-1, 2:]
            | padded[2:, :-2] | padded[2:, 1:-1] | padded[2:, 2:]
        )
        next_grown = neighbors & window
        if np.array_equal(next_grown, grown):
            break
        grown = next_grown
    out = np.zeros_like(mask.pixels)
    out[r0 : r1 + 1, c0 : c1 + 1] = grown
    return out


def test_connectivity_soundness_by_regrowth():
    rng = np.random.default_rng(9)
    mask = _mask(rng.random((40, 40)) < 0.35)
    rs = extract_regions(mask)
    covered = np.zeros_like(mask.pixels)
    for region in rs.regions:
        grown = _region_pixels(mask, region)
        assert int(grown.sum()) == region.size
        assert not (grown & covered).any(), "regions overlap"
        covered |= grown
    assert np.array_equal(covered, mask.pixels)


def test_regions_sorted_by_seed():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pixels = rng.random((25, 25)) < 0.3
        rs = extract_regions(_mask(pixels))
        seeds = [r.seed_pixel for r in rs.regions]
        assert seeds == sorted(seeds)


def test_transpose_permutes_sizes():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pixels = rng.random((20, 33)) < 0.35
        a = extract_regions(_mask(pixels))
        b = extract_regions(_mask(pixels.T))
        assert sorted(a.sizes()) == sorted(b.sizes())


def test_region_validation():
    with pytest.raises(ValueError):
        Region(size=0, bbox=(0, 0, 0, 0), seed_pixel=(0, 0))
    with pytest.raises(ValueError):
        Region(size=1, bbox=(0, 0, 0, 0), seed_pixel=(1, 1))
    with pytest.raises(ValueError):
        Region(size=1, bbox=(2, 0, 1, 0), seed_pixel=(2, 0))


def test_lesion_class_carried_through():
    mask = LesionMask(np.ones((2, 2), dtype=bool), LesionClass.EX)
    assert extract_regions(mask).lesion_class is LesionClass.EX
