import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retsym import LesionClass, LesionMask, extract_regions
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


def _assert_matches_flood_fill(pixels):
    """Paint region + 1 on the pixels of each run and require the flood-fill
    components numbered 1, 2, ... in seed-pixel order: one comparison checks
    which pixels each region holds, that the regions partition the
    foreground, and their order.  Returns the extracted set."""
    pixels = np.asarray(pixels, dtype=bool)
    rs = extract_regions(_mask(pixels))
    got = np.zeros(pixels.shape, dtype=np.int64)
    for region, row, first, length in rs.runs.T.tolist():
        got[row, first : first + length] = region + 1
    components = sorted(flood_fill_components(pixels), key=min)
    want = np.zeros(pixels.shape, dtype=np.int64)
    for number, component in enumerate(components, 1):
        for r, c in component:
            want[r, c] = number
    assert np.array_equal(got, want)
    assert rs.sizes() == [len(c) for c in components]
    return rs


def test_empty_mask_has_no_regions():
    assert len(extract_regions(_mask(np.zeros((8, 8))))) == 0


def test_full_mask_is_one_region():
    rs = _assert_matches_flood_fill(np.ones((5, 7)))
    assert rs.sizes() == [35]


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
    rs = _assert_matches_flood_fill(mask.pixels)
    assert rs.sizes() == [4, 4]


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
    rs = _assert_matches_flood_fill(mask.pixels)
    assert rs.sizes() == [1] * 6


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
    rs = _assert_matches_flood_fill(mask.pixels)
    assert rs.sizes() == [7]


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
        # The oracle finds components in raster order, so in seed order.
        assert got.sizes() == [len(c) for c in want], f"pattern {code:04x}"


def test_random_masks_match_flood_fill_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        h, w = rng.integers(1, 48, size=2)
        density = rng.uniform(0.05, 0.6)
        pixels = rng.random((h, w)) < density
        _assert_matches_flood_fill(pixels)


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
    _assert_matches_flood_fill(pixels)


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


def test_transpose_permutes_sizes():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pixels = rng.random((20, 33)) < 0.35
        a = extract_regions(_mask(pixels))
        b = extract_regions(_mask(pixels.T))
        assert sorted(a.sizes()) == sorted(b.sizes())


def test_lesion_class_carried_through():
    mask = LesionMask(np.ones((2, 2), dtype=bool), LesionClass.EX)
    assert extract_regions(mask).lesion_class is LesionClass.EX
