import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retsym
from retsym import synth
from retsym import (
    GradePair,
    LabelRule,
    LesionClass,
    PackingError,
    SynthSpec,
    extended_features,
    extract_regions,
    generate,
    label_rule,
    load_manifest,
    load_mask,
    plan_dataset,
    read_ground_truth,
    simple_features,
)
from retsym.symbolic import LESION_ORDER
from retsym.synth import (
    GROUND_TRUTH_COLUMNS,
    PlacedShape,
    _disc_count,
    _disc_template,
    _draw_shape,
    rasterize,
)


def _buckets(ma=(0, 0, 0), he=(0, 0, 0), se=(0, 0, 0), ex=(0, 0, 0)):
    return np.array([ma, he, se, ex])


# ---------------------------------------------------------------------------
# Labeling rules


@pytest.mark.parametrize(
    "counts,expected",
    [
        (_buckets(), GradePair(0, 0)),
        (_buckets(ma=(5, 0, 0)), GradePair(1, 0)),
        (_buckets(ma=(2, 0, 0), he=(1, 0, 0)), GradePair(2, 0)),
        (_buckets(he=(21, 0, 0)), GradePair(3, 0)),
        (_buckets(he=(20, 0, 0)), GradePair(2, 0)),  # boundary: needs strictly > 20
        (_buckets(he=(0, 0, 3)), GradePair(4, 0)),  # 3 large HEs outrank the >20 rule
        (_buckets(he=(0, 0, 2)), GradePair(2, 0)),
        (_buckets(he=(30, 0, 2)), GradePair(3, 0)),
        (_buckets(he=(30, 0, 3)), GradePair(4, 0)),
        (_buckets(se=(1, 0, 0)), GradePair(2, 0)),
        (_buckets(ex=(4, 0, 0)), GradePair(2, 1)),
        (_buckets(ex=(4, 1, 0)), GradePair(2, 2)),
        (_buckets(ex=(0, 0, 1)), GradePair(2, 2)),
        (_buckets(ma=(1, 0, 0), ex=(1, 0, 0)), GradePair(2, 1)),
    ],
)
def test_size_aware_rule(counts, expected):
    assert label_rule(counts, LabelRule.SIZE_AWARE) == expected


@pytest.mark.parametrize(
    "counts,expected",
    [
        (_buckets(), GradePair(0, 0)),
        (_buckets(ma=(9, 0, 0)), GradePair(1, 0)),
        (_buckets(he=(41, 0, 0)), GradePair(4, 0)),
        (_buckets(he=(40, 0, 0)), GradePair(3, 0)),
        (_buckets(he=(21, 0, 0)), GradePair(3, 0)),
        (_buckets(he=(20, 0, 0)), GradePair(2, 0)),
        (_buckets(he=(0, 0, 3)), GradePair(2, 0)),  # sizes carry no weight here
        (_buckets(ex=(11, 0, 0)), GradePair(2, 2)),
        (_buckets(ex=(10, 0, 0)), GradePair(2, 1)),
        (_buckets(ex=(0, 9, 1)), GradePair(2, 1)),
    ],
)
def test_count_only_rule(counts, expected):
    assert label_rule(counts, LabelRule.COUNT_ONLY) == expected


def test_label_rule_default_is_size_aware():
    assert label_rule(_buckets(he=(0, 0, 3))) == GradePair(4, 0)


def test_label_rule_validation():
    with pytest.raises(ValueError):
        label_rule(np.zeros((3, 4), dtype=int))
    with pytest.raises(ValueError):
        label_rule(_buckets(ma=(-1, 0, 0)))


def test_equal_totals_can_disagree():
    """The size-aware label is not a function of per-class totals."""
    a = _buckets(he=(18, 0, 3))  # 21 HEs, three large -> PDR
    b = _buckets(he=(21, 0, 0))  # 21 HEs, all small -> severe
    assert a.sum() == b.sum()
    assert label_rule(a) == GradePair(4, 0)
    assert label_rule(b) == GradePair(3, 0)

    c = _buckets(ma=(1, 0, 0), ex=(5, 0, 0))
    d = _buckets(ma=(1, 0, 0), ex=(4, 1, 0))
    assert c.sum() == d.sum()
    assert label_rule(c).dme == 1
    assert label_rule(d).dme == 2


def _if_else_label_rule(counts, rule):
    """The grading rule as an if/else chain, as it was written before the cut
    table; kept here as the reference the table must agree with."""
    ma, he, se, ex = (int(t) for t in counts.sum(axis=1))
    if ma == he == se == ex == 0:
        dr = 0
    elif he == se == ex == 0:
        dr = 1
    elif rule is LabelRule.SIZE_AWARE:
        dr = 4 if counts[1, 2] >= 3 else 3 if he > 20 else 2
    else:
        dr = 4 if he > 40 else 3 if he > 20 else 2
    if ex == 0:
        dme = 0
    elif rule is LabelRule.SIZE_AWARE:
        dme = 2 if counts[3, 1] + counts[3, 2] >= 1 else 1
    else:
        dme = 2 if ex > 10 else 1
    return GradePair(dr, dme)


# Every grade pair the target sampler can ask for.
_REACHABLE_TARGETS = [(0, 0), (1, 0), *((dr, dme) for dr in (2, 3, 4) for dme in (0, 1, 2))]


def test_label_rule_matches_the_if_else_reference_across_every_cut():
    # Cell values sit on both sides of every cut (2/3 large HEs, 10/11 EXs,
    # 20/21 and 40/41 HEs); a class row is all zero half the time, so that
    # the lesion-free and MA-only grades come up too.
    rng = np.random.default_rng(31)
    values = np.array([0, 1, 2, 3, 4, 10, 11, 20, 21, 40, 41])
    grid = values[rng.integers(0, len(values), size=(3000, 4, 3))] * rng.integers(0, 2, size=(3000, 4, 1))
    seen = set()
    for counts in grid:
        for rule in LabelRule:
            expected = _if_else_label_rule(counts, rule)
            assert label_rule(counts, rule) == expected, (rule, counts.tolist())
            seen.add((rule, expected.dr, expected.dme))
    assert seen == {(rule, *target) for rule in LabelRule for target in _REACHABLE_TARGETS}


class _CornerRng:
    """A stand-in generator whose every ``integers(lo, hi)`` draw is ``lo``, or ``hi - 1``."""

    def __init__(self, top):
        self.top = top

    def integers(self, lo, hi):
        return hi - 1 if self.top else lo


@pytest.mark.parametrize("top", [False, True], ids=["low", "high"])
@pytest.mark.parametrize("rule", list(LabelRule))
def test_planted_range_ends_grade_as_their_target(rule, top):
    # Each end of every planted range must sit on its target's side of every
    # cut of the rule, so that a range moved across a cut fails here.
    for dr, dme in _REACHABLE_TARGETS:
        counts = synth._sample_bucket_counts(_CornerRng(top), rule, dr, dme)
        assert label_rule(counts, rule) == GradePair(dr, dme), counts.tolist()


# ---------------------------------------------------------------------------
# Spec validation


def test_spec_validation():
    SynthSpec(n_images=1, width=64, height=64)
    with pytest.raises(ValueError):
        SynthSpec(n_images=-1)
    with pytest.raises(ValueError):
        SynthSpec(n_images=1, width=0)
    with pytest.raises(ValueError, match="small"):
        SynthSpec(n_images=1, small_size=(5, 80))  # 5 is below tau0+1
    with pytest.raises(ValueError, match="medium"):
        SynthSpec(n_images=1, medium_size=(400, 900))
    with pytest.raises(ValueError, match="large"):
        SynthSpec(n_images=1, large_size=(1001, 20000))
    with pytest.raises(ValueError, match="noise"):
        SynthSpec(n_images=1, noise_size=(1, 11))
    with pytest.raises(ValueError, match="noise_count"):
        SynthSpec(n_images=1, noise_count=(2, 1))
    with pytest.raises(ValueError, match="active_dr"):
        SynthSpec(n_images=1, active_dr_grades=(0, 7))
    with pytest.raises(ValueError, match="active_dme"):
        SynthSpec(n_images=1, active_dme_grades=())


@pytest.mark.parametrize("field,value", [
    ("n_images", 2.5), ("width", 64.5), ("height", "64"), ("seed", True), ("seed", -1),
    ("small_size", (11.5, 80)), ("noise_count", (0, None)), ("active_dr_grades", (0, 1.0)),
])
def test_spec_fields_follow_the_integer_rule(field, value):
    # 2.5 images and a 64.5 px canvas used to fail only in generate, with a bare
    # TypeError; seed=True was kept as True and seed=-1 failed inside numpy.
    with pytest.raises(ValueError, match=field):
        SynthSpec(**{"n_images": 2, "width": 64, "height": 64, field: value})


@pytest.mark.parametrize("field,value", [
    ("rule", "size-aware"), ("rule", None), ("thresholds", (10, 500, 1000, 10000)),
], ids=["rule-string", "rule-none", "thresholds-tuple"])
def test_spec_rejects_a_rule_or_thresholds_of_another_type(field, value):
    # A rule given as its string took a different branch in the sampler and in
    # label_rule, and failed plan_dataset's consistency check; a thresholds
    # tuple failed with an AttributeError.
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        SynthSpec(**{"n_images": 2, "width": 256, "height": 256, field: value})


def test_spec_stores_numpy_integers_as_ints():
    spec = SynthSpec(n_images=np.int64(2), width=np.int32(64), height=64, seed=np.uint8(3),
                     small_size=(np.int64(11), 80), active_dme_grades=[0, np.int64(1)])
    assert (spec.n_images, spec.width, spec.seed) == (2, 64, 3)
    assert type(spec.n_images) is type(spec.width) is type(spec.seed) is int
    assert spec.small_size == (11, 80) and type(spec.small_size[0]) is int
    assert spec.active_dme_grades == (0, 1)


def test_size_range_accessor():
    spec = SynthSpec(n_images=1)
    assert spec.size_range(0) == spec.small_size
    assert spec.size_range(1) == spec.medium_size
    assert spec.size_range(2) == spec.large_size


# ---------------------------------------------------------------------------
# Planning


def test_plan_dataset_deterministic():
    spec = SynthSpec(n_images=12, width=256, height=256, seed=3)
    a = plan_dataset(spec)
    b = plan_dataset(spec)
    assert a == b


def test_inconsistent_sampled_counts_raise(monkeypatch):
    # The check was an assert, which python -O strips.
    monkeypatch.setattr(synth, "_sample_bucket_counts", lambda *args: np.zeros((4, 3), dtype=int))
    with pytest.raises(RuntimeError, match="rule-inconsistent counts for img_"):
        plan_dataset(SynthSpec(n_images=4, width=256, height=256, seed=1, active_dr_grades=(2,)))


def test_plans_respect_rule_and_buckets():
    spec = SynthSpec(n_images=40, width=256, height=256, seed=7)
    plans = plan_dataset(spec)
    assert [p.image_id for p in plans] == [f"img_{i:04d}" for i in range(40)]
    for plan in plans:
        assert label_rule(plan.bucket_counts, spec.rule) == plan.label
        for row, cls in enumerate(LESION_ORDER):
            sizes = sorted(s.size for s in plan.shapes[cls])
            by_bucket = [0, 0, 0]
            for size in sizes:
                bucket = spec.thresholds.bucket_of(size)
                if bucket is None:
                    assert spec.noise_size[0] <= size <= spec.noise_size[1]
                else:
                    low, high = spec.size_range(bucket)
                    assert low <= size <= high
                    by_bucket[bucket] += 1
            assert by_bucket == plan.bucket_counts[row].tolist()


def test_shapes_stay_on_canvas_without_touching():
    spec = SynthSpec(n_images=10, width=200, height=200, seed=13)
    for plan in plan_dataset(spec):
        for cls in LESION_ORDER:
            for s in plan.shapes[cls]:
                assert 0 <= s.row and s.row + s.height <= spec.height
                assert 0 <= s.col and s.col + s.width <= spec.width
            boxes = [(s.row, s.col, s.row + s.height, s.col + s.width) for s in plan.shapes[cls]]
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    # a one-pixel separating band keeps 8-connectivity from
                    # fusing planted regions
                    apart = (
                        a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]
                    )
                    assert apart, f"{a} and {b} touch"


def test_rasterized_sizes_match_plan():
    spec = SynthSpec(n_images=6, width=256, height=256, seed=21)
    for plan in plan_dataset(spec):
        for cls in LESION_ORDER:
            mask = rasterize(plan, spec, cls)
            extracted = sorted(extract_regions(mask).sizes())
            assert extracted == sorted(s.size for s in plan.shapes[cls])


def _sample_shape_reference(rng, size_range, max_h, max_w):
    """One pass of ``_draw_shape``'s loop, as a scan of the whole disc table and
    ``rng.choice``; numpy raises ValueError when the drawn height leaves no width."""
    lo, hi = size_range[0] - 1, size_range[1]
    disc_radii = [
        r for r in range(1, 81)
        if lo < _disc_count(r) <= hi and 2 * r + 1 <= min(max_h, max_w)
    ]
    if disc_radii and rng.random() < 0.3:
        radius = int(rng.choice(disc_radii))
        side = 2 * radius + 1
        return PlacedShape("disc", 0, 0, side, side, _disc_count(radius), radius)
    hh_min = max(1, -((lo + 1) // -max_w))
    hh_max = min(max_h, math.isqrt(hi))
    if hh_min > hh_max:
        raise PackingError("no rectangle fits")
    hh = int(rng.integers(hh_min, hh_max + 1))
    ww = int(rng.integers(lo // hh + 1, min(hi // hh, max_w) + 1))
    return PlacedShape("rect", 0, 0, hh, ww, hh * ww)


def _draw_shape_reference(rng, size_range, max_h, max_w):
    """``_sample_shape_reference`` drawn again while the rectangle height it
    draws leaves no width (numpy's ValueError "low >= high"), once a scan of
    every disc and rectangle height has shown that some shape fits."""
    lo, hi = size_range[0] - 1, size_range[1]
    disc_fits = any(
        lo < _disc_count(r) <= hi and 2 * r + 1 <= min(max_h, max_w) for r in range(1, 81)
    )
    rect_fits = any(
        lo // hh < min(hi // hh, max_w) for hh in range(1, min(max_h, math.isqrt(hi)) + 1)
    )
    if not (disc_fits or rect_fits):
        raise PackingError("no shape fits")
    while True:
        try:
            return _sample_shape_reference(rng, size_range, max_h, max_w)
        except ValueError:
            pass


def _draw(sample, seed, size_range, max_h, max_w, n):
    """n shapes (or the error type raised) from one generator, then its next
    random(): what the sampler drew and how far it moved the stream."""
    rng = np.random.default_rng(seed)
    drafts = []
    for _ in range(n):
        try:
            drafts.append(sample(rng, size_range, max_h, max_w))
        except PackingError as exc:
            drafts.append(type(exc))
    return drafts, rng.random()


@settings(max_examples=300, deadline=None)
@given(
    bounds=st.tuples(st.integers(1, 10_000), st.integers(1, 10_000)).map(sorted),
    max_h=st.integers(8, 1024),
    max_w=st.integers(8, 1024),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_shape_matches_reference(bounds, max_h, max_w, seed):
    args = (seed, tuple(bounds), max_h, max_w, 8)
    assert _draw(_draw_shape, *args) == _draw(_draw_shape_reference, *args)


def test_narrow_size_range_draws_a_fitting_rectangle():
    # A 5 px noise speck is a 1x5 rectangle or a radius-1 disc: a drawn
    # rectangle height of 2 leaves no width.
    spec = SynthSpec(
        n_images=50, width=64, height=64, seed=0,
        noise_size=(5, 5), noise_count=(2, 2), active_dr_grades=(0, 1),
    )
    plans = plan_dataset(dataclasses.replace(spec, n_images=17))
    noise = [s for plan in plans for shapes in plan.shapes.values() for s in shapes if s.size == 5]
    assert len(noise) == 2 * 4 * 17
    assert {(s.kind, s.height, s.width) for s in noise} == {("rect", 1, 5), ("disc", 3, 3)}
    # img_0017 asks for more MA regions than the canvas holds: the module's
    # own error, not numpy's "low >= high".
    with pytest.raises(PackingError, match="img_0017"):
        plan_dataset(spec)


def test_disc_template_is_shared_and_read_only():
    template = _disc_template(4)
    assert template is _disc_template(4)
    assert int(template.sum()) == _disc_count(4)
    with pytest.raises(ValueError, match="read-only"):
        template[0, 0] = True


def test_packing_failure_names_image_and_class():
    spec = SynthSpec(
        n_images=5, width=40, height=40, seed=0,
        active_dr_grades=(3,), active_dme_grades=(0,),
    )
    with pytest.raises(PackingError, match=r"img_0000.*HE"):
        plan_dataset(spec)
    with pytest.raises(ValueError):  # an input error, like every module's own
        plan_dataset(spec)


def test_simple_vector_does_not_determine_label():
    # noise specks and size-aware grading make identical per-class region
    # counts compatible with different labels
    plans = plan_dataset(SynthSpec(n_images=400, width=256, height=256, seed=11))
    seen: dict[tuple, GradePair] = {}
    collisions = 0
    for plan in plans:
        key = tuple(len(plan.shapes[cls]) for cls in LESION_ORDER)
        if key in seen and seen[key] != plan.label:
            collisions += 1
        seen.setdefault(key, plan.label)
    assert collisions >= 1


def test_active_grades_restrict_sampling():
    spec = SynthSpec(
        n_images=30, width=256, height=256, seed=2,
        active_dr_grades=(0, 1), active_dme_grades=(0,),
    )
    for plan in plan_dataset(spec):
        assert plan.label.dr in (0, 1)
        assert plan.label.dme == 0


# ---------------------------------------------------------------------------
# Full generation


def test_generated_tree_layout(small_synth_dir):
    out_dir, manifest = small_synth_dir
    assert manifest == out_dir / "manifest.csv"
    assert (out_dir / "ground_truth.csv").is_file()
    masks = sorted((out_dir / "masks").glob("*.pgm"))
    assert len(masks) == 30 * 4
    assert masks[0].name == "img_0000_EX.pgm"


def test_planted_equals_extracted(small_synth_dir):
    out_dir, manifest = small_synth_dir
    records = load_manifest(manifest)
    truth = {t[0]: t for t in read_ground_truth(out_dir / "ground_truth.csv")}
    assert set(truth) == {r.image_id for r in records}
    for record in records:
        region_sets = [
            extract_regions(load_mask(record.mask_paths[cls], cls)) for cls in LESION_ORDER
        ]
        _, counts, label = truth[record.image_id]
        assert extended_features(region_sets).values == tuple(counts.ravel())
        assert (record.label.dr, record.label.dme) == (label.dr, label.dme)
        # simple counts additionally see the sub-threshold specks
        simple = simple_features(region_sets).values
        assert all(s >= c for s, c in zip(simple, counts.sum(axis=1)))


def test_generate_is_byte_identical(tmp_path):
    spec = SynthSpec(n_images=5, width=256, height=256, seed=9)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    generate(spec, dir_a)
    generate(spec, dir_b)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


def test_generate_cleans_up_after_failure(tmp_path):
    spec = SynthSpec(
        n_images=4, width=40, height=40, seed=0,
        active_dr_grades=(3,), active_dme_grades=(0,),
    )
    out = tmp_path / "broken"
    with pytest.raises(PackingError):
        generate(spec, out)
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert not out.exists()  # the plan fails before any directory is made


def _failing_save_mask(monkeypatch, fail_on_call):
    calls = []
    real = synth.save_mask

    def save_mask(mask, path, **kwargs):
        calls.append(path)
        if len(calls) == fail_on_call:
            raise OSError(f"write refused: {path}")
        real(mask, path, **kwargs)

    monkeypatch.setattr(synth, "save_mask", save_mask)


def test_failed_generate_removes_the_directories_it_made(tmp_path, monkeypatch):
    # masks/ and the --out directories above it used to stay behind, empty.
    _failing_save_mask(monkeypatch, 3)
    with pytest.raises(OSError, match="write refused"):
        generate(SynthSpec(n_images=2, width=64, height=64, seed=1), tmp_path / "out" / "x")
    assert list(tmp_path.iterdir()) == []


def test_failed_generate_keeps_what_was_there(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    _failing_save_mask(monkeypatch, 3)
    with pytest.raises(OSError, match="write refused"):
        generate(SynthSpec(n_images=2, width=64, height=64, seed=1), out)
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == [out / "notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


# The tree's bytes follow from the spec through the order of the random
# draws; a change that alters them must say why.  The sha256 is over the
# files' contents in sorted path order, as in
# `find . -type f | LC_ALL=C sort | xargs cat | sha256sum`.
PINNED_TREE = (
    SynthSpec(n_images=20, width=160, height=160, seed=5),
    82,
    "8ea416014222095ab2dccc0e073137eebbbe03089c353c40b15f15535b6bc79c",
)


def test_generated_tree_bytes_are_pinned(tmp_path):
    spec, n_files, sha256 = PINNED_TREE
    generate(spec, tmp_path)
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == n_files
    digest = hashlib.sha256(b"".join((tmp_path / f).read_bytes() for f in files))
    assert digest.hexdigest() == sha256


# Trees recorded before the shape sampler became one loop; the sha256 is over
# every file in sorted path order, each file's base name and then its bytes.
RECORDED_TREES = {
    "size-aware": (
        SynthSpec(n_images=100, width=192, height=192, seed=7),
        "127be5955fcf079d8489e6936638d25f49ede982698c9df91c98c50991159e9a",
    ),
    "count-only": (
        SynthSpec(n_images=40, width=128, height=128, seed=5, rule=LabelRule.COUNT_ONLY),
        "3dfd2ae04fce68afce2384fdd84f789bb670536b9c8280889bdfbe5a388a3563",
    ),
}


@pytest.mark.parametrize("name", list(RECORDED_TREES))
def test_generated_tree_matches_recorded_hash(tmp_path, name):
    spec, sha256 = RECORDED_TREES[name]
    generate(spec, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == sha256


_GENERATE_UNDER_FILE_SIZE_LIMIT = """
import resource, signal, sys
from retsym import SynthSpec, generate
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail the write with EFBIG instead
resource.setrlimit(resource.RLIMIT_FSIZE, (30000, 30000))
try:
    generate(SynthSpec(n_images=2, width=256, height=256, seed=1), sys.argv[1])
except OSError as exc:
    print(exc)
    sys.exit(3)
"""


def test_generate_removes_a_partly_written_mask(tmp_path):
    # Each 256x256 mask is 65,551 bytes, so the first write stops at 30,000.
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(retsym.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _GENERATE_UNDER_FILE_SIZE_LIMIT, str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "File too large" in proc.stdout
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_ground_truth_round_trip(tmp_path):
    spec = SynthSpec(n_images=4, width=128, height=128, seed=14)
    generate(spec, tmp_path)
    rows = read_ground_truth(tmp_path / "ground_truth.csv")
    plans = plan_dataset(spec)
    assert [r[0] for r in rows] == [p.image_id for p in plans]
    for (image_id, counts, label), plan in zip(rows, plans):
        assert np.array_equal(counts, plan.bucket_counts)
        assert label == plan.label


def test_ground_truth_header():
    assert GROUND_TRUTH_COLUMNS[:4] == ("image_id", "ma_small", "ma_medium", "ma_large")
    assert GROUND_TRUTH_COLUMNS[-2:] == ("dr_grade", "dme_grade")


def test_read_ground_truth_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="sidecar"):
        read_ground_truth(path)
    path.write_text(",".join(GROUND_TRUTH_COLUMNS) + "\nimg,1,2\n")
    with pytest.raises(ValueError, match="malformed"):
        read_ground_truth(path)


def test_count_only_datasets_have_count_labels(tmp_path):
    spec = SynthSpec(
        n_images=12, width=256, height=256, seed=4, rule=LabelRule.COUNT_ONLY,
    )
    for plan in plan_dataset(spec):
        assert label_rule(plan.bucket_counts, LabelRule.COUNT_ONLY) == plan.label
