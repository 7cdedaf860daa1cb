import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from retsym import (
    EvalReport,
    FeatureMode,
    GradePair,
    LabelRule,
    LesionClass,
    LesionMask,
    ModelFormatError,
    SynthSpec,
    TrainConfig,
    ablation,
    evaluate,
    extract_dataset,
    features_for_mode,
    format_report,
    generate,
    joint_accuracy,
    save_mask,
    write_features_csv,
    write_manifest,
    write_report_csv,
)
from retsym import evaluation
from retsym.cli import main
from retsym.evaluation import REPORT_COLUMNS


def _pairs(rng, n):
    return [GradePair(int(rng.integers(0, 5)), int(rng.integers(0, 3))) for _ in range(n)]


def test_joint_accuracy_counts_exact_pairs():
    ref = [GradePair(0, 0), GradePair(1, 1), GradePair(2, 2), GradePair(3, 0)]
    pred = [GradePair(0, 0), GradePair(1, 2), GradePair(2, 2), GradePair(4, 0)]
    # pair 1 misses on DME, pair 3 on DR
    assert joint_accuracy(ref, pred) == 0.5


def test_joint_accuracy_validation():
    for score in (joint_accuracy, evaluate):
        with pytest.raises(ValueError, match="^cannot score an empty set of predictions$"):
            score([], [])
        with pytest.raises(ValueError, match="^got 1 reference pairs but 2 predictions$"):
            score([GradePair(0, 0)], [GradePair(0, 0), GradePair(0, 0)])


def test_self_evaluation_is_perfect():
    rng = np.random.default_rng(0)
    pairs = _pairs(rng, 100)
    report = evaluate(pairs, pairs)
    assert report.joint_accuracy == 1.0
    assert report.dr_accuracy == 1.0 and report.dme_accuracy == 1.0
    assert report.dr_confusion.trace() == 100
    assert report.dme_confusion.trace() == 100


def test_joint_bounded_by_marginals():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        report = evaluate(_pairs(rng, n), _pairs(rng, n))
        assert report.joint_accuracy <= min(report.dr_accuracy, report.dme_accuracy)
        assert 0.0 <= report.joint_accuracy <= 1.0


def test_confusion_matrices_partition_samples():
    rng = np.random.default_rng(2)
    ref, pred = _pairs(rng, 64), _pairs(rng, 64)
    report = evaluate(ref, pred)
    assert report.dr_confusion.sum() == 64
    assert report.dme_confusion.sum() == 64
    assert report.dr_confusion[3, 1] == sum(
        1 for r, p in zip(ref, pred) if r.dr == 3 and p.dr == 1
    )
    assert report.dr_accuracy == report.dr_confusion.trace() / 64
    assert report.dme_accuracy == report.dme_confusion.trace() / 64


def test_report_equality_ignores_array_identity():
    rng = np.random.default_rng(3)
    ref, pred = _pairs(rng, 10), _pairs(rng, 10)
    assert evaluate(ref, pred) == evaluate(ref, pred)
    assert evaluate(ref, pred) != evaluate(pred, ref) or ref == pred


# Six pairs: 0 and 2 hit both grades, 1 misses DME, 3 and 5 miss DR, 4 hits both.
SIX_REFERENCE = [GradePair(0, 0), GradePair(1, 1), GradePair(2, 2), GradePair(3, 0), GradePair(4, 1), GradePair(2, 0)]
SIX_PREDICTED = [GradePair(0, 0), GradePair(1, 2), GradePair(2, 2), GradePair(4, 0), GradePair(4, 1), GradePair(1, 0)]


def test_every_report_field_takes_part_in_equality():
    report = evaluate(SIX_REFERENCE, SIX_PREDICTED)
    assert report == dataclasses.replace(report)
    changes = {
        "n_samples": 7,
        "joint_accuracy": 0.25,
        "dr_accuracy": 0.25,
        "dme_accuracy": 0.25,
        "dr_confusion": report.dr_confusion + np.eye(5, dtype=int),
        "dme_confusion": report.dme_confusion + np.eye(3, dtype=int),
    }
    assert set(changes) == {f.name for f in dataclasses.fields(EvalReport)}
    for name, value in changes.items():
        assert report != dataclasses.replace(report, **{name: value}), name


def test_format_report_text():
    report = evaluate(SIX_REFERENCE, SIX_PREDICTED)
    assert format_report(report, title="held-out") == (
        "held-out\n"
        "samples:        6\n"
        "joint accuracy: 0.5000\n"
        "DR accuracy:    0.6667\n"
        "DME accuracy:   0.8333\n"
        "DR confusion (row = reference grade, column = predicted):\n"
        "      1     0     0     0     0\n"
        "      0     1     0     0     0\n"
        "      0     1     1     0     0\n"
        "      0     0     0     0     1\n"
        "      0     0     0     0     1\n"
        "DME confusion (row = reference grade, column = predicted):\n"
        "      3     0     0\n"
        "      0     1     1\n"
        "      0     0     1"
    )
    assert format_report(report) == format_report(report, title="held-out").removeprefix("held-out\n")


def test_write_report_csv_bytes(tmp_path):
    path = tmp_path / "report.csv"
    reversed_four = evaluate(SIX_PREDICTED[:4], SIX_REFERENCE[:4])
    write_report_csv(path, [("simple", evaluate(SIX_REFERENCE, SIX_PREDICTED)), ("extended", reversed_four)])
    assert path.read_bytes() == (
        b"arm,n,joint_accuracy,dr_accuracy,dme_accuracy\n"
        b"simple,6,0.5,0.6666666666666666,0.8333333333333334\n"
        b"extended,4,0.5,0.75,0.75\n"
    )


def test_format_report_mentions_everything():
    rng = np.random.default_rng(4)
    report = evaluate(_pairs(rng, 20), _pairs(rng, 20))
    text = format_report(report, title="held-out")
    assert text.startswith("held-out\n")
    assert f"joint accuracy: {report.joint_accuracy:.4f}" in text
    assert "DR confusion" in text and "DME confusion" in text
    # 5x5 + 3x3 rows
    assert len(text.splitlines()) == 1 + 4 + 1 + 5 + 1 + 3


def test_write_report_csv(tmp_path):
    rng = np.random.default_rng(5)
    ref, pred = _pairs(rng, 30), _pairs(rng, 30)
    report = evaluate(ref, pred)
    path = tmp_path / "report.csv"
    write_report_csv(path, [("simple", report), ("extended", report)])
    lines = path.read_text().splitlines()
    assert lines[0] == "arm,n,joint_accuracy,dr_accuracy,dme_accuracy"
    assert lines[0] == ",".join(REPORT_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "simple" and cells[1] == "30"
    # float repr round-trips exactly
    assert float(cells[2]) == report.joint_accuracy
    # An arm name is quoted as ids are, so a comma or line break reads back intact.
    write_report_csv(path, [("a,b", report), ("x\ny", report)])
    with path.open(newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["arm", "a,b", "x\ny"]


def test_extract_dataset_and_features(small_synth_dir):
    _, manifest = small_synth_dir
    images = extract_dataset(manifest)
    assert len(images) == 30
    assert all(img.label is not None for img in images)
    assert all(len(img.region_sets) == 4 for img in images)
    simple = features_for_mode(images, FeatureMode.SIMPLE)
    extended = features_for_mode(images, FeatureMode.EXTENDED)
    assert all(fv.mode is FeatureMode.SIMPLE for fv in simple)
    assert all(fv.mode is FeatureMode.EXTENDED for fv in extended)
    # simple sees sub-threshold specks that extended discards
    for s, e in zip(simple, extended):
        assert sum(s.values) >= sum(e.values)


def test_ablation_shares_split_and_reports_gap(small_synth_dir):
    _, manifest = small_synth_dir
    config = TrainConfig(max_epochs=3)
    result = ablation(manifest, config, hidden_dims=(16, 8))
    assert result.n_train + result.n_test == 30
    assert result.n_test == 6
    assert result.simple.n_samples == result.extended.n_samples == 6
    assert result.gap == pytest.approx(
        result.extended.joint_accuracy - result.simple.joint_accuracy
    )
    # deterministic end to end
    again = ablation(manifest, config, hidden_dims=(16, 8))
    assert again.simple == result.simple and again.extended == result.extended


def test_ablation_validation(tmp_path, small_synth_dir):
    _, manifest = small_synth_dir
    with pytest.raises(ValueError, match="test_fraction"):
        ablation(manifest, TrainConfig(), test_fraction=1.0)

    spec = SynthSpec(n_images=3, width=256, height=256, seed=1)
    small_manifest = generate(spec, tmp_path / "tiny")
    with pytest.raises(ValueError, match="at least 5"):
        ablation(small_manifest, TrainConfig(), hidden_dims=(8,))


def test_count_only_control_closes_the_gap(tmp_path):
    """When labels depend on counts alone, the two feature modes should tie.

    The control dataset turns off the two asymmetries that favor extended
    features: sub-threshold noise specks (which pollute only the simple
    counts) and size-sensitive labels.  Grades are restricted to the
    presence-style decisions both modes learn reliably, so the comparison
    measures representation, not optimizer luck.
    """
    spec = SynthSpec(
        n_images=800,
        width=256,
        height=256,
        seed=0,
        rule=LabelRule.COUNT_ONLY,
        noise_count=(0, 0),
        active_dr_grades=(0, 1, 2),
        active_dme_grades=(0, 1),
    )
    manifest = generate(spec, tmp_path / "control")
    result = ablation(manifest, TrainConfig(max_epochs=100))
    assert abs(result.gap) <= 0.05, (
        f"control gap {result.gap:+.4f} (simple {result.simple.joint_accuracy:.4f}, "
        f"extended {result.extended.joint_accuracy:.4f})"
    )


def _strip_grades(out_dir, manifest, dest, n_rows):
    """Copy a manifest with the grades of its first ``n_rows`` rows emptied."""
    lines = manifest.read_text().splitlines()
    rewritten = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if i < n_rows:
            parts[-2] = parts[-1] = ""
        # absolute mask paths keep the copied manifest valid from dest
        parts[1:5] = [str(out_dir / p) for p in parts[1:5]]
        rewritten.append(",".join(parts))
    dest.write_text("\n".join([lines[0], *rewritten]) + "\n")
    return dest


def test_ablation_rejects_unlabeled(tmp_path, small_synth_dir):
    out_dir, manifest = small_synth_dir
    stripped = _strip_grades(out_dir, manifest, tmp_path / "unlabeled.csv", 1)
    with pytest.raises(ValueError, match="grades for every image"):
        ablation(stripped, TrainConfig(), hidden_dims=(8,))


def test_ablation_checks_grades_before_reading_masks(tmp_path, small_synth_dir, monkeypatch):
    out_dir, manifest = small_synth_dir
    stripped = _strip_grades(out_dir, manifest, tmp_path / "unlabeled.csv", 30)
    calls = []
    load_mask = evaluation.load_mask
    monkeypatch.setattr(evaluation, "load_mask", lambda *a: calls.append(a) or load_mask(*a))
    ids = [line.split(",")[0] for line in manifest.read_text().splitlines()[1:6]]
    with pytest.raises(ValueError) as info:
        ablation(stripped, TrainConfig(), hidden_dims=(8,))
    assert str(info.value) == f"ablation needs grades for every image; missing for {ids}"
    assert calls == []


@pytest.mark.parametrize("hidden_dims", [(0,), (), (8, 2.5)], ids=["zero", "empty", "not-integer"])
def test_ablation_checks_hidden_dims_before_reading_masks(small_synth_dir, monkeypatch, hidden_dims):
    # A zero width used to raise only after every mask had been read and labeled.
    _, manifest = small_synth_dir
    calls = []
    load_mask = evaluation.load_mask
    monkeypatch.setattr(evaluation, "load_mask", lambda *a: calls.append(a) or load_mask(*a))
    with pytest.raises(ModelFormatError, match="trunk_dims"):
        ablation(manifest, TrainConfig(max_epochs=1), hidden_dims=hidden_dims)
    assert calls == []


@pytest.mark.parametrize("mode", ["simple", "extended"])
def test_streamed_extract_writes_the_list_api_bytes(tmp_path, small_synth_dir, mode):
    out_dir, manifest = small_synth_dir
    partly_graded = _strip_grades(out_dir, manifest, tmp_path / "manifest.csv", 1)
    streamed = tmp_path / "streamed.csv"
    assert main(["extract", "--manifest", str(partly_graded), "--mode", mode, "--out", str(streamed)]) == 0
    images = extract_dataset(partly_graded)
    assert images[0].label is None and images[1].label is not None
    listed = tmp_path / "listed.csv"
    vectors = features_for_mode(images, FeatureMode(mode))
    rows = [(img.image_id, fv, img.label) for img, fv in zip(images, vectors)]
    write_features_csv(listed, FeatureMode(mode), rows)
    assert streamed.read_bytes() == listed.read_bytes()


@pytest.fixture(scope="module")
def salt_noise_dir(tmp_path_factory):
    """32 graded images whose 256x256 masks are 5% salt noise, thousands of
    regions each, with manifests over the first 4, 5 and all 32 of them."""
    out = tmp_path_factory.mktemp("salt")
    rng = np.random.default_rng(15)
    rows = []
    for i in range(32):
        row = {"image_id": f"img{i:02d}", "dr_grade": str(i % 5), "dme_grade": str(i % 3)}
        for cls in LesionClass:
            name = f"img{i:02d}_{cls.name.lower()}.pgm"
            save_mask(LesionMask(rng.random((256, 256)) < 0.05, cls), out / name)
            row[cls.manifest_column] = name
        rows.append(row)
    for n in (4, 5, 32):
        write_manifest(out / f"manifest{n}.csv", rows[:n])
    return out


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, n_small", [("extract", 4), ("ablation", 5)])
def test_extraction_memory_does_not_grow_with_images(salt_noise_dir, tmp_path, command, n_small):
    """Only one image's regions are alive at a time: 28 more images, each
    holding about 0.3 MB of runs and sizes, must not raise the peak."""

    def run(n):
        manifest = str(salt_noise_dir / f"manifest{n}.csv")
        if command == "extract":
            assert main(["extract", "--manifest", manifest, "--out", str(tmp_path / "f.csv")]) == 0
        else:
            ablation(manifest, TrainConfig(max_epochs=1), hidden_dims=(8,))

    run(n_small)  # warm-up: one-time allocations would inflate the small peak
    small, large = _traced_peak(lambda: run(n_small)), _traced_peak(lambda: run(32))
    assert large - small <= 2**20, f"traced peak {small} B for {n_small} images, {large} B for 32"
