import numpy as np
import pytest

from retsym import (
    DEFAULT_THRESHOLDS,
    FeatureMode,
    FeatureVector,
    FeaturesCsvError,
    GradePair,
    LesionClass,
    RegionSet,
    SizeThresholds,
    extended_features,
    read_features_csv,
    simple_features,
    write_features_csv,
)
from retsym.symbolic import features_header

from oracles import bucket_word


def _region_set(cls, sizes):
    # geometry is irrelevant for bucketing; region i is one run of sizes[i]
    # pixels starting at (i, 0), so the seed pixels come in region order
    n = len(sizes)
    runs = np.array([range(n), range(n), [0] * n, sizes], dtype=np.int32)
    return RegionSet(cls, np.array(sizes, dtype=np.int64), runs)


def _sets(ma=(), he=(), se=(), ex=()):
    sizes = {LesionClass.MA: ma, LesionClass.HE: he, LesionClass.SE: se, LesionClass.EX: ex}
    return [_region_set(cls, sizes[cls]) for cls in LesionClass]


def test_default_thresholds():
    assert DEFAULT_THRESHOLDS.as_tuple() == (10, 500, 1000, 10000)


def test_bucket_boundaries():
    expected = {
        1: None,
        10: None,
        11: 0,
        500: 0,
        501: 1,
        1000: 1,
        1001: 2,
        10000: 2,
        10001: None,
    }
    for size, bucket in expected.items():
        assert DEFAULT_THRESHOLDS.bucket_of(size) == bucket, size


def test_bucket_of_matches_if_chain_oracle():
    rng = np.random.default_rng(17)
    words = {0: "small", 1: "medium", 2: "large", None: None}
    for _ in range(500):
        size = int(rng.integers(1, 12000))
        got = DEFAULT_THRESHOLDS.bucket_of(size)
        assert words[got] == bucket_word(size, 10, 500, 1000, 10000)


@pytest.mark.parametrize(
    "cuts",
    [(10.5, 500, 1000, 10000), ("a", "b", "c", "d"), (True, 500, 1000, 10000), (10, 500, 1000, 1e4)],
    ids=["float", "strings", "bool", "float-last"],
)
def test_thresholds_must_be_integers(cuts):
    with pytest.raises(ValueError, match="thresholds must be integers"):
        SizeThresholds(*cuts)


def test_thresholds_store_numpy_integers_as_int():
    thresholds = SizeThresholds(*np.array([10, 500, 1000, 10000]))
    assert thresholds == DEFAULT_THRESHOLDS
    assert [type(t) for t in thresholds.as_tuple()] == [int] * 4


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        SizeThresholds(10, 10, 1000, 10000)
    with pytest.raises(ValueError):
        SizeThresholds(500, 10, 1000, 10000)


def test_extended_features_partitions_sizes():
    sizes = [5, 11, 500, 501, 1000, 1001, 10000, 10001]
    vec = extended_features(_sets(he=sizes))
    assert vec.values[3:6] == (2, 2, 2)
    assert sum(vec.values) == len(sizes) - 2
    # small, medium, large; 5 and 10001 are discarded
    expected = [
        (0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 0),
    ]
    for size, counts in zip(sizes, expected):
        assert extended_features(_sets(he=[size])).values[3:6] == counts, size


def test_simple_counts_everything():
    vec = simple_features(_sets(ma=(1, 2, 3), he=(10001,), se=(), ex=(5, 5)))
    assert vec.mode is FeatureMode.SIMPLE
    assert vec.values == (3, 1, 0, 2)


def test_extended_filters_noise():
    vec = extended_features(
        _sets(ma=(1, 20, 20), he=(600, 600, 2000), se=(), ex=(10001, 11, 700))
    )
    assert vec.mode is FeatureMode.EXTENDED
    #                 MA        HE        SE        EX
    assert vec.values == (2, 0, 0, 0, 2, 1, 0, 0, 0, 1, 1, 0)


def test_extended_with_custom_thresholds():
    thresholds = SizeThresholds(0, 2, 4, 6)
    vec = extended_features(_sets(ma=(1, 2, 3, 4, 5, 6, 7)), thresholds)
    assert vec.values[:3] == (2, 2, 2)


def test_mode_lengths():
    assert FeatureMode.SIMPLE.length == 4
    assert FeatureMode.EXTENDED.length == 12


def test_feature_vector_validation():
    with pytest.raises(ValueError):
        FeatureVector(FeatureMode.SIMPLE, (1, 2, 3))
    with pytest.raises(ValueError):
        FeatureVector(FeatureMode.EXTENDED, (0,) * 11)
    with pytest.raises(ValueError):
        FeatureVector(FeatureMode.SIMPLE, (1, -1, 0, 0))
    for bad in (2.7, True, "3", np.float64(2.0), None):  # 2.7, True and "3" used to become 2, 1 and 3
        with pytest.raises(ValueError, match="feature counts must be integers"):
            FeatureVector(FeatureMode.SIMPLE, (bad, 0, 0, 0))
    vector = FeatureVector(FeatureMode.SIMPLE, tuple(np.arange(4)))
    assert vector.values == (0, 1, 2, 3) and [type(v) for v in vector.values] == [int] * 4


def test_duplicate_and_missing_classes_rejected():
    sets = _sets()
    with pytest.raises(ValueError, match="duplicate"):
        simple_features(sets + [sets[0]])
    with pytest.raises(ValueError, match="missing"):
        simple_features(sets[:3])


# ---------------------------------------------------------------------------
# Features CSV


def _rows(mode, n, labeled=True):
    rng = np.random.default_rng(n)
    rows = []
    for i in range(n):
        values = tuple(int(v) for v in rng.integers(0, 50, size=mode.length))
        label = GradePair(int(rng.integers(0, 5)), int(rng.integers(0, 3))) if labeled else None
        rows.append((f"img{i:03d}", FeatureVector(mode, values), label))
    return rows


@pytest.mark.parametrize("mode", list(FeatureMode))
@pytest.mark.parametrize("labeled", [True, False])
def test_features_csv_round_trip(tmp_path, mode, labeled):
    rows = _rows(mode, 12, labeled)
    path = tmp_path / "features.csv"
    write_features_csv(path, mode, rows)
    read_mode, read_rows = read_features_csv(path)
    assert read_mode is mode
    assert read_rows == rows


def test_features_header_shape():
    assert features_header(FeatureMode.SIMPLE) == [
        "image_id", "f1", "f2", "f3", "f4", "dr_grade", "dme_grade",
    ]
    assert len(features_header(FeatureMode.EXTENDED)) == 15


def test_write_rejects_mode_mismatch(tmp_path):
    rows = _rows(FeatureMode.SIMPLE, 1)
    with pytest.raises(FeaturesCsvError):
        write_features_csv(tmp_path / "x.csv", FeatureMode.EXTENDED, rows)


@pytest.mark.parametrize("mode", list(FeatureMode))
def test_written_labels_read_back(tmp_path, mode):
    # The writer used to write a grade pair with one grade, a grade out of range or a
    # bool, which the reader then refused.  Every label it accepts now reads back.
    fv = FeatureVector(mode, (1,) * mode.length)
    labels = [None] + [GradePair(dr, dme) for dr in range(5) for dme in range(3)]
    rows = [(f"img{i}", fv, label) for i, label in enumerate(labels)]
    path = tmp_path / "features.csv"
    write_features_csv(path, mode, rows)
    assert read_features_csv(path) == (mode, rows)


@pytest.mark.parametrize("label", [(1, None), (7, 0), (True, 0), (2, 1), 1, "2,1", [2, 1]],
                         ids=["one-grade", "out-of-range", "bool", "tuple", "int", "text", "list"])
def test_write_refuses_a_label_that_is_not_a_grade_pair(tmp_path, label):
    fv = FeatureVector(FeatureMode.SIMPLE, (1, 2, 3, 4))
    path = tmp_path / "features.csv"
    with pytest.raises(FeaturesCsvError) as exc:
        write_features_csv(path, FeatureMode.SIMPLE, [("a", fv, None), ("b", fv, label)])
    assert str(exc.value).startswith(f"row 'b' has label {label!r}"), exc.value
    assert not path.exists()


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (["image_id,f1,dr_grade,dme_grade", "a,1,0,0"], "header"),
        ([], "empty"),
        (["image_id,f1,f2,f3,f4,dr_grade,dme_grade", "a,1,2,3,4,0,0", "a,1,2,3,4,0,0"], "duplicate"),
        (["image_id,f1,f2,f3,f4,dr_grade,dme_grade", "a,1,2,3,4,0,"], "together"),
        (["image_id,f1,f2,f3,f4,dr_grade,dme_grade", "a,1,2,3,4,7,0"], "out of range"),
        (["image_id,f1,f2,f3,f4,dr_grade,dme_grade", "a,1,2,x,4,0,0"], "line 2"),
        (["image_id,f1,f2,f3,f4,dr_grade,dme_grade", "a,1,2,3,4,0"], "cells"),
    ],
)
def test_features_csv_errors(tmp_path, lines, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    with pytest.raises(FeaturesCsvError) as exc:
        read_features_csv(path)
    assert fragment in str(exc.value), str(exc.value)


def test_missing_features_csv(tmp_path):
    with pytest.raises(FeaturesCsvError, match="exist"):
        read_features_csv(tmp_path / "nope.csv")
