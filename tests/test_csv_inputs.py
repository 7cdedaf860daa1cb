"""Which CSV inputs each reader accepts, what it returns, and what it raises.

One parametrised test per reader over small edge-case files, so that a
change to how CSV text is read shows up as a changed accept/reject decision,
a changed record or a changed error type.
"""

import pytest

from retsym import FeaturesCsvError, LesionClass, ManifestError, load_manifest, read_features_csv
from retsym.cli import _reference_pairs, read_predictions_csv
from retsym.synth import GROUND_TRUTH_COLUMNS, read_ground_truth

MANIFEST_HEADER = b"image_id,ma_mask,he_mask,se_mask,ex_mask,dr_grade,dme_grade"
SIMPLE_HEADER = b"image_id,f1,f2,f3,f4,dr_grade,dme_grade"
PREDICTIONS_HEADER = b"image_id,dr_pred,dme_pred"
MASKS = ("1.pgm", "2.pgm", "3.pgm", "4.pgm")


def _outcome(read, path, expected):
    """Compare ``read(path)`` with a list of records or an error type."""
    if isinstance(expected, type):
        with pytest.raises(ValueError) as exc:
            read(path)
        assert type(exc.value) is expected, exc.value
    else:
        assert read(path) == expected


MANIFEST_CASES = {
    "short-row-unlabeled": (MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm\n",
                            [("a", MASKS, None, None)]),
    "blank-line-skipped": (MANIFEST_HEADER + b"\n\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\n\n",
                           [("a", MASKS, 2, 1)]),
    "extra-and-reordered-columns": (
        b"dme_grade,extra,ex_mask,se_mask,he_mask,ma_mask,image_id,dr_grade\n"
        b"1,zz,4.pgm,3.pgm,2.pgm,1.pgm,a,3,more,cells\n",
        [("a", MASKS, 3, 1)],
    ),
    "duplicate-header-last-wins": (
        MANIFEST_HEADER + b",dr_grade\na,1.pgm,2.pgm,3.pgm,4.pgm,9,1,4\n",
        [("a", MASKS, 4, 1)],
    ),
    "duplicate-header-short-row": (
        MANIFEST_HEADER + b",dr_grade\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\n", ManifestError
    ),
    "absolute-mask-path": (MANIFEST_HEADER + b"\na,/abs/1.pgm,2.pgm,3.pgm,4.pgm,0,0\n",
                           [("a", ("/abs/1.pgm",) + MASKS[1:], 0, 0)]),
    "spaces-around-cells": (MANIFEST_HEADER + b"\n a , 1.pgm,2.pgm,3.pgm,4.pgm, 4 , 2 \n",
                            [("a", MASKS, 4, 2)]),
    "bom-header": (b"\xef\xbb\xbf" + MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,0,0\n",
                   ManifestError),
    "empty-file": (b"", ManifestError),
    "header-only": (MANIFEST_HEADER + b"\n", []),
    "crlf": (MANIFEST_HEADER + b"\r\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\r\nb,1.pgm,2.pgm,3.pgm,4.pgm,,\r\n",
             [("a", MASKS, 2, 1), ("b", MASKS, None, None)]),
    "quoted-newline-in-id": (MANIFEST_HEADER + b'\n"a\nb",1.pgm,2.pgm,3.pgm,4.pgm,0,0\n',
                             [("a\nb", MASKS, 0, 0)]),
    "one-grade-only": (MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,,1\n", ManifestError),
    "grade-out-of-range": (MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,5,0\n", ManifestError),
    "missing-column": (b"image_id,ma_mask,he_mask,se_mask,ex_mask,dr_grade\n", ManifestError),
}


@pytest.mark.parametrize("name", list(MANIFEST_CASES))
def test_manifest_edge_cases(tmp_path, name):
    data, expected = MANIFEST_CASES[name]
    path = tmp_path / "manifest.csv"
    path.write_bytes(data)

    if isinstance(expected, list):  # mask paths resolve against the manifest's directory
        expected = [(i, tuple(tmp_path / m for m in masks), dr, dme) for i, masks, dr, dme in expected]

    def read(path):
        return [(r.image_id, tuple(r.mask_paths[c] for c in LesionClass), r.dr_grade, r.dme_grade)
                for r in load_manifest(path)]

    _outcome(read, path, expected)


FEATURES_CASES = {
    "plain": (SIMPLE_HEADER + b"\na,1,2,3,4,2,1\nb,0,0,0,0,,\n",
              [("a", (1, 2, 3, 4), 2, 1), ("b", (0, 0, 0, 0), None, None)]),
    "blank-line": (SIMPLE_HEADER + b"\na,1,2,3,4,2,1\n\nb,0,0,0,0,0,0\n", FeaturesCsvError),
    "spaces-around-grades": (SIMPLE_HEADER + b"\na,1,2,3,4, 2 , 1 \n", [("a", (1, 2, 3, 4), 2, 1)]),
    "empty-id": (SIMPLE_HEADER + b"\n,1,2,3,4,0,0\n", [("", (1, 2, 3, 4), 0, 0)]),
    "quoted-newline-in-id": (SIMPLE_HEADER + b'\n"a\nb",1,2,3,4,0,0\n',
                             [("a\nb", (1, 2, 3, 4), 0, 0)]),
    "crlf": (SIMPLE_HEADER + b"\r\na,1,2,3,4,0,0\r\n", [("a", (1, 2, 3, 4), 0, 0)]),
    "header-only": (SIMPLE_HEADER + b"\n", []),
    "empty-file": (b"", FeaturesCsvError),
    "bom-header": (b"\xef\xbb\xbf" + SIMPLE_HEADER + b"\na,1,2,3,4,0,0\n", FeaturesCsvError),
    "one-grade-only": (SIMPLE_HEADER + b"\na,1,2,3,4,2,\n", FeaturesCsvError),
    "grade-not-integer": (SIMPLE_HEADER + b"\na,1,2,3,4,x,1\n", FeaturesCsvError),
    "grade-out-of-range": (SIMPLE_HEADER + b"\na,1,2,3,4,0,3\n", FeaturesCsvError),
    "extra-cell": (SIMPLE_HEADER + b"\na,1,2,3,4,0,0,0\n", FeaturesCsvError),
    "duplicate-id": (SIMPLE_HEADER + b"\na,1,2,3,4,0,0\na,1,2,3,4,0,0\n", FeaturesCsvError),
}


@pytest.mark.parametrize("name", list(FEATURES_CASES))
def test_features_edge_cases(tmp_path, name):
    data, expected = FEATURES_CASES[name]
    path = tmp_path / "features.csv"
    path.write_bytes(data)

    def read(path):
        mode, rows = read_features_csv(path)
        assert mode.value == "simple"
        return [(image_id, fv.values, dr, dme) for image_id, fv, dr, dme in rows]

    _outcome(read, path, expected)


PREDICTIONS_CASES = {
    "plain": (PREDICTIONS_HEADER + b"\na,2,1\nb,0,0\n", [("a", 2, 1), ("b", 0, 0)]),
    "blank-line": (PREDICTIONS_HEADER + b"\na,2,1\n\nb,0,0\n", ValueError),
    "spaces-around-grades": (PREDICTIONS_HEADER + b"\na, 2 , 1 \n", [("a", 2, 1)]),
    "empty-id": (PREDICTIONS_HEADER + b"\n,2,1\n", [("", 2, 1)]),
    "quoted-newline-in-id": (PREDICTIONS_HEADER + b'\n"a\nb",2,1\n', [("a\nb", 2, 1)]),
    "crlf": (PREDICTIONS_HEADER + b"\r\na,2,1\r\n", [("a", 2, 1)]),
    "header-only": (PREDICTIONS_HEADER + b"\n", []),
    "empty-file": (b"", ValueError),
    "grade-out-of-range": (PREDICTIONS_HEADER + b"\na,5,1\n", ValueError),
    "grade-missing": (PREDICTIONS_HEADER + b"\na,2,\n", ValueError),
    "extra-cell": (PREDICTIONS_HEADER + b"\na,2,1,0\n", ValueError),
}


@pytest.mark.parametrize("name", list(PREDICTIONS_CASES))
def test_predictions_edge_cases(tmp_path, name):
    data, expected = PREDICTIONS_CASES[name]
    path = tmp_path / "pred.csv"
    path.write_bytes(data)

    def read(path):
        return [(image_id, pair.dr, pair.dme) for image_id, pair in read_predictions_csv(path)]

    _outcome(read, path, expected)


REFERENCE_CASES = {
    "manifest": (MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\n", [("a", 2, 1)]),
    "manifest-crlf": (MANIFEST_HEADER + b"\r\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\r\n", [("a", 2, 1)]),
    "manifest-unlabeled": (MANIFEST_HEADER + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,,\n", ValueError),
    "manifest-extra-column": (MANIFEST_HEADER + b",extra\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1,x\n",
                              FeaturesCsvError),
    "features": (SIMPLE_HEADER + b"\na,1,2,3,4,2,1\n", [("a", 2, 1)]),
    "features-unlabeled": (SIMPLE_HEADER + b"\na,1,2,3,4,,\n", ValueError),
    "features-bad-grade": (SIMPLE_HEADER + b"\na,1,2,3,4,2,7\n", FeaturesCsvError),
    "empty-file": (b"", FeaturesCsvError),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_reference_edge_cases(tmp_path, name):
    data, expected = REFERENCE_CASES[name]
    path = tmp_path / "truth.csv"
    path.write_bytes(data)

    def read(path):
        return sorted((image_id, pair.dr, pair.dme) for image_id, pair in _reference_pairs(path).items())

    _outcome(read, path, expected)


GROUND_TRUTH_HEADER = ",".join(GROUND_TRUTH_COLUMNS).encode()
GROUND_TRUTH_ROW = b"a," + b",".join(str(i).encode() for i in range(12)) + b",2,1"

GROUND_TRUTH_CASES = {
    "plain": (GROUND_TRUTH_HEADER + b"\n" + GROUND_TRUTH_ROW + b"\n", [("a", list(range(12)), 2, 1)]),
    "crlf": (GROUND_TRUTH_HEADER + b"\r\n" + GROUND_TRUTH_ROW + b"\r\n",
             [("a", list(range(12)), 2, 1)]),
    "header-only": (GROUND_TRUTH_HEADER + b"\n", []),
    "empty-file": (b"", ValueError),
    "wrong-header": (b"image_id\n", ValueError),
    "blank-line": (GROUND_TRUTH_HEADER + b"\n\n" + GROUND_TRUTH_ROW + b"\n", ValueError),
    "short-row": (GROUND_TRUTH_HEADER + b"\na,1,2\n", ValueError),
    "not-an-integer": (GROUND_TRUTH_HEADER + b"\n" + GROUND_TRUTH_ROW.replace(b",5,", b",x,") + b"\n",
                       ValueError),
}


@pytest.mark.parametrize("name", list(GROUND_TRUTH_CASES))
def test_ground_truth_edge_cases(tmp_path, name):
    data, expected = GROUND_TRUTH_CASES[name]
    path = tmp_path / "ground_truth.csv"
    path.write_bytes(data)

    def read(path):
        return [(image_id, counts.ravel().tolist(), label.dr, label.dme)
                for image_id, counts, label in read_ground_truth(path)]

    _outcome(read, path, expected)
