import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import retsym
from retsym import (
    FeaturesCsvError,
    GradePair,
    ManifestError,
    ModelFormatError,
    TrainConfig,
    load_manifest,
    load_model,
    read_features_csv,
    write_features_csv,
)
from retsym import cli
from retsym.cli import main, read_predictions_csv, write_predictions_csv
from retsym.grader import DEFAULT_HIDDEN_DIMS
from retsym.mask_io import MANIFEST_COLUMNS
from retsym.symbolic import DEFAULT_THRESHOLDS, SizeThresholds, features_header
from retsym.synth import GROUND_TRUTH_COLUMNS, read_ground_truth


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capfd_disabled=None):
    """One synth -> extract -> train -> predict run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    features = root / "features.csv"
    model = root / "model.json"
    predictions = root / "pred.csv"
    assert main(["synth", "--out", str(data), "--n", "40", "--canvas", "192x192",
                 "--seed", "6"]) == 0
    assert main(["extract", "--manifest", str(data / "manifest.csv"), "--mode", "extended",
                 "--out", str(features)]) == 0
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--max-epochs", "4", "--hidden-dims", "16,8"]) == 0
    assert main(["predict", "--model", str(model), "--features", str(features),
                 "--out", str(predictions)]) == 0
    return root


def test_pipeline_artifacts(pipeline):
    data = pipeline / "data"
    assert (data / "manifest.csv").is_file()
    assert len(list((data / "masks").glob("*.pgm"))) == 160

    mode, rows = read_features_csv(pipeline / "features.csv")
    assert mode.value == "extended" and len(rows) == 40
    assert all(label is not None for _, _, label in rows)

    model = load_model(pipeline / "model.json")
    assert model.trunk_dims == (12, 16, 8)
    assert model.training_meta["config"]["max_epochs"] == 4

    predictions = read_predictions_csv(pipeline / "pred.csv")
    assert len(predictions) == 40
    assert (pipeline / "pred.csv").read_text().splitlines()[0] == "image_id,dr_pred,dme_pred"


def test_explain_stdout_and_file(pipeline, capsys, tmp_path):
    args = ["explain", "--model", str(pipeline / "model.json"),
            "--features", str(pipeline / "features.csv")]
    assert main(args) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 40
    assert all(line.startswith("The image ") for line in lines)

    out_file = tmp_path / "explanations.txt"
    assert main(args + ["--out", str(out_file)]) == 0
    assert out_file.read_text().strip().splitlines() == lines


def test_explain_refuses_an_id_with_a_line_break(pipeline, capsys, tmp_path):
    # The features CSV may quote a line break into an id; its sentence may not hold one.
    mode, rows = read_features_csv(pipeline / "features.csv")
    features = tmp_path / "features.csv"
    write_features_csv(features, mode, [("a\nb", *rows[0][1:]), *rows[1:]])
    out = tmp_path / "explanations.txt"
    assert main(["explain", "--model", str(pipeline / "model.json"), "--features", str(features),
                 "--out", str(out)]) == 2
    assert "image_id 'a\\nb' holds a line break" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_against_manifest(pipeline, capsys, tmp_path):
    report_csv = tmp_path / "report.csv"
    rc = main(["evaluate", "--truth", str(pipeline / "data" / "manifest.csv"),
               "--pred", str(pipeline / "pred.csv"), "--out", str(report_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "joint accuracy:" in out
    lines = report_csv.read_text().splitlines()
    assert lines[0] == "arm,n,joint_accuracy,dr_accuracy,dme_accuracy"
    assert lines[1].startswith("all,40,")


def test_evaluate_against_features_csv(pipeline, capsys):
    rc = main(["evaluate", "--truth", str(pipeline / "features.csv"),
               "--pred", str(pipeline / "pred.csv")])
    assert rc == 0
    assert "DR confusion" in capsys.readouterr().out


def _ungrade_first_row(source, dest):
    """Copy a CSV whose last two columns are the grades, with the first row's emptied."""
    lines = source.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-2] + ["", ""])
    dest.write_text("\n".join(lines) + "\n")
    return dest


def test_train_names_an_ungraded_row(pipeline, capsys, tmp_path):
    features = _ungrade_first_row(pipeline / "features.csv", tmp_path / "features.csv")
    assert main(["train", "--features", str(features), "--out", str(tmp_path / "model.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {features}: training needs grades for every image; missing for ['img_0000']\n"
    )
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("source", ["features.csv", "data/manifest.csv"], ids=["features", "manifest"])
def test_evaluate_names_an_ungraded_reference_row(pipeline, capsys, tmp_path, source):
    # evaluate reads only a manifest's grades, so the copy need not resolve its mask paths.
    truth = _ungrade_first_row(pipeline / source, tmp_path / "truth.csv")
    assert main(["evaluate", "--truth", str(truth), "--pred", str(pipeline / "pred.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {truth}: evaluate needs grades for every image; missing for ['img_0000']\n"
    )


def test_long_unknown_and_ungraded_ids_are_shown_cut(pipeline, capsys, tmp_path):
    # Six unknown ids of 300 characters were each echoed in full: 1,560 bytes of stderr.
    ids = [letter * 300 for letter in "abcdef"]
    shown = "[" + ", ".join(f"'{letter * 40}'... (300 characters)" for letter in "abcde") + "]"
    pred = tmp_path / "pred.csv"
    write_predictions_csv(pred, [(i, GradePair(0, 0)) for i in ids])
    assert main(["evaluate", "--truth", str(pipeline / "features.csv"), "--pred", str(pred)]) == 2
    assert capsys.readouterr().err == f"error: {pred}: no reference grades for {shown}\n"

    features = tmp_path / "features.csv"
    features.write_text("image_id,f1,f2,f3,f4,dr_grade,dme_grade\n" + "".join(f"{i},1,0,0,0,,\n" for i in ids))
    assert main(["train", "--features", str(features), "--out", str(tmp_path / "model.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {features}: training needs grades for every image; missing for {shown}\n"
    )


def test_a9_config_features_csv_bytes(tmp_path):
    # A9 compares two runs with each other; these pins also catch a writer change that
    # alters both.  The files hold integers only, so the bytes do not depend on the BLAS.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "100", "--canvas", "192x192", "--seed", "7"]) == 0
    ungraded = _ungrade_first_row(data / "manifest.csv", data / "ungraded.csv")
    for manifest, mode, digest in (
        (data / "manifest.csv", "extended", "4f3fcb7da7fdb1d95ab1f0df2176fee96c74b501af3dfadd90a9dfbfa82252c4"),
        (data / "manifest.csv", "simple", "5267fdffb3b7901fa332bf2bdbe4fe9ffaaa8b5cb7bfabf6a9bc73586e6ba84c"),
        (ungraded, "extended", "b272304e182295776b7221451278e912ee286784d6d0ffa373b8b4ad18eca65b"),
        (ungraded, "simple", "00c6efd98a1fc981fe4832c5e62ef58d04338aa0d0824f2fc81367f441d85f59"),
    ):
        out = tmp_path / f"{manifest.stem}-{mode}.csv"
        assert main(["extract", "--manifest", str(manifest), "--mode", mode, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (manifest.name, mode)


def test_train_config_file_and_flag_precedence(pipeline, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 2, "seed": 3, "hidden_dims": [8]}))
    model_path = tmp_path / "model.json"
    rc = main(["train", "--features", str(pipeline / "features.csv"),
               "--out", str(model_path), "--config", str(config), "--seed", "5"])
    assert rc == 0
    model = load_model(model_path)
    assert model.training_meta["config"]["max_epochs"] == 2  # from the file
    assert model.seed == 5  # flag beats file
    assert model.trunk_dims == (12, 8)


def test_ablation_command(pipeline, capsys, tmp_path):
    report_csv = tmp_path / "ablation.csv"
    rc = main(["ablation", "--manifest", str(pipeline / "data" / "manifest.csv"),
               "--max-epochs", "2", "--hidden-dims", "16,8", "--out", str(report_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[simple]" in out and "[extended]" in out
    assert "joint-accuracy gap" in out
    lines = report_csv.read_text().splitlines()
    assert [l.split(",")[0] for l in lines] == ["arm", "simple", "extended"]


def test_extract_simple_mode(pipeline, tmp_path):
    out = tmp_path / "simple.csv"
    rc = main(["extract", "--manifest", str(pipeline / "data" / "manifest.csv"),
               "--mode", "simple", "--out", str(out)])
    assert rc == 0
    mode, rows = read_features_csv(out)
    assert mode.value == "simple" and len(rows) == 40


def test_input_errors_exit_2(pipeline, tmp_path, capsys):
    # missing file
    assert main(["train", "--features", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "nope.csv" in capsys.readouterr().err

    # corrupt model
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{")
    assert main(["predict", "--model", str(bad_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2

    # feature-mode mismatch between model and features
    simple = tmp_path / "simple.csv"
    main(["extract", "--manifest", str(pipeline / "data" / "manifest.csv"),
          "--mode", "simple", "--out", str(simple)])
    capsys.readouterr()
    assert main(["predict", "--model", str(pipeline / "model.json"),
                 "--features", str(simple), "--out", str(tmp_path / "p.csv")]) == 2
    assert "mode" in capsys.readouterr().err

    # bad canvas spec
    assert main(["synth", "--out", str(tmp_path / "d"), "--canvas", "huge"]) == 2

    # impossible packing
    assert main(["synth", "--out", str(tmp_path / "d2"), "--n", "3",
                 "--canvas", "32x32"]) == 2


def test_nan_weight_model_is_rejected(pipeline, tmp_path, capsys):
    doc = json.loads((pipeline / "model.json").read_text())
    doc["dr_head"]["bias"][0] = float("nan")
    nan_model = tmp_path / "nan.json"
    nan_model.write_text(json.dumps(doc))  # json writes NaN, and reads it back
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(nan_model)
    assert main(["predict", "--model", str(nan_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


# The string and boolean rows: numpy's float conversion reads "12" as 12.0
# and true as 1.0, so these entries are checked for their JSON type.
@pytest.mark.parametrize(
    "section,place,value",
    [
        ("trunk layer 0", lambda doc: (doc["trunk"][0]["weights"][0], 0), 10**400),
        ("dr_head", lambda doc: (doc["dr_head"]["bias"], 0), 10**400),
        ("preprocess", lambda doc: (doc["preprocess"]["shift"], 0), 10**400),
        ("trunk layer 0", lambda doc: (doc["trunk"][0]["weights"][1], 2), "12"),
        ("dme_head", lambda doc: (doc["dme_head"]["bias"], 1), True),
        ("preprocess", lambda doc: (doc["preprocess"]["scale"], 0), "1"),
    ],
    ids=["weights", "bias", "shift", "weights-string", "bias-true", "scale-string"],
)
def test_model_integer_past_float_range_is_rejected(pipeline, tmp_path, capsys, section, place, value):
    doc = json.loads((pipeline / "model.json").read_text())
    values, index = place(doc)
    values[index] = value  # json writes 10**400 as its digits and reads back an int
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"{section}: bad or missing"):
        load_model(bad_model)
    assert main(["predict", "--model", str(bad_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert f"{section}: bad or missing" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "thresholds", [[10, 500, 1000], [10, 500, 1000, 10000, 20000]], ids=["three", "five"]
)
def test_model_thresholds_must_be_four(pipeline, tmp_path, capsys, thresholds):
    doc = json.loads((pipeline / "model.json").read_text())
    doc["thresholds"] = thresholds
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="thresholds: must be a list of 4 integers"):
        load_model(bad_model)
    assert main(["predict", "--model", str(bad_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "must be a list of 4 integers" in capsys.readouterr().err


def _set(values, index, value):
    values[index] = value


# The pipeline model reads 12 extended features through trunk_dims (12, 16, 8).
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["preprocess"]["shift"].pop(), "preprocess shift length (11,), expected (12,)"),
        (lambda doc: _set(doc["preprocess"]["scale"], 3, 0), "preprocess scale entries must be strictly positive"),
        (lambda doc: _set(doc["preprocess"]["scale"], 0, -1.5), "preprocess scale entries must be strictly positive"),
        (lambda doc: _set(doc, "feature_mode", "simple"), "trunk_dims[0] == 12 but simple features have length 4"),
        (lambda doc: doc["trunk"].pop(), "expected 2 trunk layers, got 1"),
        (lambda doc: doc["trunk"].append(doc["trunk"][-1]), "expected 2 trunk layers, got 3"),
    ],
    ids=["shift-short", "scale-zero", "scale-negative", "mode-mismatch", "layer-dropped", "layer-repeated"],
)
def test_inconsistent_model_exits_2_naming_the_model(pipeline, tmp_path, capsys, edit, message):
    doc = json.loads((pipeline / "model.json").read_text())
    edit(doc)
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps(doc))
    assert main(["predict", "--model", str(bad_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == f"error: {bad_model}: {message}\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_hidden_dims_flag_needs_integers(pipeline, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(_training_args(command, pipeline, out)[:-2] + ["--hidden-dims", "8,x"]) == 2
    assert capsys.readouterr().err == "error: --hidden-dims 'x' is not an integer\n"
    assert not out.exists()


def _with_cell(source, out, column, text):
    """A copy of the CSV ``source`` at ``out``, its first row's ``column`` cell set to ``text``."""
    rows = list(csv.reader(io.StringIO(source.read_text(), newline="")))
    rows[1][rows[0].index(column)] = text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    out.write_text(buffer.getvalue())
    return out


@pytest.mark.parametrize("source,column,text,message", [
    ("features.csv", "f1", "1_0", "feature count '1_0' is not an integer"),
    ("features.csv", "f1", "\u0663", "feature count '\u0663' is not an integer"),
    ("features.csv", "f1", "+3", "feature count '+3' is not an integer"),
    ("manifest.csv", "dr_grade", "0_1", "dr_grade '0_1' is not an integer"),
    ("pred.csv", "dr_pred", "+1", "dr_pred '+1' is not an integer"),
    ("manifest.csv", "dme_grade", "9" * 5001, "dme_grade has 5001 digits, too many to read"),
], ids=["count-1_0", "count-arabic-indic-3", "count-+3", "grade-0_1", "pred-+1", "grade-5001-digits"])
def test_integer_cells_take_ascii_digits_only(pipeline, tmp_path, capsys, source, column, text, message):
    # int() read 1_0 as 10, U+0663 as 3 and +3 as 3; 5,001 digits leaked
    # CPython's own digit-limit text.
    manifest, out = pipeline / "data" / "manifest.csv", tmp_path / "out"
    path = _with_cell(manifest if source == "manifest.csv" else pipeline / source, tmp_path / source, column, text)
    args = {
        "features.csv": ["predict", "--model", str(pipeline / "model.json"), "--features", str(path)],
        "manifest.csv": ["extract", "--manifest", str(path)],
        "pred.csv": ["evaluate", "--truth", str(manifest), "--pred", str(path)],
    }[source]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 2: {message}\n"
    assert len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--hidden-dims", "8,1_6", "--hidden-dims '1_6' is not an integer"),
    ("--canvas", "2_56x256", "--canvas must look like 1024x1024, got '2_56x256'"),
], ids=["hidden-dims", "canvas"])
def test_integer_flags_take_ascii_digits_only(pipeline, tmp_path, capsys, flag, value, message):
    # int() read 1_6 as 16 and 2_56 as 256.
    out = tmp_path / "out"
    args = (_training_args("train", pipeline, out)[:-2] if flag == "--hidden-dims"
            else ["synth", "--out", str(out), "--n", "1"])
    assert main(args + [flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--batch-size", "6_4"),
    ("synth", "--seed", "٣"),
    ("synth", "--n", "1_0"),
    ("ablation", "--max-epochs", "+3"),
    ("train", "--patience", "٣"),
])
def test_argparse_integer_flags_take_ascii_digits_only(pipeline, tmp_path, capsys, command, flag, value):
    # argparse's int read 6_4 as 64, ٣ (Arabic-Indic three) as 3 and +3 as 3.
    out = tmp_path / "out"
    args = ["synth", "--out", str(out), "--canvas", "64x64"] if command == "synth" else \
        _training_args(command, pipeline, out)
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"retsym {command}: error: argument {flag}: value {value!r} is not an integer"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--val-fraction", "\u0660.\u0665"),
    ("train", "--lr", "1_0e-3"),
    ("ablation", "--val-fraction", "+0.3"),
    ("ablation", "--test-fraction", "0.\u0662"),
])
def test_argparse_float_flags_take_ascii_numbers_only(pipeline, tmp_path, capsys, command, flag, value):
    # argparse's float read \u0660.\u0665 (Arabic-Indic 0.5) as 0.5, 1_0e-3 as 0.01 and +0.3 as 0.3.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(_training_args(command, pipeline, out) + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"retsym {command}: error: argument {flag}: value {value!r} is not a number"
    assert not out.exists()


def test_overlong_mask_path_exits_2_naming_the_mask_file(pipeline, tmp_path, capsys):
    # is_file() raised a bare "[Errno 36] File name too long", naming no file kind.
    manifest = _with_cell(pipeline / "data" / "manifest.csv", tmp_path / "manifest.csv", "ma_mask", "m" * 5000)
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / ('m' * 5000)}: mask file cannot be read: File name too long\n")
    assert not out.exists()


def test_evaluate_refuses_a_header_only_predictions_csv(pipeline, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,dr_pred,dme_pred\n")
    assert main(["evaluate", "--truth", str(pipeline / "data" / "manifest.csv"), "--pred", str(pred)]) == 2
    assert capsys.readouterr() == ("", f"error: {pred}: no predictions to score\n")


@pytest.mark.parametrize("args,message", [
    (["--seed", "-1"], "error: seed must be >= 0"),
    (["--canvas", "8x8"], "cannot pack"),
    (["--canvas", "16x16"], "cannot pack"),
    (["--canvas", "32x32"], "cannot pack"),
], ids=["negative-seed", "8x8", "16x16", "32x32"])
def test_failed_synth_leaves_no_directory(tmp_path, capsys, args, message):
    # Each used to leave an empty masks/ directory under --out; the negative
    # seed's message named no option.
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--n", "3", *args]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "extract", "train", "ablation"])
def test_empty_thresholds_flag_exits_2(pipeline, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--out", str(out), "--n", "2", "--canvas", "64x64"],
        "extract": ["extract", "--manifest", str(pipeline / "data" / "manifest.csv"), "--out", str(out)],
        "train": ["train", "--features", str(pipeline / "features.csv"), "--out", str(out)],
        "ablation": ["ablation", "--manifest", str(pipeline / "data" / "manifest.csv")],
    }[command]
    assert main(args + ["--thresholds", ""]) == 2
    assert "--thresholds needs 4 comma-separated integers, got ''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,index,value",
    [
        ("trunk_dims", 1, 25.9),
        ("trunk_dims", 1, True),
        ("thresholds", 0, 10.7),
        ("thresholds", 0, "10"),
        ("seed", None, float("nan")),
        ("seed", None, 8.5),
    ],
)
def test_non_integral_model_dimensions_are_rejected(pipeline, tmp_path, capsys, key, index, value):
    doc = json.loads((pipeline / "model.json").read_text())
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="must be integers"):
        load_model(bad_model)
    assert main(["predict", "--model", str(bad_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "must be integers" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"hidden_dims": [12.9, 6.5], "batch_size": 16.9, "max_epochs": 2.7},
        {"max_epochs": True},
        {"hidden_dims": 5},
        {"batch_size": None},
        {"learning_rate": "0.01"},
        {"thresholds": [10.7, 500, 1000, 10000]},
    ],
)
def test_train_config_rejects_mistyped_values(pipeline, tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", str(pipeline / "features.csv"),
                 "--out", str(model_path), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config" in err and "Traceback" not in err
    assert not model_path.exists()


@pytest.mark.parametrize("count", ["9" * 400, "1" + "0" * 308], ids=["400-digits", "1e308"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_huge_feature_counts_are_rejected(pipeline, tmp_path, capsys, command, count):
    # 400 digits overflowed float64 (exit 1); 1e308, 309 digits, was graded.
    lines = (pipeline / "features.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = count
    lines[1] = ",".join(cells)
    features = tmp_path / "huge.csv"
    features.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    args = (["train", "--features", str(features), "--out", str(out), "--max-epochs", "1"]
            if command == "train" else
            ["predict", "--model", str(pipeline / "model.json"), "--features", str(features),
             "--out", str(out)])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "2**53" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "evaluate", "train", "predict", "explain"])
def test_oversized_csv_field_is_rejected(pipeline, tmp_path, capsys, command):
    # The csv module refuses a field over 131,072 characters with csv.Error,
    # which is no ValueError: the CLI exited 1 with a traceback.  A byte that
    # is not UTF-8 escaped as a bare UnicodeDecodeError naming neither the
    # file nor the line.
    source = (pipeline / "data" / "manifest.csv" if command in ("extract", "evaluate")
              else pipeline / "features.csv")
    lines = source.read_bytes().splitlines()
    for row, message in ((b"x" * 200_000 + lines[1][lines[1].index(b","):],
                          "field larger than field limit"),
                         (b"\xff" + lines[1], "not UTF-8 text")):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join([lines[0], row, *lines[2:]]) + b"\n")
        out = tmp_path / "out"
        args = {
            "extract": ["extract", "--manifest", str(bad), "--out", str(out)],
            "evaluate": ["evaluate", "--truth", str(bad), "--pred", str(pipeline / "pred.csv"),
                         "--out", str(out)],
            "train": ["train", "--features", str(bad), "--out", str(out), "--max-epochs", "1"],
            "predict": ["predict", "--model", str(pipeline / "model.json"), "--features", str(bad),
                        "--out", str(out)],
            "explain": ["explain", "--model", str(pipeline / "model.json"), "--features", str(bad),
                        "--out", str(out)],
        }[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 2: {message}" in err, err
        assert "Traceback" not in err and "codec can't decode" not in err
        assert not out.exists()


def _header(columns):
    return ",".join(columns).encode()


@pytest.mark.parametrize("read,columns,error", [
    (load_manifest, MANIFEST_COLUMNS, ManifestError),
    (read_features_csv, features_header(retsym.FeatureMode.SIMPLE), FeaturesCsvError),
    (read_predictions_csv, cli.PREDICTIONS_COLUMNS, ValueError),
    (cli._reference_pairs, MANIFEST_COLUMNS, ValueError),
    (read_ground_truth, GROUND_TRUTH_COLUMNS, ValueError),
], ids=["manifest", "features", "predictions", "reference", "ground-truth"])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, read, columns, error):
    # Line 4: the quoted id spans lines 2 and 3, and CRLF, LF and CR all end a line.
    path = tmp_path / "bad.csv"
    path.write_bytes(_header(columns) + b'\r\n"a\nb",1\r\xff,2\n')
    with pytest.raises(ValueError) as exc:
        read(path)
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{path}: line 4: not UTF-8 text (invalid start byte"), exc.value


def test_reference_reads_a_quoted_manifest_header(tmp_path):
    # The header's cells, not its raw text, select the manifest reader, as
    # they do for `extract --manifest`.
    path = tmp_path / "truth.csv"
    path.write_bytes(b'"image_id",' + _header(MANIFEST_COLUMNS[1:]) + b"\na,1.pgm,2.pgm,3.pgm,4.pgm,2,1\n")
    assert {i: (p.dr, p.dme) for i, p in cli._reference_pairs(path).items()} == {"a": (2, 1)}


def test_deeply_nested_json_is_rejected(pipeline, tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(nested)
    assert main(["predict", "--model", str(nested), "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert main(["train", "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "m.json"), "--config", str(nested)]) == 2
    err = capsys.readouterr().err
    assert err.count("not valid JSON") == 2 and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("text,message", [
    (b'{"seed":\n "\xff"}', "line 2: not UTF-8 text"),
    (b'{"seed": 1' + b"0" * 5000 + b"}", "not valid JSON"),
], ids=["not-utf8", "5001-digits"])
def test_undecodable_json_names_the_file(pipeline, tmp_path, capsys, text, message):
    # Both escaped load_model as a bare UnicodeDecodeError or ValueError,
    # and the CLI's message named no file.
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)
    assert main(["predict", "--model", str(bad), "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert main(["train", "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "m.json"), "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"{bad}: {message}") == 2, err
    assert "Traceback" not in err and "codec can't decode" not in err
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("doc", ["[]", '"x"', "1", "null"], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("command", ["extract", "train", "ablation", "predict", "explain"])
def test_json_document_that_is_not_an_object_exits_2(pipeline, tmp_path, monkeypatch, capsys, command, doc):
    # A --config file and a model file must each hold a JSON object.
    def read_input(*args, **kwargs):
        pytest.fail("input read after the JSON document was rejected")

    for name in ("load_manifest", "read_features_csv", "ablation"):
        monkeypatch.setattr(cli, name, read_input)
    bad = tmp_path / "doc.json"
    bad.write_text(doc)
    manifest, features, out = pipeline / "data" / "manifest.csv", pipeline / "features.csv", tmp_path / "out"
    args = {
        "extract": ["extract", "--manifest", str(manifest), "--config", str(bad)],
        "train": ["train", "--features", str(features), "--config", str(bad)],
        "ablation": ["ablation", "--manifest", str(manifest), "--config", str(bad)],
        "predict": ["predict", "--model", str(bad), "--features", str(features)],
        "explain": ["explain", "--model", str(bad), "--features", str(features)],
    }[command]
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {bad}: " in captured.err and "JSON object" in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_failed_write_leaves_no_partial_file(pipeline, tmp_path, capsys):
    # predictions CSV with an id the truth does not know
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,dr_pred,dme_pred\nghost,0,0\n")
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--truth", str(pipeline / "data" / "manifest.csv"),
               "--pred", str(pred), "--out", str(out)])
    assert rc == 2
    assert "ghost" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob("*.part")) == []


def test_bad_predictions_csv(tmp_path, pipeline, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,dr_pred,dme_pred\nimg_0000,9,0\n")
    rc = main(["evaluate", "--truth", str(pipeline / "data" / "manifest.csv"),
               "--pred", str(pred)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("dims", [[0], [4, 0], []], ids=["zero", "last-zero", "empty"])
@pytest.mark.parametrize("command", ["train", "ablation"])
def test_config_hidden_dims_must_be_positive(pipeline, tmp_path, monkeypatch, capsys, command, dims):
    # [0] and [4, 0] used to exit 1 with a ZeroDivisionError traceback, ablation
    # only after reading every mask; [] failed only after the last epoch.
    def read_input(*args, **kwargs):
        pytest.fail("input read before the config was checked")

    monkeypatch.setattr(cli, "read_features_csv", read_input)
    monkeypatch.setattr(cli, "ablation", read_input)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hidden_dims": dims}))
    out = tmp_path / "out"
    args = _training_args(command, pipeline, out)[:-2] + ["--config", str(config)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"config hidden_dims must be positive, got {dims!r}" in err and "Traceback" not in err
    assert not out.exists()


def _config_command_args(command, pipeline, out):
    """A run of ``command`` (extract, train or ablation) that takes a --config file."""
    if command == "extract":
        return ["extract", "--manifest", str(pipeline / "data" / "manifest.csv"), "--out", str(out)]
    return _training_args(command, pipeline, out)[:-2]  # without --hidden-dims


@pytest.mark.parametrize("key", ["learning_rat", "dropout_prob", "k" * 100], ids=["misspelt", "removed", "long"])
@pytest.mark.parametrize("command", ["extract", "train", "ablation"])
def test_unknown_config_key_exits_2_before_input_is_read(pipeline, tmp_path, monkeypatch, capsys, command, key):
    # Unknown keys were ignored: "learning_rat" trained at the default lr and exited 0.
    def read_input(*args, **kwargs):
        pytest.fail("input read before the config keys were checked")

    for name in ("load_manifest", "read_features_csv", "ablation"):
        monkeypatch.setattr(cli, name, read_input)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 2, key: 0.1}))
    out = tmp_path / "out"
    assert main(_config_command_args(command, pipeline, out) + ["--config", str(config)]) == 2
    shown = repr(key) if len(key) <= 40 else f"{key[:40]!r}... (100 characters)"
    assert capsys.readouterr().err == f"error: {config}: unknown config key {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "train", "ablation"])
def test_one_config_file_serves_every_command(pipeline, tmp_path, monkeypatch, capsys, command):
    def read_input(*args, **kwargs):
        raise ValueError("input reached")

    for name in ("load_manifest", "read_features_csv", "ablation"):
        monkeypatch.setattr(cli, name, read_input)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TrainConfig().to_dict(), "hidden_dims": [16, 8],
                                  "thresholds": list(DEFAULT_THRESHOLDS.as_tuple()), "test_fraction": 0.2}))
    assert main(_config_command_args(command, pipeline, tmp_path / "out") + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: input reached\n"


def test_model_trained_with_dropout_still_predicts(tmp_path):
    # Written by `retsym train --hidden-dims 8,4 --dropout 0.1 --lr 0.03 --max-epochs 40
    # --patience 40` before the dropout option was removed, with its predictions.
    old = Path(__file__).parent / "data" / "dropout_model"
    assert load_model(old / "model.json").training_meta["config"]["dropout_prob"] == 0.1
    out = tmp_path / "predictions.csv"
    assert main(["predict", "--model", str(old / "model.json"), "--features", str(old / "features.csv"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (old / "predictions.csv").read_bytes()


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_negative_seed_exits_2_before_input_is_read(pipeline, tmp_path, monkeypatch, capsys, command):
    # ablation used to read every mask, then exit 2 with "expected non-negative integer".
    def read_input(*args, **kwargs):
        pytest.fail("input read before the seed was checked")

    monkeypatch.setattr(cli, "read_features_csv", read_input)
    monkeypatch.setattr(cli, "ablation", read_input)
    out = tmp_path / "out"
    assert main(_training_args(command, pipeline, out) + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


def _training_args(command, pipeline, out):
    if command == "train":
        return ["train", "--features", str(pipeline / "features.csv"), "--out", str(out),
                "--hidden-dims", "16,8"]
    return ["ablation", "--manifest", str(pipeline / "data" / "manifest.csv"), "--out", str(out),
            "--hidden-dims", "16,8"]


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--lr", "nan"], None, "learning_rate must be positive and finite"),
        (["--lr", "inf"], None, "learning_rate must be positive and finite"),
        (["--lr", "1e308"], None, "no epoch reached a finite validation loss"),
        ([], '{"learning_rate": 1e400}', "learning_rate must be positive and finite"),
        ([], '{"learning_rate": NaN}', "learning_rate must be positive and finite"),
        ([], '{"learning_rate": 1' + "0" * 400 + "}", "config learning_rate is out of range"),
    ],
    ids=["lr-nan", "lr-inf", "lr-1e308", "config-1e400", "config-NaN", "config-400-digits"],
)
@pytest.mark.parametrize("command", ["train", "ablation"])
def test_non_finite_training_is_rejected(pipeline, tmp_path, capsys, command, flags, config, message):
    # Each of these used to exit 0 and write the untrained initial weights.
    out = tmp_path / "out"
    args = _training_args(command, pipeline, out) + flags
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        args += ["--config", str(tmp_path / "config.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_model_with_non_finite_training_meta_is_rejected(pipeline, tmp_path, capsys):
    doc = json.loads((pipeline / "model.json").read_text())
    doc["training"]["best_val_loss"] = float("nan")
    nan_model = tmp_path / "nan.json"
    nan_model.write_text(json.dumps(doc))  # json writes the NaN token
    with pytest.raises(ModelFormatError, match="training section is not strict JSON"):
        load_model(nan_model)
    assert main(["predict", "--model", str(nan_model),
                 "--features", str(pipeline / "features.csv"),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "not strict JSON" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def _help_entry(capsys, command, option):
    """The text after ``option``'s metavar in ``command``'s --help, up to the next option."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    metavar = option[2:].upper().replace("-", "_")
    return text.split(f" {option} {metavar} ")[1].split(" --")[0]


# Every TrainConfig field: its flag, a flag value and a --config value (neither the default).
_OPTION_CASES = {
    "learning_rate": ("--lr", 0.05, 0.02),
    "batch_size": ("--batch-size", 7, 5),
    "max_epochs": ("--max-epochs", 9, 6),
    "patience": ("--patience", 5, 4),
    "validation_fraction": ("--val-fraction", 0.3, 0.4),
    "seed": ("--seed", 11, 12),
}

# The other resolved settings: flag, flag text, --config value, then the value
# the command receives from the flag and from --config (neither the default).
_SETTING_CASES = {
    "thresholds": ("--thresholds", "5,400,900,9000", [6, 300, 800, 8000],
                   SizeThresholds(5, 400, 900, 9000), SizeThresholds(6, 300, 800, 8000)),
    "hidden_dims": ("--hidden-dims", "9,7", [5], (9, 7), (5,)),
    "test_fraction": ("--test-fraction", "0.3", 0.4, 0.3, 0.4),
}


@pytest.mark.parametrize(
    "command,field",
    [(command, f.name) for command in ("ablation", "train") for f in dataclasses.fields(TrainConfig)]
    + [("extract", "thresholds"), ("train", "thresholds"), ("ablation", "thresholds"),
       ("train", "hidden_dims"), ("ablation", "hidden_dims"), ("ablation", "test_fraction")],
)
def test_train_option_declaration(pipeline, tmp_path, monkeypatch, capsys, command, field):
    if field in _SETTING_CASES:
        flag, flag_text, config_value, from_flag, from_config = _SETTING_CASES[field]
        received = field
    else:
        flag, flag_value, config_value = _OPTION_CASES[field]  # a KeyError names a new field
        flag_text, received = str(flag_value), "config"
        from_flag, from_config = (dataclasses.replace(TrainConfig(), **{field: v})
                                  for v in (flag_value, config_value))
    target = "features_for_mode" if command == "extract" else command
    signature = inspect.signature(getattr(cli, target))
    seen = []

    def capture(*args, **kwargs):  # stands in for the command's train, ablation or features_for_mode
        seen.append(signature.bind(*args, **kwargs).arguments[received])
        raise ValueError("config captured")

    monkeypatch.setattr(cli, target, capture)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: config_value}))
    base = _config_command_args(command, pipeline, tmp_path / "out")
    for extra, want in (
        ([flag, flag_text], from_flag),  # the flag sets it
        (["--config", str(config)], from_config),  # --config sets it
        (["--config", str(config), flag, flag_text], from_flag),  # the flag wins
    ):
        assert main(base + extra) == 2
        assert "config captured" in capsys.readouterr().err
        assert seen.pop() == want
    assert not (tmp_path / "out").exists()

    if field not in _SETTING_CASES:
        assert f"(default: {getattr(TrainConfig(), field)})" in _help_entry(capsys, command, flag)


def test_prediction_ids_with_commas_and_quotes(pipeline, tmp_path):
    # Manifest and features CSVs quote such ids; predictions.csv must too.
    mode, rows = read_features_csv(pipeline / "features.csv")
    odd_ids = [f"img,{i:04d}" if i % 2 else f'img"{i:04d}' for i in range(len(rows))]
    features = tmp_path / "odd.csv"
    write_features_csv(features, mode, [(i, *row[1:]) for i, row in zip(odd_ids, rows)])
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(pipeline / "model.json"),
                 "--features", str(features), "--out", str(pred)]) == 0
    assert [image_id for image_id, _ in read_predictions_csv(pred)] == odd_ids
    assert main(["evaluate", "--truth", str(features), "--pred", str(pred)]) == 0

    plain = tmp_path / "plain.csv"  # plain ids keep their bytes
    write_predictions_csv(plain, [("img_0000", GradePair(2, 1)), ("img_0001", GradePair(0, 0))])
    assert plain.read_bytes() == b"image_id,dr_pred,dme_pred\nimg_0000,2,1\nimg_0001,0,0\n"


# Cell text that no writer produces: huge integers, JSON's non-finite
# tokens, other scripts' digits, Python's own 1_0 and +3, separators and quotes.
_HOSTILE_CELLS = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(2**53 - 2, 2**80).map(str),
    st.integers(17, 5000).map(lambda n: "9" * n),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e308", "-1", "", " 3", "\u0663", "1_0", "+3", '"', "a,b"]),
)
# Text that only a reader which let an exception through would print.
_LEAKED_TEXT = ("codec can't decode", "int_max_str_digits", "int() with base 10")


def _assert_no_leak(err):
    assert not [text for text in _LEAKED_TEXT if text in err], err


# An id of 300 characters, 600 bytes in UTF-8; an error message shows only its
# first 40 characters.
_LONG_ID = "\u00e9" * 300


@st.composite
def _hostile_csv(draw, header, ids, cell=_HOSTILE_CELLS):
    """CSV bytes under ``header``: rows of too few, too many or hostile cells,
    ids drawn with repeats, and sometimes bytes that are not UTF-8."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([len(header)] * 3 + [1, len(header) - 1, len(header) + 1]))
        cells = draw(st.lists(cell, min_size=width - 1, max_size=width - 1))
        writer.writerow([draw(st.sampled_from(ids)), *cells])
    data = buffer.getvalue().encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x00", b"\r"])) + data[at:]
    return data


_HYPOTHESIS_CLI = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_HYPOTHESIS_CLI
@given(data=st.data())
def test_hostile_features_csv_exits_0_or_2(pipeline, capsys, data):
    mode = data.draw(st.sampled_from(list(retsym.FeatureMode)))
    ids = ["img_0000", "img_0001", "img,0002", 'i"d', _LONG_ID]
    path = pipeline / "hostile_features.csv"
    path.write_bytes(data.draw(_hostile_csv(features_header(mode), ids)))
    out = pipeline / "hostile_out"
    for args in (
        ["predict", "--model", str(pipeline / "model.json"), "--features", str(path),
         "--out", str(out)],
        ["train", "--features", str(path), "--out", str(out), "--max-epochs", "1",
         "--hidden-dims", "4"],
        ["evaluate", "--truth", str(path), "--pred", str(pipeline / "pred.csv")],
    ):
        assert main(args) in (0, 2), args
        err = capsys.readouterr().err
        _assert_no_leak(err)
        assert len(err.encode()) < 512, err


@_HYPOTHESIS_CLI
@given(data=st.data())
def test_hostile_predictions_csv_exits_0_or_2(pipeline, capsys, data):
    ids = ["img_0000", "img_0001", "img_0002", "img,0002", "ghost", _LONG_ID]
    path = pipeline / "hostile_pred.csv"
    path.write_bytes(data.draw(_hostile_csv(["image_id", "dr_pred", "dme_pred"], ids)))
    for truth in (pipeline / "features.csv", pipeline / "data" / "manifest.csv"):
        assert main(["evaluate", "--truth", str(truth), "--pred", str(path)]) in (0, 2)
        err = capsys.readouterr().err
        _assert_no_leak(err)
        assert len(err.encode()) < 512, err


@_HYPOTHESIS_CLI
@given(data=st.data())
def test_hostile_manifest_exits_0_or_2(pipeline, capsys, data):
    # A cell may name one of the pipeline's masks, so rows can pass the mask checks.
    ids = ["img_0000", "img_0001", "img,0002", 'i"d']
    mask = st.just(str(pipeline / "data" / "masks" / "img_0000_MA.pgm"))
    path = pipeline / "hostile_manifest.csv"
    path.write_bytes(data.draw(_hostile_csv(MANIFEST_COLUMNS, ids, st.one_of(mask, _HOSTILE_CELLS))))
    out = pipeline / "hostile_out"
    for args in (
        ["extract", "--manifest", str(path), "--out", str(out)],
        ["evaluate", "--truth", str(path), "--pred", str(pipeline / "pred.csv")],
    ):
        assert main(args) in (0, 2), args
        _assert_no_leak(capsys.readouterr().err)


# JSON text that no model writer produces: integers and a literal past the
# float range, the non-finite tokens, every other JSON type, lists of three
# and five numbers, and nesting past the parser's recursion limit.
_HOSTILE_JSON = st.sampled_from([
    "1" + "0" * 400, "-1" + "0" * 400, "1e400", "NaN", "Infinity", "-Infinity",
    '"x"', '"12"', "{}", '{"weights": [[1]]}', "[]", "[[]]", "[1, 2, 3]", "[1, 2, 3, 4, 5]",
    "null", "true", "false", "0", "-1", "0.5", "[" * 100_000 + "]" * 100_000,
])


def _hostile_model_text(model_text, steps, raw, duplicate):
    """Model JSON with one node replaced by the JSON text ``raw``, or with its
    key repeated after the others, holding ``raw``.  Each step picks a child:
    a string by key, an integer by position (modulo the child count); the
    walk stops early at a leaf or an empty container."""
    doc = json.loads(model_text)
    parent, key, node = None, None, doc
    for step in steps:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = step if isinstance(step, str) else keys[step % len(keys)]
        parent, node = node, node[key]
    marker = "@hostile@"
    if parent is None:
        return raw
    if duplicate and isinstance(parent, dict):
        parent[marker] = marker
        return json.dumps(doc).replace(f'"{marker}": "{marker}"', f"{json.dumps(key)}: {raw}")
    parent[key] = marker
    return json.dumps(doc).replace(f'"{marker}"', raw)


@_HYPOTHESIS_CLI
@given(steps=st.lists(st.integers(0, 999), max_size=5), raw=_HOSTILE_JSON, duplicate=st.booleans())
@example(steps=["trunk", 0, "weights", 0, 0], raw="1" + "0" * 400, duplicate=False)
@example(steps=["thresholds"], raw="[10, 500, 1000]", duplicate=False)
def test_hostile_model_json_exits_0_or_2(pipeline, capsys, steps, raw, duplicate):
    path = pipeline / "hostile_model.json"
    text = _hostile_model_text((pipeline / "model.json").read_text(), steps, raw, duplicate)
    path.write_text(text)
    try:
        model = load_model(path)
    except ModelFormatError:
        pass
    else:  # a model that loads holds its file's integer fields; none is filled in
        doc = json.loads(text)
        assert list(model.thresholds.as_tuple()) == doc["thresholds"]
        assert (list(model.trunk_dims), model.seed) == (doc["trunk_dims"], doc.get("seed"))
    rc = main(["predict", "--model", str(path), "--features", str(pipeline / "features.csv"),
               "--out", str(pipeline / "hostile_out")])
    assert rc in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_thresholds_flag_changes_features(pipeline, tmp_path):
    out = tmp_path / "coarse.csv"
    rc = main(["extract", "--manifest", str(pipeline / "data" / "manifest.csv"),
               "--mode", "extended", "--out", str(out),
               "--thresholds", "10,100,200,10000"])
    assert rc == 0
    _, coarse = read_features_csv(out)
    _, default = read_features_csv(pipeline / "features.csv")
    assert any(c[1].values != d[1].values for c, d in zip(coarse, default))


@pytest.mark.parametrize("command", ["synth", "extract", "train", "ablation"])
def test_help_shows_the_default_thresholds(capsys, command):
    default = ",".join(str(t) for t in DEFAULT_THRESHOLDS.as_tuple())
    assert f"(default: {default})" in _help_entry(capsys, command, "--thresholds")
    if command in ("train", "ablation"):
        dims = ",".join(str(d) for d in DEFAULT_HIDDEN_DIMS)
        assert f"(default: {dims})" in _help_entry(capsys, command, "--hidden-dims")


def test_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "retsym.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("synth", "extract", "train", "predict", "explain", "evaluate", "ablation"):
        assert name in proc.stdout


def _declared_entry_point():
    """The ``module:function`` that ``[project.scripts]`` declares for ``retsym``.

    Read from ``pyproject.toml`` where ``tomllib`` exists (Python 3.11+), else
    from the installed distribution's metadata; None when neither is there.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        try:
            scripts = metadata.distribution("retsym").entry_points
        except metadata.PackageNotFoundError:
            return None
        return next((ep.value for ep in scripts
                     if ep.group == "console_scripts" and ep.name == "retsym"), None)
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["retsym"]


def test_console_script_installed():
    # Start the declared entry point in a child process the way the installed
    # wrapper does, so the check holds without `pip install`; an installed
    # `retsym` on PATH is run as well.
    commands = []
    target = _declared_entry_point()
    if target is not None:
        module, function = target.split(":")
        commands.append([sys.executable, "-c",
                         f"import sys; from {module} import {function}; "
                         f"sys.argv[0] = 'retsym'; sys.exit({function}())", "--help"])
    installed = shutil.which("retsym")
    if installed is not None:
        commands.append([installed, "--help"])
    if not commands:
        pytest.skip("no tomllib to read pyproject.toml, and retsym is not installed")
    pythonpath = [str(Path(retsym.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    for command in commands:
        proc = subprocess.run(command, env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage: retsym" in proc.stdout
