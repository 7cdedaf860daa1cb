import json
import subprocess
import sys

import numpy as np
import pytest

from retsym import ModelFormatError, load_model, read_features_csv
from retsym.cli import main, read_predictions_csv


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
    assert all(dr is not None for _, _, dr, _ in rows)

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
    # which is no ValueError: the CLI exited 1 with a traceback.
    source = (pipeline / "data" / "manifest.csv" if command in ("extract", "evaluate")
              else pipeline / "features.csv")
    lines = source.read_text().splitlines()
    lines[1] = "x" * 200_000 + lines[1][lines[1].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
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
    assert f"{bad}: line 2: field larger than field limit" in err and "Traceback" not in err
    assert not out.exists()


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


def test_thresholds_flag_changes_features(pipeline, tmp_path):
    out = tmp_path / "coarse.csv"
    rc = main(["extract", "--manifest", str(pipeline / "data" / "manifest.csv"),
               "--mode", "extended", "--out", str(out),
               "--thresholds", "10,100,200,10000"])
    assert rc == 0
    _, coarse = read_features_csv(out)
    _, default = read_features_csv(pipeline / "features.csv")
    assert any(c[1].values != d[1].values for c, d in zip(coarse, default))


def test_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "retsym.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("synth", "extract", "train", "predict", "explain", "evaluate", "ablation"):
        assert name in proc.stdout


def test_console_script_installed():
    proc = subprocess.run(["retsym", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage: retsym" in proc.stdout
