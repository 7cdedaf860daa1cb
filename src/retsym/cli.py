"""Command-line front end for the lesion-mask grading pipeline.

Subcommands cover the full path from masks to explanations::

    retsym synth     write a synthetic mask dataset with known labels
    retsym extract   masks + manifest -> symbolic feature CSV
    retsym train     labeled feature CSV -> model JSON
    retsym predict   model + feature CSV -> predicted grades CSV
    retsym explain   model + feature CSV -> one explanation sentence per image
    retsym evaluate  predictions vs reference grades -> accuracy report
    retsym ablation  paired simple-vs-extended comparison from one manifest

Exit codes: 0 on success, 2 for bad inputs or arguments, 1 for unexpected
internal failures.  Commands that write files do so atomically, so a failed
run does not leave partial outputs behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from typing import Callable, Optional, Sequence

from .evaluation import (
    ablation,
    evaluate,
    extract_dataset,
    features_for_mode,
    format_report,
    write_report_csv,
)
from .explain import render
from .grader import (
    DEFAULT_HIDDEN_DIMS,
    GradePair,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train,
)
from .mask_io import MANIFEST_COLUMNS, load_manifest, read_csv, read_text, write_csv
from .symbolic import (
    DEFAULT_THRESHOLDS,
    FeatureMode,
    FeatureVector,
    SizeThresholds,
    read_features_csv,
    write_features_csv,
)
from .synth import LabelRule, PackingError, SynthSpec, generate

PREDICTIONS_COLUMNS = ("image_id", "dr_pred", "dme_pred")

# Each module's own input error (MaskFormatError, ManifestError, FeaturesCsvError,
# ModelFormatError, ExplanationParseError) is a ValueError; PackingError is not.
_INPUT_ERRORS = (ValueError, OSError, PackingError)


def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    """Run ``writer`` against a temp path, then move it into place."""
    tmp = path.with_name(path.name + ".part")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_predictions_csv(path: str | Path, rows: Sequence[tuple[str, GradePair]]) -> None:
    write_csv(path, PREDICTIONS_COLUMNS, ((image_id, pair.dr, pair.dme) for image_id, pair in rows))


def read_predictions_csv(path: str | Path) -> list[tuple[str, GradePair]]:
    records = read_csv(Path(path), ValueError, "predictions")
    if not records or records[0][1] != list(PREDICTIONS_COLUMNS):
        raise ValueError(f"{path}: expected header {','.join(PREDICTIONS_COLUMNS)!r}")
    rows = []
    for line, cells in records[1:]:
        if len(cells) != 3:
            raise ValueError(f"{path}: line {line}: expected 3 columns, got {len(cells)}")
        try:
            rows.append((cells[0], GradePair(dr=int(cells[1]), dme=int(cells[2]))))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# Option plumbing


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    text = read_text(Path(path), ValueError, "config")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


def _parse_thresholds(text: str) -> SizeThresholds:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--thresholds needs 4 comma-separated integers, got {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--thresholds needs integers, got {text!r}") from None
    return SizeThresholds(*values)


def _typed(key: str, value, kind: type):
    """A config value as ``kind``: an int must be a JSON integer, a float any
    JSON number; a bool or string is rejected rather than converted."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"config {key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"config {key} is out of range, got {value!r}") from None


def _thresholds_from(args: argparse.Namespace, doc: dict) -> SizeThresholds:
    if getattr(args, "thresholds", None) is not None:
        return _parse_thresholds(args.thresholds)
    if "thresholds" in doc:
        values = doc["thresholds"]
        if not (isinstance(values, list) and len(values) == 4):
            raise ValueError("config thresholds must be a list of 4 integers")
        return SizeThresholds(*(_typed(f"thresholds[{i}]", v, int) for i, v in enumerate(values)))
    return DEFAULT_THRESHOLDS


def _train_config_from(args: argparse.Namespace, doc: dict) -> TrainConfig:
    """Defaults, overridden by --config JSON, overridden by explicit flags."""
    values = {}
    for f in fields(TrainConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
        elif f.name in doc:
            values[f.name] = _typed(f.name, doc[f.name], type(f.default))
    return TrainConfig(**values)


def _hidden_dims_from(args: argparse.Namespace, doc: dict) -> tuple[int, ...]:
    text = getattr(args, "hidden_dims", None)
    if text is not None:
        try:
            dims = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"--hidden-dims needs integers, got {text!r}") from None
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"--hidden-dims must be positive, got {text!r}")
        return dims
    if "hidden_dims" in doc:
        dims = doc["hidden_dims"]
        if not isinstance(dims, list):
            raise ValueError(f"config hidden_dims must be a list of integers, got {dims!r}")
        return tuple(_typed(f"hidden_dims[{i}]", d, int) for i, d in enumerate(dims))
    return DEFAULT_HIDDEN_DIMS


def _add_train_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="JSON", help="JSON file of option defaults; explicit flags win")
    defaults = TrainConfig()
    # One (flag, TrainConfig field, help) row per field; the default is read from TrainConfig.
    for flag, name, text in (
        ("--lr", "learning_rate", "Adam learning rate"),
        ("--batch-size", "batch_size", "minibatch size"),
        ("--dropout", "dropout_prob", "dropout probability after each hidden layer"),
        ("--max-epochs", "max_epochs", "epoch cap"),
        ("--patience", "patience", "early-stopping patience in epochs"),
        ("--val-fraction", "validation_fraction", "fraction of training rows held out for validation"),
        ("--seed", "seed", "seed for the split, weight init, batching and dropout"),
    ):
        default = getattr(defaults, name)
        metavar = flag[2:].upper().replace("-", "_")
        sub.add_argument(flag, type=type(default), dest=name, metavar=metavar, help=f"{text} (default: {default})")
    dims = ",".join(map(str, DEFAULT_HIDDEN_DIMS))
    sub.add_argument("--hidden-dims", default=None, help=f"comma-separated trunk layer widths (default: {dims})")


def _add_thresholds_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--thresholds",
        default=None,
        help="size cuts t0,t1,t2,t3 for discard/small/medium/large (default: 10,500,1000,10000)",
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        width_s, _, height_s = args.canvas.lower().partition("x")
        width, height = int(width_s), int(height_s)
    except ValueError:
        raise ValueError(f"--canvas must look like 1024x1024, got {args.canvas!r}") from None
    spec = SynthSpec(
        n_images=args.n,
        width=width,
        height=height,
        seed=args.seed,
        rule=LabelRule(args.rule),
        thresholds=_thresholds_from(args, {}),
    )
    manifest = generate(spec, args.out)
    print(f"wrote {args.n} images under {args.out}; manifest: {manifest}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    thresholds = _thresholds_from(args, doc)
    mode = FeatureMode(args.mode)
    images = extract_dataset(args.manifest)
    vectors = features_for_mode(images, mode, thresholds)
    rows = [
        (img.image_id, fv, img.label.dr if img.label else None, img.label.dme if img.label else None)
        for img, fv in zip(images, vectors)
    ]
    out = Path(args.out)
    _atomic_write(out, lambda tmp: write_features_csv(tmp, mode, rows))
    print(f"extracted {mode.value} features for {len(rows)} images -> {out}")
    return 0


def _labeled_dataset(path: str | Path):
    mode, rows = read_features_csv(path)
    missing = [image_id for image_id, _, dr, dme in rows if dr is None or dme is None]
    if missing:
        raise ValueError(f"{path}: training needs grades for every row; missing for {missing[:5]}")
    return mode, [(fv, GradePair(dr=dr, dme=dme)) for _, fv, dr, dme in rows]


def cmd_train(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    config = _train_config_from(args, doc)
    thresholds = _thresholds_from(args, doc)
    hidden_dims = _hidden_dims_from(args, doc)
    _, dataset = _labeled_dataset(args.features)
    model = train(dataset, config, thresholds=thresholds, hidden_dims=hidden_dims)
    out = Path(args.out)
    _atomic_write(out, lambda tmp: save_model(model, tmp))
    meta = model.training_meta
    print(
        f"trained {model.feature_mode.value} grader on {len(dataset)} rows: "
        f"best validation loss {meta['best_val_loss']:.4f} at epoch "
        f"{meta['best_epoch']}/{meta['epochs_run']} -> {out}"
    )
    return 0


def _predictions_for(args: argparse.Namespace) -> list[tuple[str, GradePair, FeatureVector]]:
    model = load_model(args.model)
    mode, rows = read_features_csv(args.features)
    if mode is not model.feature_mode:
        raise ValueError(
            f"{args.features} holds {mode.value} features but the model expects "
            f"{model.feature_mode.value}"
        )
    pairs = predict_batch(model, [fv for _, fv, _, _ in rows])
    return [(image_id, pair, fv) for (image_id, fv, _, _), pair in zip(rows, pairs)]


def cmd_predict(args: argparse.Namespace) -> int:
    rows = _predictions_for(args)
    out = Path(args.out)
    _atomic_write(out, lambda tmp: write_predictions_csv(tmp, [(i, p) for i, p, _ in rows]))
    print(f"predicted grades for {len(rows)} images -> {out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    rows = _predictions_for(args)
    sentences = [render(image_id, fv, pair).rendered for image_id, pair, fv in rows]
    text = "\n".join(sentences) + ("\n" if sentences else "")
    if args.out:
        _atomic_write(Path(args.out), lambda tmp: tmp.write_text(text, encoding="utf-8"))
        print(f"wrote {len(sentences)} explanations -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _reference_pairs(path: str | Path) -> dict[str, GradePair]:
    """Reference grades from either a manifest or a labeled features CSV."""
    path = Path(path)
    records = read_csv(path, ValueError, "reference")
    if records and records[0][1] == list(MANIFEST_COLUMNS):
        grades = [(r.image_id, r.dr_grade, r.dme_grade) for r in load_manifest(path)]
    else:
        grades = [(image_id, dr, dme) for image_id, _, dr, dme in read_features_csv(path)[1]]
    ungraded = [image_id for image_id, dr, _ in grades if dr is None]
    if ungraded:
        raise ValueError(f"{path}: image {ungraded[0]!r} has no grades")
    return {image_id: GradePair(dr, dme) for image_id, dr, dme in grades}


def cmd_evaluate(args: argparse.Namespace) -> int:
    reference = _reference_pairs(args.truth)
    predictions = read_predictions_csv(args.pred)
    pred_ids = [image_id for image_id, _ in predictions]
    missing = [i for i in pred_ids if i not in reference]
    if missing:
        raise ValueError(f"{args.pred}: no reference grades for {missing[:5]}")
    if len(set(pred_ids)) != len(pred_ids):
        raise ValueError(f"{args.pred}: duplicate image ids")
    if not predictions:
        raise ValueError(f"{args.pred}: no predictions to score")
    report = evaluate([reference[i] for i in pred_ids], [p for _, p in predictions])
    print(format_report(report))
    if args.out:
        _atomic_write(Path(args.out), lambda tmp: write_report_csv(tmp, [("all", report)]))
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    config = _train_config_from(args, doc)
    thresholds = _thresholds_from(args, doc)
    hidden_dims = _hidden_dims_from(args, doc)
    test_fraction = args.test_fraction
    if test_fraction is None:
        test_fraction = _typed("test_fraction", doc.get("test_fraction", 0.2), float)
    result = ablation(
        args.manifest,
        config,
        thresholds=thresholds,
        test_fraction=test_fraction,
        hidden_dims=hidden_dims,
    )
    print(format_report(result.simple, title=f"[simple] train={result.n_train} test={result.n_test}"))
    print()
    print(format_report(result.extended, title=f"[extended] train={result.n_train} test={result.n_test}"))
    print()
    print(f"joint-accuracy gap (extended - simple): {result.gap:+.4f}")
    if args.out:
        _atomic_write(
            Path(args.out),
            lambda tmp: write_report_csv(tmp, [("simple", result.simple), ("extended", result.extended)]),
        )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retsym",
        description="Symbolic grading of diabetic-retinopathy lesion masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic mask dataset with known labels")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=100, help="number of images (default: 100)")
    p.add_argument("--canvas", default="1024x1024", help="mask size WxH (default: 1024x1024)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument(
        "--rule",
        choices=[r.value for r in LabelRule],
        default=LabelRule.SIZE_AWARE.value,
        help="labeling rule (default: size-aware; count-only ignores region sizes)",
    )
    _add_thresholds_option(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract symbolic features from masks")
    p.add_argument("--manifest", required=True, help="dataset manifest CSV")
    p.add_argument(
        "--mode",
        choices=[m.value for m in FeatureMode],
        default=FeatureMode.EXTENDED.value,
        help="feature mode: 4 per-class counts or 12 size-bucketed counts (default: extended)",
    )
    p.add_argument("--out", required=True, help="output features CSV")
    p.add_argument("--config", metavar="JSON", help="JSON file of option defaults; explicit flags win")
    _add_thresholds_option(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a grader on a labeled features CSV")
    p.add_argument("--features", required=True, help="labeled features CSV from `retsym extract`")
    p.add_argument("--out", required=True, help="output model JSON")
    _add_train_options(p)
    _add_thresholds_option(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict grades for a features CSV")
    p.add_argument("--model", required=True, help="model JSON from `retsym train`")
    p.add_argument("--features", required=True, help="features CSV (mode must match the model)")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="write one explanation sentence per image")
    p.add_argument("--model", required=True, help="model JSON from `retsym train`")
    p.add_argument("--features", required=True, help="features CSV (mode must match the model)")
    p.add_argument("--out", default=None, help="output text file (default: stdout)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="score predictions against reference grades")
    p.add_argument("--truth", required=True, help="manifest CSV or labeled features CSV")
    p.add_argument("--pred", required=True, help="predictions CSV from `retsym predict`")
    p.add_argument("--out", default=None, help="optional report CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablation", help="paired simple-vs-extended feature comparison")
    p.add_argument("--manifest", required=True, help="labeled dataset manifest CSV")
    p.add_argument("--test-fraction", type=float, default=None, help="held-out fraction (default: 0.2)")
    p.add_argument("--out", default=None, help="optional report CSV")
    _add_train_options(p)
    _add_thresholds_option(p)
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # internal failure: keep the traceback, exit 1
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
