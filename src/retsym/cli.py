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
import os
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from typing import Callable, Optional, Sequence

from .evaluation import (
    ablation,
    evaluate,
    features_for_mode,
    format_report,
    iter_extracted,
    write_report_csv,
)
from .explain import render
from .grader import DEFAULT_HIDDEN_DIMS, TrainConfig, load_model, predict_batch, save_model, train
from .mask_io import (
    MANIFEST_COLUMNS,
    GradePair,
    _shown,
    _shown_ids,
    as_number,
    graded,
    integers,
    load_manifest,
    parse_float,
    parse_int,
    read_csv,
    read_json,
    read_table,
    write_csv,
)
from .symbolic import (
    DEFAULT_THRESHOLDS,
    FeatureMode,
    FeatureVector,
    SizeThresholds,
    read_features_csv,
    write_features_csv,
)
from .synth import LabelRule, SynthSpec, generate

PREDICTIONS_COLUMNS = ("image_id", "dr_pred", "dme_pred")

_INPUT_ERRORS = (ValueError, OSError)


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
    return read_table(Path(path), ValueError, "predictions", [PREDICTIONS_COLUMNS], lambda cells: (
        cells[0], GradePair(parse_int(cells[1], "dr_pred"), parse_int(cells[2], "dme_pred"))))[1]


# ---------------------------------------------------------------------------
# Option plumbing


def _load_config_file(path: Optional[str]) -> dict:
    doc = {} if path is None else read_json(Path(path), ValueError, "config")
    # One file serves every command that reads one, so it may hold any of their settings.
    known = {f.name for f in fields(TrainConfig)} | {"hidden_dims", "thresholds", "test_fraction"}
    for key in doc:
        if key not in known:
            raise ValueError(f"{path}: unknown config key {_shown(key)}")
    return doc


def _setting(args: argparse.Namespace, doc: dict, name: str, default, count: Optional[int] = None):
    """A setting's flag value, else its ``--config`` value, else ``default``.

    A tuple setting holds integers, from a comma-separated flag or a JSON
    list: ``count`` of them, or without a ``count`` one or more, all positive.
    """
    flag = getattr(args, name, None)
    if flag is None and name not in doc:
        return default
    source, given = ("--" + name.replace("_", "-"), flag) if flag is not None else (f"config {name}", doc[name])
    if not isinstance(default, tuple):
        return flag if flag is not None else as_number(source, given, type(default))
    if flag is not None:
        parts = flag.split(",")
        if len(parts) != (count or len(parts)):
            raise ValueError(f"{source} needs {count} comma-separated integers, got {flag!r}")
        value = tuple(parse_int(part, source) for part in parts)
    elif isinstance(given, list) and len(given) == (count or len(given)):
        value = integers(given, source)
    else:
        raise ValueError(f"{source} must be a list of {count or 'positive'} integers, got {given!r}")
    if count is None and (not value or min(value) < 1):
        raise ValueError(f"{source} must be positive, got {given!r}")
    return value


def _training_settings(args: argparse.Namespace) -> tuple[dict, TrainConfig, dict]:
    """The --config document, the TrainConfig, and the thresholds and
    hidden_dims keywords of ``train`` and ``ablation``."""
    doc = _load_config_file(args.config)
    config = TrainConfig(**{f.name: _setting(args, doc, f.name, f.default) for f in fields(TrainConfig)})
    return doc, config, {
        "thresholds": SizeThresholds(*_setting(args, doc, "thresholds", DEFAULT_THRESHOLDS.as_tuple(), 4)),
        "hidden_dims": _setting(args, doc, "hidden_dims", DEFAULT_HIDDEN_DIMS),
    }


def _flag_type(parse: Callable[[str, str], object]) -> Callable[[str], object]:
    """The argparse ``type`` of a flag read by ``parse``: its grammar, and an error
    that argparse prefixes with the flag's name."""
    def read(text: str):
        try:
            return parse(text, "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


_int_flag, _float_flag = _flag_type(parse_int), _flag_type(parse_float)


def _add_train_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="JSON", help="JSON file of option defaults; explicit flags win")
    defaults = TrainConfig()
    # One (flag, TrainConfig field, help) row per field; the default is read from TrainConfig.
    for flag, name, text in (
        ("--lr", "learning_rate", "Adam learning rate"),
        ("--batch-size", "batch_size", "minibatch size"),
        ("--max-epochs", "max_epochs", "epoch cap"),
        ("--patience", "patience", "early-stopping patience in epochs"),
        ("--val-fraction", "validation_fraction", "fraction of training rows held out for validation"),
        ("--seed", "seed", "seed for the split, weight init and batching"),
    ):
        default = getattr(defaults, name)
        metavar = flag[2:].upper().replace("-", "_")
        kind = _int_flag if isinstance(default, int) else _float_flag
        sub.add_argument(flag, type=kind, dest=name, metavar=metavar, help=f"{text} (default: {default})")
    dims = ",".join(map(str, DEFAULT_HIDDEN_DIMS))
    sub.add_argument("--hidden-dims", default=None, help=f"comma-separated trunk layer widths (default: {dims})")


def _add_thresholds_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--thresholds",
        default=None,
        help="size cuts t0,t1,t2,t3 for discard/small/medium/large "
        f"(default: {','.join(map(str, DEFAULT_THRESHOLDS.as_tuple()))})",
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_synth(args: argparse.Namespace) -> int:
    try:  # a third side fails the unpacking, also with a ValueError
        width, height = (parse_int(side, "--canvas") for side in args.canvas.lower().split("x"))
    except ValueError:
        raise ValueError(f"--canvas must look like 1024x1024, got {args.canvas!r}") from None
    thresholds = SizeThresholds(*_setting(args, {}, "thresholds", DEFAULT_THRESHOLDS.as_tuple(), 4))
    spec = SynthSpec(n_images=args.n, width=width, height=height, seed=args.seed, rule=LabelRule(args.rule),
                     thresholds=thresholds)
    manifest = generate(spec, args.out)
    print(f"wrote {args.n} images under {args.out}; manifest: {manifest}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    doc = _load_config_file(args.config)
    thresholds = SizeThresholds(*_setting(args, doc, "thresholds", DEFAULT_THRESHOLDS.as_tuple(), 4))
    mode = FeatureMode(args.mode)
    records = load_manifest(args.manifest)
    vectors = features_for_mode(iter_extracted(records), mode, thresholds)
    rows = [(r.image_id, fv, r.label) for r, fv in zip(records, vectors)]
    out = Path(args.out)
    _atomic_write(out, lambda tmp: write_features_csv(tmp, mode, rows))
    print(f"extracted {mode.value} features for {len(rows)} images -> {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _, config, options = _training_settings(args)
    rows = read_features_csv(args.features)[1]
    dataset = list(zip((fv for _, fv, _ in rows), graded(rows, f"{args.features}: training")))
    model = train(dataset, config, **options)
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
    pairs = predict_batch(model, [fv for _, fv, _ in rows])
    return [(image_id, pair, fv) for (image_id, fv, _), pair in zip(rows, pairs)]


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
    if records and set(MANIFEST_COLUMNS).issubset(records[0][1]):
        rows = [(r.image_id, r.label) for r in load_manifest(path)]
    else:
        rows = read_features_csv(path)[1]
    return dict(zip((row[0] for row in rows), graded(rows, f"{path}: evaluate")))


def cmd_evaluate(args: argparse.Namespace) -> int:
    reference = _reference_pairs(args.truth)
    predictions = read_predictions_csv(args.pred)
    pred_ids = [image_id for image_id, _ in predictions]
    missing = [i for i in pred_ids if i not in reference]
    if missing:
        raise ValueError(f"{args.pred}: no reference grades for {_shown_ids(missing)}")
    if not predictions:
        raise ValueError(f"{args.pred}: no predictions to score")
    report = evaluate([reference[i] for i in pred_ids], [p for _, p in predictions])
    print(format_report(report))
    if args.out:
        _atomic_write(Path(args.out), lambda tmp: write_report_csv(tmp, [("all", report)]))
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    doc, config, options = _training_settings(args)
    result = ablation(args.manifest, config, test_fraction=_setting(args, doc, "test_fraction", 0.2), **options)
    arms = [("simple", result.simple), ("extended", result.extended)]
    for arm, report in arms:
        print(format_report(report, title=f"[{arm}] train={result.n_train} test={result.n_test}"))
        print()
    print(f"joint-accuracy gap (extended - simple): {result.gap:+.4f}")
    if args.out:
        _atomic_write(Path(args.out), lambda tmp: write_report_csv(tmp, arms))
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
    p.add_argument("--n", type=_int_flag, default=100, help="number of images (default: 100)")
    p.add_argument("--canvas", default="1024x1024", help="mask size WxH (default: 1024x1024)")
    p.add_argument("--seed", type=_int_flag, default=0, help="generator seed (default: 0)")
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
    p.add_argument("--test-fraction", type=_float_flag, default=None, help="held-out fraction (default: 0.2)")
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
