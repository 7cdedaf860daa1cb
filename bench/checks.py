"""Correctness checks on one pipeline round's outputs.

The references come from outside the program: the planted counts in
``ground_truth.csv``, ``scipy.ndimage.label`` on masks read by the
benchmark's own P5 reader, a forward pass written here from the weights in
``model.json``, and the features CSV read with the csv module.  scipy is
imported here only, and only after the timed rounds.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import re
import time
from pathlib import Path

import numpy as np

from workloads import Workload, mask_paths, read_p5

DR_NAMES = ("no DR", "mild NPDR", "moderate NPDR", "severe NPDR", "PDR")
# Extended-mode size cuts: discard s <= 10, small <= 500, medium <= 1000,
# large <= 10000, discard above.
SIZE_CUTS = (10, 500, 1000, 10000)
MAX_PROBLEMS = 10


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV file, header dropped."""
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def features_by_id(path: Path) -> dict[str, list[int]]:
    """image_id -> feature counts, from a features CSV."""
    return {row[0]: [int(v) for v in row[1:-2]] for row in read_rows(path)}


def bucket_counts(sizes) -> list[int]:
    """[small, medium, large] counts of region sizes, by a plain if-chain."""
    small = medium = large = 0
    for size in sizes:
        if size <= SIZE_CUTS[0]:
            pass
        elif size <= SIZE_CUTS[1]:
            small += 1
        elif size <= SIZE_CUTS[2]:
            medium += 1
        elif size <= SIZE_CUTS[3]:
            large += 1
    return [small, medium, large]


def check_planted_counts(inputs: Path, features: Path) -> list[str]:
    """Extracted extended features equal the planted counts, row for row."""
    truth = read_rows(inputs / "ground_truth.csv")
    got = read_rows(features)
    if len(got) != len(truth):
        return [f"features.csv has {len(got)} rows, ground truth {len(truth)}"]
    return [
        f"{want[0]}: extracted {got_row[1:]} != planted {want[1:]}"
        for got_row, want in zip(got, truth)
        if got_row != want
    ]


def check_speckle_regions(manifest: Path, features: Path) -> list[str]:
    """Every mask's regions match scipy's 8-connected labeling, and the
    simple and extended vectors match counts derived from scipy's sizes."""
    from scipy import ndimage

    from retsym.evaluation import extract_dataset
    from retsym.symbolic import simple_features

    problems = []
    extracted = {img.image_id: img for img in extract_dataset(manifest)}
    vectors = features_by_id(features)
    expected: dict[str, tuple[list[int], list[int]]] = {}
    for image_id, cls, path in mask_paths(manifest):
        labels, n = ndimage.label(read_p5(path) > 127, structure=np.ones((3, 3), dtype=bool))
        sizes = np.bincount(labels.ravel())[1:].tolist()
        region_set = extracted[image_id].region_sets[cls.index - 1]
        if region_set.lesion_class is not cls or sorted(region_set.sizes()) != sorted(sizes):
            problems.append(
                f"{image_id} {cls.name}: {len(region_set)} regions, scipy finds {n} "
                f"(or the size multisets differ)"
            )
        simple, extended = expected.setdefault(image_id, ([], []))
        simple.append(n)
        extended.extend(bucket_counts(sizes))
    for image_id, (simple, extended) in expected.items():
        got_simple = list(simple_features(extracted[image_id].region_sets).values)
        if got_simple != simple:
            problems.append(f"{image_id}: simple features {got_simple} != {simple}")
        if vectors[image_id] != extended:
            problems.append(f"{image_id}: extended features {vectors[image_id]} != {extended}")
    return problems


def forward_logits(model_path: Path, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DR and DME logits from the weights in model.json, computed here."""
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    pre = doc["preprocess"]
    a = (np.log1p(counts) - np.array(pre["shift"])) / np.array(pre["scale"])
    for layer in doc["trunk"]:
        a = np.maximum(a @ np.array(layer["weights"]) + np.array(layer["bias"]), 0.0)
    heads = [a @ np.array(doc[h]["weights"]) + np.array(doc[h]["bias"]) for h in ("dr_head", "dme_head")]
    return heads[0], heads[1]


def _agrees(logits: np.ndarray, picked: int) -> bool:
    """The pick is the argmax, or ties with it to within rounding."""
    best = int(np.argmax(logits))
    if picked == best:
        return True
    gap = logits[best] - logits[picked]
    return bool(gap <= 1e-9 * max(1.0, abs(logits[best])))


def check_predictions(model: Path, heldout: Path, predictions: Path) -> list[str]:
    """Each prediction is the argmax of the benchmark's own forward pass."""
    rows = read_rows(heldout)
    preds = read_rows(predictions)
    if [r[0] for r in preds] != [r[0] for r in rows]:
        return ["predictions.csv does not list the held-out images in order"]
    counts = np.array([[float(v) for v in r[1:-2]] for r in rows])
    dr_logits, dme_logits = forward_logits(model, counts)
    return [
        f"{row[0]}: predicted ({pred[1]}, {pred[2]}), forward pass gives "
        f"({int(np.argmax(dr))}, {int(np.argmax(dme))})"
        for row, pred, dr, dme in zip(rows, preds, dr_logits, dme_logits)
        if not (_agrees(dr, int(pred[1])) and _agrees(dme, int(pred[2])))
    ]


def check_explanations(heldout: Path, predictions: Path, explanations: Path) -> tuple[list[str], float]:
    """Each sentence's integers are the nonzero counts in order, and it parses
    back to (image id, predicted DR grade name, feature vector).

    Also returns the seconds spent in ``retsym.explain.parse``.
    """
    from retsym.explain import parse

    rows = read_rows(heldout)
    preds = {r[0]: int(r[1]) for r in read_rows(predictions)}
    lines = explanations.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(rows):
        return [f"{len(lines)} explanations for {len(rows)} held-out images"], 0.0
    problems = []
    parse_s = 0.0
    for line, row in zip(lines, rows):
        image_id, counts = row[0], [int(v) for v in row[1:-2]]
        _, _, body = line.partition(" because ")
        numbers = [int(t) for t in re.findall(r"\d+", body)]
        if numbers != [c for c in counts if c]:
            problems.append(f"{image_id}: sentence counts {numbers} != features {counts}")
        start = time.perf_counter()
        try:
            got_id, grade_text, vector = parse(line)
        except ValueError as exc:
            problems.append(f"{image_id}: {exc}")
            continue
        finally:
            parse_s += time.perf_counter() - start
        want = (image_id, DR_NAMES[preds[image_id]], counts)
        if (got_id, grade_text, list(vector.values)) != want:
            problems.append(f"{image_id}: parses to {(got_id, grade_text, vector.values)}, want {want}")
    return problems, parse_s


def joint_accuracy(manifest: Path, predictions: Path) -> float:
    """Share of predictions whose (DR, DME) pair equals the manifest's."""
    with manifest.open(newline="", encoding="utf-8") as fh:
        truth = {row["image_id"]: (row["dr_grade"], row["dme_grade"]) for row in csv.DictReader(fh)}
    rows = read_rows(predictions)
    return sum(truth[r[0]] == (r[1], r[2]) for r in rows) / len(rows)


def check_accuracy(workload: Workload, manifest: Path, predictions: Path, report: Path) -> tuple[list[str], float]:
    """Joint accuracy agrees with ``retsym evaluate`` and meets the workload's floor."""
    accuracy = joint_accuracy(manifest, predictions)
    reported = float(read_rows(report)[0][2])
    problems = []
    if reported != accuracy:
        problems.append(f"evaluate reports joint accuracy {reported}, counted {accuracy}")
    floor = workload.min_joint_accuracy
    if floor is not None and accuracy < floor:
        problems.append(f"held-out joint accuracy {accuracy:.4f} below {floor}")
    return problems, accuracy


def check_round(workload: Workload, inputs: Path, out: Path) -> tuple[list[str], float, float]:
    """All checks on one round's outputs: (problems, seconds in parse, joint accuracy)."""
    manifest = inputs / "manifest.csv"
    features, heldout = out / "features.csv", out / "heldout.csv"
    predictions = out / "predictions.csv"
    problems = []
    if workload.speckle is None:
        problems += check_planted_counts(inputs, features)
    else:
        problems += check_speckle_regions(manifest, features)
    problems += check_predictions(out / "model.json", heldout, predictions)
    explain_problems, parse_s = check_explanations(heldout, predictions, out / "explanations.txt")
    accuracy_problems, accuracy = check_accuracy(workload, manifest, predictions, out / "report.csv")
    problems += explain_problems + accuracy_problems
    return problems[:MAX_PROBLEMS], parse_s, accuracy
