"""Feature-vector grading with a small fully connected network.

The network maps a symbolic feature vector to two softmax heads: a 5-way DR
severity grade and a 3-way DME grade.  Inputs pass through log1p + z-score
preprocessing (stats frozen into the model at training time), then a ReLU
trunk whose default hidden widths are 25, 50, 75, 100, 75, 50, 25, 12, then
the two affine heads.  Training is plain backpropagation with Adam, an
internal train/validation split, and early stopping that restores the
best-validation weights.  Training runs in float32 (parameters, gradients,
activations and Adam moments) and flushes subnormal Adam moments to 0 after
each epoch; inference and the model file stay float64.  Every random choice
is drawn from one seeded generator, so a (dataset, config) pair always
produces the same model, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .mask_io import DME_GRADE_NAMES, DR_GRADE_NAMES, GradePair, as_number, integers, read_json
from .symbolic import DEFAULT_THRESHOLDS, FeatureMode, FeatureVector, SizeThresholds

DEFAULT_HIDDEN_DIMS = (25, 50, 75, 100, 75, 50, 25, 12)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PROB_CLAMP = 1e-12

_FLOAT32_TINY = np.finfo(np.float32).tiny  # the smallest normal float32

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised for unreadable or inconsistent model files."""


@dataclass(frozen=True)
class TrainConfig:
    # Over data seeds 13-25 (tools/sweep.py), batch 64 held out at least
    # 0.98 joint accuracy; the earlier batch-16 settings fell to 0.8075 and
    # took four times the Adam steps.  See the README.
    learning_rate: float = 0.01
    batch_size: int = 64
    max_epochs: int = 20
    patience: int = 3
    validation_fraction: float = 0.2
    seed: int = 8

    def __post_init__(self) -> None:
        for f in fields(self):  # each value as its field's type: int or float
            object.__setattr__(self, f.name, as_number(f.name, getattr(self, f.name), type(f.default)))
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class GraderModel:
    """Trained network weights plus the preprocessing stats they expect.

    ``params`` holds every weight and bias in one float64 vector, in the
    order :func:`_layout` derives from ``trunk_dims``; :func:`_views` cuts
    it into per-layer arrays.  :func:`train` fills it with float32 values,
    each exactly representable in float64.
    """

    feature_mode: FeatureMode
    thresholds: SizeThresholds
    trunk_dims: tuple[int, ...]
    params: np.ndarray  # flat, length _n_params(trunk_dims)
    shift: np.ndarray  # per-feature mean of log1p over the training split
    scale: np.ndarray  # matching std; strictly positive
    seed: Optional[int] = None
    training_meta: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.trunk_dims = dims = _check_dims(self.trunk_dims, self.feature_mode)
        if self.seed is not None:
            (self.seed,) = integers([self.seed], "seed", ModelFormatError)
        n_params = _n_params(dims)
        if self.params.shape != (n_params,):
            raise ModelFormatError(
                f"params shape {self.params.shape}, expected ({n_params},) for trunk_dims {dims}"
            )
        for name, v in (("shift", self.shift), ("scale", self.scale)):
            if v.shape != (dims[0],):
                raise ModelFormatError(f"preprocess {name} length {v.shape}, expected ({dims[0]},)")
        for name, v in (("params", self.params), ("shift", self.shift), ("scale", self.scale)):
            if not np.all(np.isfinite(v)):
                raise ModelFormatError(f"{name} holds a non-finite value")
        if not np.all(self.scale > 0):
            raise ModelFormatError("preprocess scale entries must be strictly positive")
        try:  # model files are strict JSON: no NaN or Infinity tokens
            json.dumps(self.training_meta, allow_nan=False)
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"training section is not strict JSON: {exc}") from None


def _check_dims(trunk_dims: Sequence[int], mode: FeatureMode) -> tuple[int, ...]:
    """``trunk_dims`` as ints: the input width of ``mode``, then layer widths, all positive."""
    trunk_dims = integers(trunk_dims, "trunk_dims", ModelFormatError)
    if len(trunk_dims) < 2 or min(trunk_dims) < 1:
        raise ModelFormatError(
            "trunk_dims must list the input width and at least one layer width, all positive"
        )
    if trunk_dims[0] != mode.length:
        raise ModelFormatError(
            f"trunk_dims[0] == {trunk_dims[0]} but {mode.value} "
            f"features have length {mode.length}"
        )
    return trunk_dims


# ---------------------------------------------------------------------------
# Parameter layout


def _layout(trunk_dims: Sequence[int]) -> list[tuple[str, int, int]]:
    """(name, fan_in, fan_out) of every affine layer, in parameter order.

    The trunk layers come first, then the DR head, then the DME head.  Each
    layer stores its (fan_in, fan_out) weights, then its fan_out biases.
    """
    pairs = zip(trunk_dims[:-1], trunk_dims[1:])
    layers = [(f"trunk layer {k}", fan_in, fan_out) for k, (fan_in, fan_out) in enumerate(pairs)]
    layers.append(("dr_head", trunk_dims[-1], len(DR_GRADE_NAMES)))
    layers.append(("dme_head", trunk_dims[-1], len(DME_GRADE_NAMES)))
    return layers


def _n_params(trunk_dims: Sequence[int]) -> int:
    return sum((fan_in + 1) * fan_out for _, fan_in, fan_out in _layout(trunk_dims))


def _views(flat: np.ndarray, trunk_dims: Sequence[int]) -> list[np.ndarray]:
    """C-contiguous views into ``flat``: weights, bias, weights, bias, ... per layer."""
    views: list[np.ndarray] = []
    at = 0
    for _, fan_in, fan_out in _layout(trunk_dims):
        views.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        views.append(flat[at : at + fan_out])
        at += fan_out
    return views


# ---------------------------------------------------------------------------
# Forward / loss / backward


def _standardize(raw: np.ndarray, shift: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map raw counts to the network's input space: (log1p(raw) - shift) / scale."""
    return (np.log1p(raw) - shift) / scale


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _forward_batch(params: Sequence[np.ndarray], n_trunk: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Batch forward pass: both heads' probabilities, and the cache the
    backward pass reads."""
    cache: dict = {"inputs": [], "pre": []}
    a = x
    for k in range(n_trunk):
        # np.dot makes the same BLAS call as @, with less overhead per call.
        z = np.dot(a, params[2 * k])
        z += params[2 * k + 1]
        cache["inputs"].append(a)
        cache["pre"].append(z)
        a = np.maximum(z, 0.0)
    cache["trunk_out"] = a
    w_dr, b_dr, w_dme, b_dme = params[2 * n_trunk : 2 * n_trunk + 4]
    return _softmax(np.dot(a, w_dr) + b_dr), _softmax(np.dot(a, w_dme) + b_dme), cache


def _mean_loss(dr_probs: np.ndarray, dme_probs: np.ndarray, y_dr: np.ndarray, y_dme: np.ndarray) -> float:
    rows = np.arange(len(y_dr))
    p_dr = np.maximum(dr_probs[rows, y_dr], PROB_CLAMP)
    p_dme = np.maximum(dme_probs[rows, y_dme], PROB_CLAMP)
    return float(-np.add.reduce(np.log(p_dr) + np.log(p_dme)) / len(rows))


def _backward_batch(
    params: Sequence[np.ndarray],
    n_trunk: int,
    cache: dict,
    dr_probs: np.ndarray,
    dme_probs: np.ndarray,
    y_dr: np.ndarray,
    y_dme: np.ndarray,
    grads: Sequence[np.ndarray],
) -> None:
    """Write the gradients of the mean summed cross-entropy into ``grads``."""
    n, rows, head = len(y_dr), np.arange(len(y_dr)), 2 * n_trunk
    g_dr, g_dme = dr_probs.copy(), dme_probs.copy()
    for g_head, y, k in ((g_dr, y_dr, head), (g_dme, y_dme, head + 2)):
        g_head[rows, y] -= 1.0
        g_head /= n
        np.dot(cache["trunk_out"].T, g_head, out=grads[k])
        np.add.reduce(g_head, axis=0, out=grads[k + 1])
    d_a = np.dot(g_dr, params[head].T)
    d_a += np.dot(g_dme, params[head + 2].T)

    # d_a is always a fresh array, so the products below may overwrite it.
    for k in range(n_trunk - 1, -1, -1):
        d_a *= cache["pre"][k] > 0.0  # now the gradient w.r.t. the pre-activation
        np.add.reduce(d_a, axis=0, out=grads[2 * k + 1])
        np.dot(cache["inputs"][k].T, d_a, out=grads[2 * k])
        if k:
            d_a = np.dot(d_a, params[2 * k].T)


def loss_and_gradients(
    params: Sequence[np.ndarray],
    n_trunk: int,
    x: np.ndarray,
    y_dr: np.ndarray,
    y_dme: np.ndarray,
    *,
    out: Optional[list[np.ndarray]] = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean loss over a batch and its analytic parameter gradients, written
    into ``out`` (one array per entry of ``params``) or into fresh arrays."""
    if out is None:
        out = [np.empty_like(p) for p in params]
    dr_probs, dme_probs, cache = _forward_batch(params, n_trunk, x)
    value = _mean_loss(dr_probs, dme_probs, y_dr, y_dme)
    _backward_batch(params, n_trunk, cache, dr_probs, dme_probs, y_dr, y_dme, out)
    return value, out


def _adam_step(
    flat: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
    s1: np.ndarray, s2: np.ndarray, step: int, lr: float,
) -> None:
    """One Adam step (Kingma & Ba, ICLR 2015) on ``flat``, moments ``m`` and
    ``v`` and scratch ``s1``, ``s2``, all in place.  The bias corrections are
    folded into two scalars, as in Section 2 of the paper: with
    ``c = sqrt(1-b2**step)``, ``flat -= (lr_t*m) / (sqrt(v) + eps*c)`` where
    ``lr_t = lr*c / (1-b1**step)``, after ``m = b1*m + (1-b1)*g`` and
    ``v = b2*v + ((1-b2)*g)*g``.  The operations keep that order, so every bit
    matches the expression evaluated in the arrays' dtype."""
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
    np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
    s1 *= g
    v *= ADAM_BETA2
    v += s1
    c = math.sqrt(1.0 - ADAM_BETA2**step)
    np.multiply(m, lr * c / (1.0 - ADAM_BETA1**step), out=s1)
    np.sqrt(v, out=s2)
    s2 += ADAM_EPS * c
    s1 /= s2
    flat -= s1


# ---------------------------------------------------------------------------
# Training


def _init_flat(rng: np.random.Generator, trunk_dims: Sequence[int]) -> np.ndarray:
    """Uniform(+-sqrt(6/fan_in)) weights, zero biases, heads included, as one vector."""
    flat = np.zeros(_n_params(trunk_dims))
    for w in _views(flat, trunk_dims)[0::2]:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return flat


def _init_params(rng: np.random.Generator, trunk_dims: Sequence[int]) -> list[np.ndarray]:
    """The initial parameters as per-layer views into one fresh vector."""
    return _views(_init_flat(rng, trunk_dims), trunk_dims)


def _fit_preprocess(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logged = np.log1p(raw)
    shift = logged.mean(axis=0)
    scale = logged.std(axis=0)
    # Constant features pass through un-scaled.  Checked via min == max rather
    # than std > 0: the mean of identical values can round, leaving a std of a
    # few ulps that would otherwise blow the standardized values up to ~1e15.
    constant = logged.min(axis=0) == logged.max(axis=0)
    scale = np.where(constant, 1.0, scale)
    return shift, scale


@np.errstate(over="ignore", invalid="ignore")  # a diverging run is rejected by its validation loss
def train(
    dataset: Sequence[tuple[FeatureVector, GradePair]],
    config: TrainConfig,
    thresholds: SizeThresholds = DEFAULT_THRESHOLDS,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
) -> GraderModel:
    """Train a grader on labeled feature vectors.

    Deterministic for a given config: the split shuffle, weight init and
    batch order all come from one generator seeded with ``config.seed``.
    Returns the weights of the epoch with the lowest validation loss.
    """
    if len(dataset) < 2:
        raise ValueError(f"training needs at least 2 samples, got {len(dataset)}")
    mode = dataset[0][0].mode
    if any(fv.mode is not mode for fv, _ in dataset):
        raise ValueError("all feature vectors must share one mode")
    trunk_dims = _check_dims((mode.length, *hidden_dims), mode)

    raw = np.array([fv.values for fv, _ in dataset], dtype=np.float64)
    y_dr_all = np.array([label.dr for _, label in dataset], dtype=np.intp)
    y_dme_all = np.array([label.dme for _, label in dataset], dtype=np.intp)

    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    n_val = min(max(1, round(n * config.validation_fraction)), n - 1)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    shift, scale = _fit_preprocess(raw[train_idx])
    x_all = _standardize(raw, shift, scale).astype(np.float32)  # training runs in float32
    x_train, y_dr_train, y_dme_train = x_all[train_idx], y_dr_all[train_idx], y_dme_all[train_idx]
    x_val, y_dr_val, y_dme_val = x_all[val_idx], y_dr_all[val_idx], y_dme_all[val_idx]

    n_trunk = len(trunk_dims) - 1
    flat = _init_flat(rng, trunk_dims).astype(np.float32)
    params = _views(flat, trunk_dims)  # updated in place through flat
    g = np.empty_like(flat)
    grads = _views(g, trunk_dims)  # written in place by each step
    moments = np.zeros((2, len(flat)), dtype=np.float32)
    adam_m, adam_v = moments
    s1, s2 = np.empty_like(moments)  # scratch
    step = 0

    best_val = np.inf
    best_flat = flat.copy()
    best_epoch = 0

    n_train = len(train_idx)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        xs, dr_ys, dme_ys = x_train[order], y_dr_train[order], y_dme_train[order]
        for start in range(0, n_train, config.batch_size):
            batch = slice(start, start + config.batch_size)
            loss_and_gradients(params, n_trunk, xs[batch], dr_ys[batch], dme_ys[batch], out=grads)
            step += 1
            # Adam is element-wise, so one update over the whole vector gives
            # the same numbers as one per layer.
            _adam_step(flat, g, adam_m, adam_v, s1, s2, step, config.learning_rate)
        # The first moment of a weight whose gradient stays 0 (a dead ReLU)
        # decays by b1 a step into float32 subnormals, which are many times
        # slower to compute with.  Such an entry is flushed to 0 instead.
        moments[(moments != 0.0) & (np.abs(moments) < _FLOAT32_TINY)] = 0.0

        # [:2] drops the cache, so no forward pass outlives its epoch.
        dr_p, dme_p = _forward_batch(params, n_trunk, x_val)[:2]
        val_loss = _mean_loss(dr_p, dme_p, y_dr_val, y_dme_val)
        if val_loss < best_val:
            best_val = val_loss
            best_flat[...] = flat
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    if not np.isfinite(best_val):
        raise ValueError(f"no epoch reached a finite validation loss (learning_rate {config.learning_rate})")

    return GraderModel(
        feature_mode=mode,
        thresholds=thresholds,
        trunk_dims=trunk_dims,
        params=best_flat.astype(np.float64),
        shift=shift,
        scale=scale,
        seed=config.seed,
        training_meta={
            "epochs_run": epoch,  # max_epochs >= 1, so the loop ran
            "best_epoch": best_epoch,
            "best_val_loss": best_val,
            "train_size": int(n_train),
            "val_size": int(n_val),
            "config": config.to_dict(),
        },
    )


def predict_batch(model: GraderModel, features: Sequence[FeatureVector]) -> list[GradePair]:
    """Most probable grade pair for each feature vector, in one forward pass;
    argmax ties resolve to the lower grade."""
    if not features:
        return []
    for fv in features:
        if fv.mode is not model.feature_mode:
            raise ValueError(
                f"feature mode {fv.mode.value} does not match model ({model.feature_mode.value})"
            )
    raw = np.array([fv.values for fv in features], dtype=np.float64)
    x = _standardize(raw, model.shift, model.scale)
    params = _views(model.params, model.trunk_dims)
    dr_probs, dme_probs, _ = _forward_batch(params, len(model.trunk_dims) - 1, x)
    return [
        GradePair(dr=int(d), dme=int(m))
        for d, m in zip(dr_probs.argmax(axis=1), dme_probs.argmax(axis=1))
    ]


# ---------------------------------------------------------------------------
# Persistence


def save_model(model: GraderModel, path: str | Path) -> None:
    """Serialize to JSON.  Float repr round-trips, so load(save(m)) == m."""
    views = _views(model.params, model.trunk_dims)
    layers = [{"weights": w.tolist(), "bias": b.tolist()} for w, b in zip(views[0::2], views[1::2])]
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_mode": model.feature_mode.value,
        "thresholds": list(model.thresholds.as_tuple()),
        "trunk_dims": list(model.trunk_dims),
        "trunk": layers[:-2],
        "dr_head": layers[-2],
        "dme_head": layers[-1],
        "preprocess": {"shift": model.shift.tolist(), "scale": model.scale.tolist()},
        "seed": model.seed,
        "training": model.training_meta,
    }
    Path(path).write_text(_json_text(doc) + "\n", encoding="utf-8")


def _json_text(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=1)``, in about a third of its time.

    ``indent`` makes json use its pure-Python encoder.  Here a list of finite
    floats is joined with ``float.__repr__``, json's own float format, and
    everything else (keys, ints, ``None``, non-finite floats) goes through
    ``json.dumps``.
    """
    inner = indent + " "
    if isinstance(value, dict) and value:
        items = [
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json_text(v, inner)}"
            for k, v in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            items = [_json_text(x, inner) for x in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def _array(doc: object, section: str, key: str) -> np.ndarray:
    """``doc[key]`` as floats.  Its entries must be JSON numbers: numpy would
    read the string ``"12"`` as 12.0 and ``true`` as 1.0."""
    try:
        value = doc[key]
        arr = np.asarray(value, dtype=np.float64)
        rows = value if arr.ndim == 2 else [value] if arr.ndim == 1 else []  # other shapes fail later
        if not all(set(map(type, row)) <= {int, float} for row in rows):
            raise TypeError("entries must be numbers")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past float range
        raise ModelFormatError(f"{section}: bad or missing {key}: {exc}") from None
    return arr


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name)
    if not isinstance(section, dict):
        raise ModelFormatError(f"missing {name} section")
    return section


def _model_from_doc(doc: dict) -> GraderModel:
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not True, not 1.0
        raise ModelFormatError(f"unknown format_version {version!r}")
    try:
        mode = FeatureMode(doc["feature_mode"])
    except (KeyError, ValueError):
        raise ModelFormatError("bad or missing feature_mode") from None
    try:
        values = doc["thresholds"]
        if not (isinstance(values, list) and len(values) == 4):
            raise TypeError("must be a list of 4 integers")
        thresholds = SizeThresholds(*values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad thresholds: {exc}") from None
    try:
        trunk_dims = _check_dims(doc["trunk_dims"], mode)
        trunk = doc["trunk"]
        if not isinstance(trunk, list):
            raise TypeError("trunk must be a list")
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad trunk structure: {exc}") from None

    # Each section must match the layout that trunk_dims implies before the
    # flat vector is built from them.
    layout = _layout(trunk_dims)
    sections = [*trunk, _section(doc, "dr_head"), _section(doc, "dme_head")]
    if len(sections) != len(layout):
        raise ModelFormatError(f"expected {len(layout) - 2} trunk layers, got {len(trunk)}")
    arrays = []
    for section, (name, fan_in, fan_out) in zip(sections, layout):
        for key, want in (("weights", (fan_in, fan_out)), ("bias", (fan_out,))):
            arr = _array(section, name, key)
            if arr.shape != want:
                raise ModelFormatError(f"{name}: {key} shape {arr.shape}, expected {want}")
            arrays.append(arr)
    pre = _section(doc, "preprocess")
    return GraderModel(
        feature_mode=mode,
        thresholds=thresholds,
        trunk_dims=trunk_dims,
        params=np.concatenate(arrays, axis=None),
        shift=_array(pre, "preprocess", "shift"),
        scale=_array(pre, "preprocess", "scale"),
        seed=doc.get("seed"),
        training_meta=doc.get("training"),
    )


def load_model(path: str | Path) -> GraderModel:
    path = Path(path)
    doc = read_json(path, ModelFormatError, "model")
    try:
        return _model_from_doc(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
