import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retsym import (
    FeatureMode,
    FeatureVector,
    GradePair,
    GraderModel,
    ModelFormatError,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train,
)
from retsym.grader import (
    DEFAULT_HIDDEN_DIMS,
    _adam_step,
    _fit_preprocess,
    _forward_batch,
    _init_flat,
    _init_params,
    _json_text,
    _mean_loss,
    _softmax,
    _standardize,
    _views,
    loss_and_gradients,
)

from oracles import ce_loss_from_logits, matmul_loops, running_mean_std


def _simple(*values):
    return FeatureVector(FeatureMode.SIMPLE, values)


def _toy_dataset(n=80, seed=0):
    """Two well-separated clusters: low counts -> (0,0), high -> (1,1)."""
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        if i % 2 == 0:
            values = tuple(int(v) for v in rng.integers(0, 4, size=4))
            label = GradePair(0, 0)
        else:
            values = tuple(int(v) for v in rng.integers(30, 60, size=4))
            label = GradePair(1, 1)
        data.append((_simple(*values), label))
    return data


TINY_DIMS = (16, 8)


def test_grade_pair_validation():
    GradePair(4, 2)
    with pytest.raises(ValueError):
        GradePair(5, 0)
    with pytest.raises(ValueError):
        GradePair(0, 3)
    with pytest.raises(ValueError):
        GradePair(-1, 0)


def test_train_config_validation():
    bad = [
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"dropout_prob": 1.0},
        {"dropout_prob": -0.1},
        {"max_epochs": 0},
        {"patience": 0},
        {"validation_fraction": 0.0},
        {"validation_fraction": 1.0},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig) if isinstance(f.default, float)]


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(_FLOAT_FIELDS),
    value=st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_train_config_float_fields_must_be_finite(field, value):
    try:
        config = TrainConfig(**{field: value})
    except ValueError:
        return
    assert math.isfinite(getattr(config, field))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_training_meta(bad):
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    meta = {**model.training_meta, "best_val_loss": bad}
    with pytest.raises(ModelFormatError, match="training section is not strict JSON"):
        dataclasses.replace(model, training_meta=meta)


def test_softmax_properties():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(7, 5)) * 10
    p = _softmax(z)
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0)
    # shift invariance (the implementation must subtract the max)
    assert np.allclose(_softmax(z + 1000.0), p)


def test_mean_loss_matches_log_sum_exp_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dr_logits = rng.normal(size=(4, 5)) * 3
        dme_logits = rng.normal(size=(4, 3)) * 3
        y_dr = rng.integers(0, 5, size=4)
        y_dme = rng.integers(0, 3, size=4)
        got = _mean_loss(_softmax(dr_logits), _softmax(dme_logits), y_dr, y_dme)
        want = np.mean([
            ce_loss_from_logits(dr_logits[i], dme_logits[i], y_dr[i], y_dme[i])
            for i in range(4)
        ])
        assert got == pytest.approx(want, rel=1e-10)


def test_mean_loss_clamps_zero_probability():
    p_dr = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    p_dme = np.array([[1.0, 0.0, 0.0]])
    value = _mean_loss(p_dr, p_dme, np.array([1]), np.array([1]))
    assert np.isfinite(value)
    assert value == pytest.approx(2 * -np.log(1e-12))


def test_forward_batch_matches_triple_loop_oracle():
    rng = np.random.default_rng(6)
    dims = (4, 5, 3)
    params = _init_params(rng, dims)
    x = rng.normal(size=(6, 4))

    a = x
    for k in range(2):
        z = matmul_loops(a, params[2 * k]) + params[2 * k + 1]
        a = np.where(z > 0, z, 0.0)
    dr_logits = matmul_loops(a, params[4]) + params[5]
    dme_logits = matmul_loops(a, params[6]) + params[7]

    dr_probs, dme_probs, _ = _forward_batch(params, 2, x)
    assert np.allclose(dr_probs, _softmax(dr_logits), atol=1e-12)
    assert np.allclose(dme_probs, _softmax(dme_logits), atol=1e-12)


def _draw_away_from_kinks(seed, dims, batch):
    """Sample (params, x, labels) whose pre-activations avoid the ReLU kink.

    Central differences disagree with the subgradient convention exactly at
    zero pre-activation (which zero biases readily produce), so draws too
    close to the kink are rejected and redrawn deterministically.
    """
    rng = np.random.default_rng(seed)
    n_trunk = len(dims) - 1
    for _ in range(200):
        params = _init_params(rng, dims)
        for i in range(len(params)):
            params[i] = params[i] + rng.normal(scale=0.05, size=params[i].shape)
        x = rng.normal(size=(batch, dims[0]))
        y_dr = rng.integers(0, 5, size=batch)
        y_dme = rng.integers(0, 3, size=batch)
        _, _, cache = _forward_batch(params, n_trunk, x)
        closest = min(float(np.abs(z).min()) for z in cache["pre"])
        if closest > 1e-2:
            return params, x, y_dr, y_dme
    raise AssertionError("could not find a kink-free draw")


def test_gradients_match_central_differences():
    dims = (4, 6, 5)
    n_trunk = len(dims) - 1
    eps = 1e-6
    worst = 0.0
    for trial in range(10):
        params, x, y_dr, y_dme = _draw_away_from_kinks(100 + trial, dims, batch=3)
        _, grads = loss_and_gradients(params, n_trunk, x, y_dr, y_dme)
        rng = np.random.default_rng(trial)
        for i, p in enumerate(params):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                original = flat[idx]
                flat[idx] = original + eps
                up, _ = loss_and_gradients(params, n_trunk, x, y_dr, y_dme)
                flat[idx] = original - eps
                down, _ = loss_and_gradients(params, n_trunk, x, y_dr, y_dme)
                flat[idx] = original
                fd = (up - down) / (2 * eps)
                analytic = grads[i].reshape(-1)[idx]
                scale = max(abs(fd), abs(analytic), 1e-6)
                worst = max(worst, abs(fd - analytic) / scale)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_dropout_mask_law():
    rng = np.random.default_rng(12)
    params = _init_params(rng, (4, 50, 8))
    x = np.abs(rng.normal(size=(20, 4))) + 0.5
    p = 0.25
    _, _, cache = _forward_batch(params, 2, x, dropout_prob=p, rng=np.random.default_rng(0))
    masks = cache["masks"]
    assert all(m is not None for m in masks)
    values = np.unique(np.concatenate([m.reshape(-1) for m in masks]))
    assert set(np.round(values, 12)) <= {0.0, round(1 / (1 - p), 12)}
    kept = np.concatenate([m.reshape(-1) for m in masks]) > 0
    assert abs(kept.mean() - (1 - p)) < 0.03


def test_dropout_requires_rng():
    rng = np.random.default_rng(0)
    params = _init_params(rng, (4, 5))
    with pytest.raises(ValueError, match="rng"):
        _forward_batch(params, 1, np.zeros((2, 4)), dropout_prob=0.5, rng=None)


def _model_probs(model, x):
    """(DR, DME) probabilities of a trained model for standardized inputs."""
    params = _views(model.params, model.trunk_dims)
    dr_probs, dme_probs, _ = _forward_batch(params, len(model.trunk_dims) - 1, x)
    return dr_probs, dme_probs


def test_inference_is_deterministic_despite_dropout_config():
    model = train(_toy_dataset(), TrainConfig(max_epochs=5), hidden_dims=TINY_DIMS)
    assert model.training_meta["config"]["dropout_prob"] > 0
    raw = np.array([[1, 2, 3, 4], [40, 50, 30, 45]], dtype=np.float64)
    x = _standardize(raw, model.shift, model.scale)
    a = _model_probs(model, x)
    b = _model_probs(model, x)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[0].shape == (2, 5) and a[1].shape == (2, 3)
    assert np.allclose(a[0].sum(axis=1), 1.0) and np.allclose(a[1].sum(axis=1), 1.0)
    vectors = [_simple(*(int(v) for v in row)) for row in raw]
    assert predict_batch(model, vectors) == predict_batch(model, vectors)


def test_init_params_bounds_and_shapes():
    rng = np.random.default_rng(3)
    dims = (12, 25, 50)
    params = _init_params(rng, dims)
    assert [p.shape for p in params] == [
        (12, 25), (25,), (25, 50), (50,), (50, 5), (5,), (50, 3), (3,),
    ]
    for w, fan_in in zip(params[0::2], (12, 25, 50, 50)):
        bound = np.sqrt(6.0 / fan_in)
        assert np.abs(w).max() <= bound
    for b in params[1::2]:
        assert np.all(b == 0.0)


def test_fit_preprocess_matches_welford_oracle():
    rng = np.random.default_rng(8)
    raw = rng.integers(0, 100, size=(40, 12)).astype(np.float64)
    shift, scale = _fit_preprocess(raw)
    mean, std = running_mean_std(np.log1p(raw))
    assert np.allclose(shift, mean, atol=1e-12)
    assert np.allclose(scale, std, atol=1e-10)


def test_fit_preprocess_constant_column():
    raw = np.ones((10, 4)) * 7
    shift, scale = _fit_preprocess(raw)
    assert np.allclose(shift, np.log1p(7))
    assert np.all(scale == 1.0)


def test_predict_batch_applies_model_stats():
    model = train(_toy_dataset(), TrainConfig(max_epochs=2), hidden_dims=TINY_DIMS)
    raw = np.array([[3, 0, 7, 1], [50, 41, 33, 59]], dtype=np.float64)
    x = _standardize(raw, model.shift, model.scale)
    want = (np.log1p(raw) - model.shift) / model.scale
    assert np.allclose(x, want)
    dr_probs, dme_probs = _model_probs(model, want)
    expected = [GradePair(int(d), int(m))
                for d, m in zip(dr_probs.argmax(axis=1), dme_probs.argmax(axis=1))]
    assert predict_batch(model, [_simple(*(int(v) for v in row)) for row in raw]) == expected


def test_train_learns_separable_data():
    data = _toy_dataset(n=120)
    model = train(data, TrainConfig(max_epochs=20), hidden_dims=TINY_DIMS)
    predictions = predict_batch(model, [fv for fv, _ in data])
    correct = sum(p == label for p, (_, label) in zip(predictions, data))
    assert correct / len(data) >= 0.95


def test_train_is_deterministic():
    data = _toy_dataset()
    config = TrainConfig(max_epochs=4)
    a = train(data, config, hidden_dims=TINY_DIMS)
    b = train(data, config, hidden_dims=TINY_DIMS)
    assert np.array_equal(a.params, b.params)
    assert a.training_meta == b.training_meta


def test_seed_changes_weights():
    data = _toy_dataset()
    a = train(data, TrainConfig(max_epochs=2, seed=1), hidden_dims=TINY_DIMS)
    b = train(data, TrainConfig(max_epochs=2, seed=2), hidden_dims=TINY_DIMS)
    first_layer = [_views(m.params, m.trunk_dims)[0] for m in (a, b)]
    assert not np.array_equal(*first_layer)


def test_training_meta_contents():
    config = TrainConfig(max_epochs=6, patience=2)
    model = train(_toy_dataset(n=50), config, hidden_dims=TINY_DIMS)
    meta = model.training_meta
    assert meta["train_size"] == 40 and meta["val_size"] == 10
    assert 1 <= meta["best_epoch"] <= meta["epochs_run"] <= 6
    assert meta["config"] == config.to_dict()
    assert np.isfinite(meta["best_val_loss"])
    assert model.seed == config.seed


def _noise_dataset(n=60, seed=31):
    """Random labels: validation loss can only fluctuate, so patience fires."""
    rng = np.random.default_rng(seed)
    return [
        (_simple(*(int(v) for v in rng.integers(0, 50, size=4))),
         GradePair(int(rng.integers(0, 5)), int(rng.integers(0, 3))))
        for _ in range(n)
    ]


@pytest.mark.parametrize("patience", [1, 3])
def test_early_stopping_respects_patience(patience):
    config = TrainConfig(max_epochs=50, patience=patience)
    meta = train(_noise_dataset(), config, hidden_dims=TINY_DIMS).training_meta
    assert meta["epochs_run"] < 50
    assert meta["epochs_run"] == meta["best_epoch"] + patience


def _gradients_reference(params, n_trunk, x, y_dr, y_dme, dropout_prob, rng):
    """Per-layer forward pass (one dropout draw per layer) and backward pass
    into freshly allocated arrays, as training ran before it wrote into one
    buffer."""
    inputs, pre, masks = [], [], []
    a = x
    for k in range(n_trunk):
        z = a @ params[2 * k] + params[2 * k + 1]
        inputs.append(a)
        pre.append(z)
        a = np.maximum(z, 0.0)
        mask = None
        if dropout_prob > 0.0:
            mask = (rng.random(a.shape) >= dropout_prob) / (1.0 - dropout_prob)
            a = a * mask
        masks.append(mask)
    w_dr, b_dr, w_dme, b_dme = params[2 * n_trunk : 2 * n_trunk + 4]
    n = len(y_dr)
    g_dr = _softmax(a @ w_dr + b_dr)
    g_dr[np.arange(n), y_dr] -= 1.0
    g_dr /= n
    g_dme = _softmax(a @ w_dme + b_dme)
    g_dme[np.arange(n), y_dme] -= 1.0
    g_dme /= n
    heads = [a.T @ g_dr, g_dr.sum(axis=0), a.T @ g_dme, g_dme.sum(axis=0)]
    d_a = g_dr @ w_dr.T + g_dme @ w_dme.T
    trunk = []
    for k in range(n_trunk - 1, -1, -1):
        if masks[k] is not None:
            d_a = d_a * masks[k]
        d_z = d_a * (pre[k] > 0.0)
        trunk[:0] = [inputs[k].T @ d_z, d_z.sum(axis=0)]
        d_a = d_z @ params[2 * k].T
    return trunk + heads


def _train_reference(dataset, config, hidden_dims):
    """``train`` as an allocate-per-step loop: a new gradient vector by
    concatenation and Adam as one vector expression.  Returns the best
    parameters and the training_meta."""
    raw = np.array([fv.values for fv, _ in dataset], dtype=np.float64)
    y_dr_all = np.array([label.dr for _, label in dataset], dtype=np.intp)
    y_dme_all = np.array([label.dme for _, label in dataset], dtype=np.intp)
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    n_val = min(max(1, round(n * config.validation_fraction)), n - 1)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    shift, scale = _fit_preprocess(raw[train_idx])
    x_all = _standardize(raw, shift, scale)
    x_train, y_dr_train, y_dme_train = x_all[train_idx], y_dr_all[train_idx], y_dme_all[train_idx]
    x_val, y_dr_val, y_dme_val = x_all[val_idx], y_dr_all[val_idx], y_dme_all[val_idx]

    trunk_dims = (dataset[0][0].mode.length, *hidden_dims)
    n_trunk = len(trunk_dims) - 1
    flat = _init_flat(rng, trunk_dims)
    params = _views(flat, trunk_dims)
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    step = 0
    best_val, best_flat, best_epoch, epochs_since_best, epochs_run = np.inf, flat.copy(), 0, 0, 0
    n_train = len(train_idx)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = _gradients_reference(params, n_trunk, x_train[batch], y_dr_train[batch],
                                         y_dme_train[batch], config.dropout_prob, rng)
            g = np.concatenate(grads, axis=None)
            step += 1
            adam_m = 0.9 * adam_m + (1.0 - 0.9) * g
            adam_v = 0.999 * adam_v + (1.0 - 0.999) * g * g
            m_hat = adam_m / (1.0 - 0.9**step)
            v_hat = adam_v / (1.0 - 0.999**step)
            flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        dr_p, dme_p, _ = _forward_batch(params, n_trunk, x_val)
        val_loss = _mean_loss(dr_p, dme_p, y_dr_val, y_dme_val)
        epochs_run = epoch
        if val_loss < best_val:
            best_val, best_flat, best_epoch, epochs_since_best = val_loss, flat.copy(), epoch, 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    meta = {"epochs_run": epochs_run, "best_epoch": best_epoch, "best_val_loss": best_val,
            "train_size": int(n_train), "val_size": int(n_val), "config": config.to_dict()}
    return best_flat, meta


@pytest.mark.parametrize(
    "hidden_dims,batch_size,patience",
    [(TINY_DIMS, 10, 2), (DEFAULT_HIDDEN_DIMS, 7, 1)],
)
def test_train_matches_allocating_reference(hidden_dims, batch_size, patience):
    # 60 rows: 48 train, so neither batch size divides it; random labels make
    # early stopping fire.
    data = _noise_dataset()
    config = TrainConfig(max_epochs=40, batch_size=batch_size, patience=patience,
                         dropout_prob=0.1)
    model = train(data, config, hidden_dims=hidden_dims)
    want_params, want_meta = _train_reference(data, config, hidden_dims)
    assert model.training_meta["train_size"] % batch_size != 0
    assert model.training_meta["epochs_run"] < config.max_epochs
    assert np.array_equal(model.params, want_params)
    assert model.training_meta == want_meta


@pytest.mark.parametrize("step", [1, 355, 356, 4800])
def test_adam_step_matches_textbook_update(step):
    # From step 356 on, 1 - 0.9**step is exactly 1.0 and m_hat is m itself.
    assert (1.0 - 0.9**step == 1.0) == (step >= 356)
    rng = np.random.default_rng(step)
    flat, g, m = (rng.normal(size=500) for _ in range(3))
    v, lr = rng.random(500), 3e-3
    want_m = 0.9 * m + (1.0 - 0.9) * g
    want_v = 0.999 * v + (1.0 - 0.999) * g * g
    m_hat = want_m / (1.0 - 0.9**step)
    v_hat = want_v / (1.0 - 0.999**step)
    want_flat = flat - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    _adam_step(flat, g, m, v, np.empty(500), np.empty(500), step, lr)
    assert np.array_equal(flat, want_flat)
    assert np.array_equal(m, want_m) and np.array_equal(v, want_v)


def test_loss_and_gradients_writes_into_out():
    rng = np.random.default_rng(5)
    dims = (4, 6, 5)
    params = _init_params(rng, dims)
    x = rng.normal(size=(3, 4))
    y_dr, y_dme = rng.integers(0, 5, size=3), rng.integers(0, 3, size=3)
    fresh = loss_and_gradients(params, 2, x, y_dr, y_dme, 0.3, np.random.default_rng(1))
    buffer = np.full(sum(p.size for p in params), np.nan)
    out = _views(buffer, dims)
    into = loss_and_gradients(params, 2, x, y_dr, y_dme, 0.3, np.random.default_rng(1), out=out)
    assert into[0] == fresh[0] and into[1] is out
    assert np.array_equal(buffer, np.concatenate(fresh[1], axis=None))


def test_train_input_validation():
    data = _toy_dataset(n=10)
    with pytest.raises(ValueError, match="at least 2"):
        train(data[:1], TrainConfig())
    mixed = data + [(FeatureVector(FeatureMode.EXTENDED, (0,) * 12), GradePair(0, 0))]
    with pytest.raises(ValueError, match="mode"):
        train(mixed, TrainConfig(max_epochs=1))


def test_predict_matches_predict_batch():
    data = _toy_dataset(n=40)
    model = train(data, TrainConfig(max_epochs=5), hidden_dims=TINY_DIMS)
    vectors = [fv for fv, _ in data[:15]]
    batched = predict_batch(model, vectors)
    assert batched == [predict_batch(model, [fv])[0] for fv in vectors]
    assert predict_batch(model, []) == []


def test_predict_batch_mode_mismatch():
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    with pytest.raises(ValueError, match="mode"):
        predict_batch(model, [FeatureVector(FeatureMode.EXTENDED, (0,) * 12)])


def test_save_load_round_trip(tmp_path):
    model = train(_toy_dataset(), TrainConfig(max_epochs=3), hidden_dims=TINY_DIMS)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.feature_mode is model.feature_mode
    assert again.trunk_dims == model.trunk_dims
    assert again.thresholds == model.thresholds
    assert again.seed == model.seed
    for a, b in ((model.params, again.params), (model.shift, again.shift),
                 (model.scale, again.scale)):
        assert np.array_equal(a, b)
    fv = _simple(9, 9, 9, 9)
    assert predict_batch(model, [fv]) == predict_batch(again, [fv])
    assert again.training_meta == model.training_meta


def test_load_model_errors(tmp_path):
    path = tmp_path / "m.json"

    path.write_text("{ not json")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(path)

    path.write_text("[]")
    with pytest.raises(ModelFormatError, match="object"):
        load_model(path)

    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    save_model(model, path)
    doc = json.loads(path.read_text())

    for version in (99, True, 1.0, "1"):  # only the integer 1 is version 1
        path.write_text(json.dumps(dict(doc, format_version=version)))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    doc_bad = dict(doc)
    del doc_bad["dr_head"]
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ModelFormatError, match="dr_head"):
        load_model(path)

    doc_bad = dict(doc, feature_mode="fancy")
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ModelFormatError, match="feature_mode"):
        load_model(path)

    with pytest.raises(ModelFormatError, match="exist"):
        load_model(tmp_path / "missing.json")


def test_load_model_rejects_transposed_trunk_weights(tmp_path):
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    for layer in doc["trunk"]:
        layer["weights"] = np.array(layer["weights"]).T.tolist()  # wrong orientation
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="trunk layer 0: weights shape"):
        load_model(path)


def test_model_rejects_params_of_wrong_length():
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    with pytest.raises(ModelFormatError, match="params shape"):
        GraderModel(
            feature_mode=model.feature_mode,
            thresholds=model.thresholds,
            trunk_dims=model.trunk_dims,
            params=model.params[:-1],
            shift=model.shift,
            scale=model.scale,
        )


@pytest.mark.parametrize("field,bad", [("params", -np.inf), ("shift", np.nan), ("scale", np.inf)])
def test_model_rejects_non_finite_values(field, bad):
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=TINY_DIMS)
    fields = {"params": model.params.copy(), "shift": model.shift.copy(),
              "scale": model.scale.copy()}
    fields[field][0] = bad
    with pytest.raises(ModelFormatError, match=f"{field} holds a non-finite value"):
        GraderModel(feature_mode=model.feature_mode, thresholds=model.thresholds,
                    trunk_dims=model.trunk_dims, **fields)


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.integers() | st.booleans(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(training=_JSON_VALUES)
def test_json_text_matches_json_dumps(training):
    doc = {"weights": [[0.5, -0.0, 1e-300], []], "bias": [1e300], "seed": None,
           "training": training}
    assert _json_text(doc) == json.dumps(doc, indent=1)


def test_model_file_is_json_dumps_text(tmp_path):
    model = train(_toy_dataset(n=40), TrainConfig(max_epochs=2), hidden_dims=TINY_DIMS)
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


def test_params_views_follow_the_json_sections(tmp_path):
    model = train(_toy_dataset(), TrainConfig(max_epochs=1), hidden_dims=(16, 8))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    sections = doc["trunk"] + [doc["dr_head"], doc["dme_head"]]
    want = [np.array(s[key]) for s in sections for key in ("weights", "bias")]
    got = _views(model.params, model.trunk_dims)
    assert [v.shape for v in got] == [w.shape for w in want]
    for v, w in zip(got, want):
        assert v.flags.c_contiguous and np.shares_memory(v, model.params)
        assert np.array_equal(v, w)
