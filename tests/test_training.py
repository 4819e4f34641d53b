"""Training loop, optimizer semantics, evaluation, and gradient verification."""

import collections
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import baselines, models, tifo, training
from specshift.baselines import FanConfig, SanConfig
from specshift.data import build_dataset
from specshift.errors import ConfigError, DataError, NumericError
from specshift.models import BackboneConfig
from specshift.spectral import dft_forward, dft_forward_adjoint, dft_inverse, n_bins
from specshift.stationarity import amplitude_panel, ema_refresh
from specshift.tifo import TifoConfig
from specshift.training import (
    COMPOSITION,
    Adam,
    PipelineConfig,
    TensorGroup,
    TrainConfig,
    build_pipeline,
    evaluate,
    fit_score_table,
    train,
    train_san_predictor,
)

from oracles import finite_diff_check, mae, mse


def make_pipeline(method, backbone="linear", lookback=8, horizon=4, channels=1,
                  seed=0, n=24, keep=None, alpha=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, lookback, channels))
    y = rng.normal(size=(n, horizon, channels))
    cfg = PipelineConfig(
        method=method,
        backbone=BackboneConfig(
            kind=backbone, lookback=lookback, horizon=horizon,
            channels=channels, kernel=3,
        ),
        tifo=TifoConfig(hidden=6, alpha=alpha, keep=keep),
        san=SanConfig(patch=4, hidden=8, epochs=2),
        fan=FanConfig(topk=2, hidden1=8, hidden2=8),
    )
    pipe = build_pipeline(cfg, np.random.default_rng(seed + 1), x, y)
    return pipe, x, y


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_mse_zero_when_equal():
    a = np.arange(6.0).reshape(2, 3)
    assert mse(a, a) == 0.0
    assert mae(a, a) == 0.0


def test_mse_hand_value():
    assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)


def test_training_loss_is_the_mean_bit_for_bit():
    # history.csv prints this loss; its form may change, its bits may not
    rng = np.random.default_rng(8)
    for shape in [(1,), (3, 5), (32, 6, 1), (32, 24, 7), (7, 2, 48, 3)]:
        pred, target = rng.normal(size=(2, *shape)) * 10.0 ** rng.integers(-4, 5)
        err = pred - target
        assert training._mse_upstream(pred, target)[0] == float(np.mean(err * err)), shape


def test_mae_hand_value():
    assert mae(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(1.5)


def test_mse_quadratic_homogeneity():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 5, 4))
    c = 3.7
    assert mse(c * a, c * b) == pytest.approx(c * c * mse(a, b), rel=1e-12)
    assert mae(c * a, c * b) == pytest.approx(c * mae(a, b), rel=1e-12)


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mae(np.zeros((2, 3)), np.zeros(6))


def test_mae_bounded_by_root_mse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.normal(size=(2, 7, 3))
        assert mae(a, b) <= np.sqrt(mse(a, b)) + 1e-12


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = TensorGroup({"w": np.array([1.0, -2.0])})
    adam = Adam(params, lr=0.1)
    assert adam.step({"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_is_lr_times_sign():
    # at t=1 bias correction gives m_hat/sqrt(v_hat) = g/|g|
    g = np.array([0.2, -0.03, 1.7])
    params = TensorGroup({"w": np.zeros(3)})
    adam = Adam(params, lr=1e-2)
    adam.step({"w": g.copy()})
    np.testing.assert_allclose(params["w"], -1e-2 * np.sign(g), rtol=1e-6)


def test_adam_rejects_nonfinite_gradients():
    params = TensorGroup({"w": np.array([1.0, 2.0]), "b": np.array([0.5])})
    adam = Adam(params, lr=0.1)
    before = {k: v.copy() for k, v in params.items()}
    ok = adam.step({"w": np.array([np.nan, 1.0]), "b": np.array([0.0])})
    assert not ok
    assert adam.t == 0  # rejected steps do not advance the counter
    for k in params:
        np.testing.assert_array_equal(params[k], before[k])
    assert adam.step({"w": np.array([1.0, 1.0]), "b": np.array([1.0])})
    assert adam.t == 1


def test_adam_deterministic():
    g_seq = [np.array([0.3, -0.2]), np.array([-0.1, 0.4])]

    def run():
        params = TensorGroup({"w": np.array([1.0, -1.0])})
        adam = Adam(params, lr=0.05)
        for g in g_seq:
            adam.step({"w": g.copy()})
        return params["w"]

    np.testing.assert_array_equal(run(), run())


class _PerTensorAdam:
    """Reference: Adam applied tensor by tensor, with its own moments."""

    def __init__(self, params, lr):
        self.lr, self.t = lr, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        if not all(np.isfinite(grads[k]).all() for k in params):
            return False
        self.t += 1
        c1, c2 = 1.0 - 0.9**self.t, 1.0 - 0.999**self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        return True


def _tifo_grads(pipe, x, y):
    return lambda: pipe.loss_grads(x, y)[1]


def _san_predictor_grads(pipe, x, y):
    group = pipe.norm.frozen
    mu_x, var_x = baselines.san_patch_stats(x, 4)
    mu_y, var_y = baselines.san_patch_stats(y, 4)

    def grads():
        mu_hat, var_hat, cache = baselines.san_predict(group, mu_x, var_x)
        return baselines.san_predict_vjp(group, cache, (2.0 / mu_hat.size) * (mu_hat - mu_y),
                                         (2.0 / var_hat.size) * (var_hat - var_y))

    return grads


@pytest.mark.parametrize("method,group_of,grads_of", [
    pytest.param("tifo", lambda p: p.params, _tifo_grads, id="tifo-model"),
    pytest.param("san", lambda p: p.norm.frozen, _san_predictor_grads, id="san-predictor"),
])
def test_flat_adam_matches_per_tensor_reference(method, group_of, grads_of):
    pipe, x, y = make_pipeline(method, channels=2, seed=4, n=16)
    group = group_of(pipe)
    reference = {k: v.copy() for k, v in group.items()}
    flat, ref = Adam(group, lr=0.01), _PerTensorAdam(reference, lr=0.01)
    grads = grads_of(pipe, x, y)
    for step in range(7):
        g = grads()
        if step == 3:  # one non-finite entry rejects the whole step on both sides
            g[next(iter(g))].flat[0] = np.nan
        assert flat.step(g) is ref.step(reference, g) is (step != 3)
        for k in group:
            np.testing.assert_array_equal(group[k], reference[k], err_msg=f"step {step} {k}")
    assert flat.t == ref.t == 6


def _assert_views_of_one_vector(pipe):
    """Every trainable tensor is the next slice of ``params.vector`` and the
    owning block's dict holds the same view; so are SAN's predictor tensors."""
    groups = [(pipe.params, {"backbone": pipe.backbone.params,
                             pipe.norm.name: pipe.norm.params,
                             "tifo": pipe.tifo.params if pipe.tifo is not None else {}})]
    if pipe.method in ("san", "tifo+san"):
        assert isinstance(pipe.norm.frozen, TensorGroup)
        groups.append((pipe.norm.frozen, {"": pipe.norm.frozen}))
        for k, view in pipe.norm.frozen.items():
            assert pipe.frozen[f"{pipe.norm.name}.{k}"] is view
    for group, owners in groups:
        start = group.vector.__array_interface__["data"][0]
        offset = 0
        for name, view in group.items():
            assert view.base is group.vector and view.flags.c_contiguous, name
            assert view.__array_interface__["data"][0] == start + 8 * offset, name
            offset += view.size
        assert offset == group.vector.size
        owned = {f"{p}.{k}" if p else k: v for p, d in owners.items() for k, v in d.items()}
        assert owned.keys() == group.keys()
        for name, view in owned.items():
            assert group[name] is view, name


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
def test_params_are_views_of_one_vector(method):
    pipe, x, y = make_pipeline(method, backbone="dlinear", channels=2, n=16)
    _assert_views_of_one_vector(pipe)
    twin, _, _ = make_pipeline(method, backbone="dlinear", channels=2, seed=3, n=16)
    twin.load_tensors(pipe.tensors())
    _assert_views_of_one_vector(twin)
    np.testing.assert_array_equal(twin.params.vector, pipe.params.vector)
    cfg = TrainConfig(lr=0.05, batch=4, max_epochs=4, patience=4)
    result = train(pipe, x[:12], y[:12], x[12:], y[12:], cfg, np.random.default_rng(5))
    _assert_views_of_one_vector(pipe)
    assert evaluate(pipe, x[12:], y[12:])["mse"] == result.best_val_mse


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def test_train_config_validation():
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)


def test_constant_val_loss_stops_after_two_epochs():
    # all-zero data sits at the loss minimum, so validation never improves
    # past epoch 1; patience=1 must then stop at exactly epoch 2
    pipe, _, _ = make_pipeline("none", n=12)
    x = np.zeros((12, 8, 1))
    y = np.zeros((12, 4, 1))
    cfg = TrainConfig(lr=1e-3, batch=4, max_epochs=10, patience=1)
    result = train(pipe, x, y, x, y, cfg, np.random.default_rng(0))
    assert result.epochs_run == 2
    assert len(result.history) == 3  # init row + two epochs
    assert result.best_epoch == 1


def test_copy_task_trains_to_near_zero():
    # period-8 series: the window 8 steps ahead equals the current one, so a
    # linear readout of the first horizon entries is exact
    rng = np.random.default_rng(5)
    base = rng.normal(size=8)
    phases = np.arange(40) % 8
    x = np.stack([[base[(p + j) % 8] for j in range(8)] for p in phases])[..., None]
    y = np.stack([[base[(p + 8 + j) % 8] for j in range(4)] for p in phases])[..., None]
    pipe, _, _ = make_pipeline("none")
    cfg = TrainConfig(lr=0.05, batch=8, max_epochs=200, patience=200)
    train(pipe, x[:32], y[:32], x[32:], y[32:], cfg, np.random.default_rng(1))
    assert evaluate(pipe, x[:32], y[:32])["mse"] < 1e-3


def test_train_deterministic():
    def run():
        pipe, x, y = make_pipeline("tifo", seed=4, n=20)
        cfg = TrainConfig(lr=1e-2, batch=8, max_epochs=4, patience=4)
        result = train(pipe, x[:16], y[:16], x[16:], y[16:], cfg,
                       np.random.default_rng(7))
        return result.history, evaluate(pipe, x[16:], y[16:])

    h1, m1 = run()
    h2, m2 = run()
    assert m1 == m2
    for r1, r2 in zip(h1, h2):
        for key in ("val_mse", "val_mae", "rejected"):
            assert r1[key] == r2[key]


def test_best_restore_matches_history_minimum():
    pipe, x, y = make_pipeline("none", seed=9, n=30)
    cfg = TrainConfig(lr=0.05, batch=8, max_epochs=12, patience=12)
    result = train(pipe, x[:24], y[:24], x[24:], y[24:], cfg,
                   np.random.default_rng(2))
    best = min(row["val_mse"] for row in result.history[1:])
    assert result.best_val_mse == best
    assert evaluate(pipe, x[24:], y[24:])["mse"] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("split, message", [
    (lambda x, y: (x[:4], y[:8]), "x has 4 windows and y has 8"),
    (lambda x, y: (x[:0], y[:0]), "x has 0 windows and y has 0"),
], ids=["mismatched", "empty"])
def test_evaluate_rejects_a_bad_split(split, message):
    pipe, x, y = make_pipeline("none")
    with pytest.raises(DataError, match=message):
        evaluate(pipe, *split(x, y), batch=2)


@pytest.mark.parametrize("splits, message", [
    (lambda x, y: (x[:12], y, x[12:], y[12:]), "x_train has 12 windows and y_train has 24"),
    (lambda x, y: (x, y[:12], x[12:], y[12:]), "x_train has 24 windows and y_train has 12"),
    (lambda x, y: (x[:12], y[:12], x[12:], y[12:20]), "x_val has 12 windows and y_val has 8"),
    (lambda x, y: (x[:12], y[:12], x[:0], y[:0]), "x_val has 0 windows and y_val has 0"),
], ids=["surplus y_train", "short y_train", "short y_val", "empty val"])
def test_train_rejects_a_bad_split(splits, message):
    pipe, x, y = make_pipeline("san")
    before = {name: arr.copy() for name, arr in pipe.tensors().items()}
    cfg = TrainConfig(max_epochs=1, patience=1)
    with pytest.raises(DataError, match=message):
        train(pipe, *splits(x, y), cfg, np.random.default_rng(0))
    assert all(np.array_equal(arr, before[name]) for name, arr in pipe.tensors().items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the infinite weight makes NaN on purpose
def test_nan_loss_aborts():
    pipe, x, y = make_pipeline("none", n=12)
    next(iter(pipe.params.values()))[...] = np.inf
    cfg = TrainConfig(lr=1e-3, batch=4, max_epochs=2, patience=2)
    with pytest.raises(NumericError):
        train(pipe, x, y, x, y, cfg, np.random.default_rng(0))


def test_nonfinite_gradients_counted_as_rejected():
    pipe, x, y = make_pipeline("none", n=12)
    real = pipe.loss_grads
    calls = {"n": 0}

    def poisoned(xb, yb):
        loss, grads = real(xb, yb)
        if calls["n"] == 0:
            grads = {k: np.full_like(v, np.nan) for k, v in grads.items()}
        calls["n"] += 1
        return loss, grads

    pipe.loss_grads = poisoned
    cfg = TrainConfig(lr=1e-3, batch=4, max_epochs=1, patience=1)
    result = train(pipe, x, y, x, y, cfg, np.random.default_rng(0))
    assert result.history[1]["rejected"] == 1
    assert result.epochs_run == 1


def test_identity_start_matches_plain_at_epoch_zero():
    # output-bias-1 init makes the spectral weighting exactly identity, and
    # the backbone consumes the rng stream first, so the two methods start
    # from the same forecasts
    rng = np.random.default_rng(14)
    x = rng.normal(size=(20, 8, 2))
    y = rng.normal(size=(20, 4, 2))
    bb = BackboneConfig(kind="linear", lookback=8, horizon=4, channels=2)
    plain = build_pipeline(PipelineConfig(method="none", backbone=bb),
                           np.random.default_rng(3))
    spectral = build_pipeline(
        PipelineConfig(method="tifo", backbone=bb, tifo=TifoConfig(hidden=6)),
        np.random.default_rng(3), x, y,
    )
    ev_plain = evaluate(plain, x, y)
    ev_spec = evaluate(spectral, x, y)
    assert abs(ev_plain["mse"] - ev_spec["mse"]) <= 1e-8
    assert abs(ev_plain["mae"] - ev_spec["mae"]) <= 1e-8


def test_san_predictor_frozen_during_main_loop():
    # stage one fits the patch predictor; the main loop must not move it
    pipe, x, y = make_pipeline("san", seed=6, n=20)
    twin, _, _ = make_pipeline("san", seed=6, n=20)
    rng_full = np.random.default_rng(8)
    rng_stage1 = np.random.default_rng(8)
    cfg = TrainConfig(lr=1e-2, batch=8, max_epochs=3, patience=3)
    train(pipe, x[:16], y[:16], x[16:], y[16:], cfg, rng_full)
    train_san_predictor(twin, x[:16], y[:16], cfg, rng_stage1)
    for name in pipe.frozen:
        np.testing.assert_array_equal(pipe.frozen[name], twin.frozen[name])
    init, _, _ = make_pipeline("san", seed=6, n=20)
    moved = any(
        not np.array_equal(pipe.frozen[name], init.frozen[name])
        for name in pipe.frozen
    )
    assert moved  # stage one actually trained something


def test_nonfinite_stage_one_gradients_counted_in_row_zero(monkeypatch):
    pipe, x, y = make_pipeline("san", seed=6, n=20)
    real = baselines.san_predict_vjp
    calls = []

    def poisoned(*args):
        grads = real(*args)
        if not calls:
            grads = {k: np.full_like(v, np.nan) for k, v in grads.items()}
        calls.append(1)
        return grads

    monkeypatch.setattr(baselines, "san_predict_vjp", poisoned)
    cfg = TrainConfig(lr=1e-2, batch=8, max_epochs=2, patience=2)
    result = train(pipe, x[:16], y[:16], x[16:], y[16:], cfg, np.random.default_rng(8))
    assert [row["rejected"] for row in result.history] == [1, 0, 0]
    assert result.epochs_run == 2
    assert len(calls) == 2 * 2  # two stage-one epochs of two batches


def test_nonfinite_stage_one_loss_names_the_stage():
    pipe, x, y = make_pipeline("san", seed=6, n=20)
    pipe.norm.frozen["mu.b2"][...] = np.nan
    cfg = TrainConfig(lr=1e-2, batch=8, max_epochs=2, patience=2)
    with pytest.raises(NumericError, match="SAN stage one epoch 1, batch 0"):
        train(pipe, x[:16], y[:16], x[16:], y[16:], cfg, np.random.default_rng(8))


def test_fan_splits_training_targets_once(monkeypatch):
    # lookback 8, horizon 4: the target splits are the horizon-length calls
    pipe, x, y = make_pipeline("fan", n=20)
    shapes = []
    real = baselines.main_frequency_split

    def recorded(arr, k):
        shapes.append(np.shape(arr))
        return real(arr, k)

    monkeypatch.setattr(baselines, "main_frequency_split", recorded)
    cfg = TrainConfig(lr=1e-3, batch=4, max_epochs=3, patience=3)
    train(pipe, x, y, x, y, cfg, np.random.default_rng(0))
    assert [s for s in shapes if s[1] == 4] == [(20, 4, 1)]


def test_fan_targets_of_a_split_slice_like_per_batch_splits():
    pipe, x, y = make_pipeline("fan", channels=3, n=40)
    whole = pipe.norm.targets(y)
    assert whole.shape == (40, 2, *y.shape[1:])
    sel = np.random.default_rng(0).permutation(40)[:7]
    np.testing.assert_array_equal(whole[sel], pipe.norm.targets(y[sel]))
    loss, grads = pipe.loss_grads(x[sel], pipe.norm.targets(y[sel]))
    loss_t, grads_t = pipe.loss_grads(x[sel], whole[sel])
    with pytest.raises(ValueError, match="shape mismatch"):  # raw windows are not FAN targets
        pipe.loss_grads(x[sel], y[sel])
    assert loss_t == loss
    for name in grads:
        np.testing.assert_array_equal(grads_t[name], grads[name])


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _short_train(pipe, x, y, epochs=3, lr=1e-2):
    cfg = TrainConfig(lr=lr, batch=8, max_epochs=epochs, patience=epochs)
    train(pipe, x, y, x, y, cfg, np.random.default_rng(21))


def test_alpha_zero_equals_bare_backbone():
    pipe, x, y = make_pipeline("tifo", seed=12, n=24)
    _short_train(pipe, x, y)
    ev = evaluate(pipe, x, y, alpha=0.0)
    assert ev["mse"] == pytest.approx(mse(pipe.backbone.forward(x)[0], y), abs=1e-10)
    assert ev["mae"] == pytest.approx(mae(pipe.backbone.forward(x)[0], y), abs=1e-10)
    # and it differs from the trained weighting at full strength
    assert abs(evaluate(pipe, x, y)["mse"] - ev["mse"]) > 1e-8


def test_alpha_and_ema_rejected_for_plain_methods():
    pipe, x, y = make_pipeline("none", n=12)
    with pytest.raises(ConfigError):
        evaluate(pipe, x, y, alpha=0.5)
    with pytest.raises(ConfigError):
        evaluate(pipe, x, y, ema_decay=0.9)
    rev, x2, y2 = make_pipeline("revin", n=12)
    with pytest.raises(ConfigError):
        evaluate(rev, x2, y2, alpha=1.0)


def test_evaluate_rejects_alpha_and_ema_decay_out_of_range():
    pipe, x, y = make_pipeline("tifo", n=12)
    for alpha in (1.2, -0.1):
        with pytest.raises(ConfigError, match="alpha"):
            evaluate(pipe, x, y, alpha=alpha)
    for decay in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match="ema_decay"):
            evaluate(pipe, x, y, ema_decay=decay)


def test_ema_decay_near_one_is_no_refresh():
    pipe, x, y = make_pipeline("tifo", seed=12, n=24)
    _short_train(pipe, x, y)
    plain = evaluate(pipe, x, y)
    near_one = evaluate(pipe, x, y, ema_decay=1 - 1e-12)
    assert near_one["mse"] == pytest.approx(plain["mse"], abs=1e-8)
    stored = pipe.tifo.scores.copy()
    evaluate(pipe, x, y, ema_decay=0.5)
    np.testing.assert_array_equal(pipe.tifo.scores, stored)  # refresh is transient


@pytest.mark.parametrize("method", ["tifo", "tifo+san"])
def test_ema_evaluate_one_window_tail_keeps_running_scores(method):
    # 25 windows in batches of 8 leave a one-window batch, which has no
    # spread to score: it is forecast with the scores the first three left
    pipe, x, y = make_pipeline(method, seed=12, n=25)
    _short_train(pipe, x, y)
    got = evaluate(pipe, x, y, batch=8, ema_decay=0.9)
    running = pipe.tifo.scores.copy()
    sq = ab = 0.0
    for start in range(0, 25, 8):
        x_n, ctx = pipe.norm.enter(x[start : start + 8])
        if start < 24:
            running = ema_refresh(running, pipe.tifo.fit_scores(x_n, y[start : start + 8]), 0.9)
        err = pipe.head(x_n, ctx, pipe.tifo.weights(None, running)) - y[start : start + 8]
        sq += float((err * err).sum())
        ab += float(np.abs(err).sum())
    assert got["mse"] == sq / y.size
    assert got["mae"] == ab / y.size


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
def test_calls_leave_pipeline_attributes_bound(method):
    # per-call state (normalization statistics) goes back to the caller, so
    # calls can nest or interleave: no attribute of the pipeline is rebound
    pipe, x, y = make_pipeline(method, channels=2)
    before = dict(vars(pipe))
    pipe.predict(x)
    pipe.transformed_input(x)
    pipe.loss_grads(x, pipe.norm.targets(y))
    evaluate(pipe, x, y, batch=7)
    if pipe.tifo is not None:
        evaluate(pipe, x, y, batch=7, alpha=0.5, ema_decay=0.9)
    assert vars(pipe).keys() == before.keys()
    for name, value in before.items():
        assert vars(pipe)[name] is value, name


def test_ema_evaluate_normalizes_each_batch_once(monkeypatch):
    pipe, x, y = make_pipeline("tifo+san", n=24)
    calls = {"n": 0}
    real = baselines.san_patch_stats

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "san_patch_stats", counted)
    evaluate(pipe, x, y, batch=7, ema_decay=0.9)
    assert calls["n"] == 4  # one per batch of 7 over 24 windows


@pytest.mark.parametrize("n, ema_decay, tables", [(24, None, 1), (24, 0.9, 4), (22, 0.9, 3)])
def test_evaluate_forms_one_table_per_score_table(monkeypatch, n, ema_decay, tables):
    # batches of 7: without EMA the split has one score table; with it each
    # batch of at least two windows refreshes it, and a one-window tail
    # (22 = 3 * 7 + 1) reuses the last table
    pipe, x, y = make_pipeline("tifo", n=n)
    calls = {"n": 0}
    real = tifo.weights_forward

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tifo, "weights_forward", counted)
    evaluate(pipe, x, y, batch=7, ema_decay=ema_decay)
    assert calls["n"] == tables


@pytest.mark.parametrize("alpha, keep", [(0.5, None), (0.25, 3), (1.0, 3)])
def test_tifo_vjp_follows_the_alpha_of_its_table(alpha, keep):
    # the layer is configured at alpha 1.0; forward runs with a table at
    # another alpha, and vjp must differentiate that table, not the config
    pipe, x, _ = make_pipeline("tifo", channels=2, keep=keep)
    _perturb_tifo(pipe)
    layer = pipe.tifo
    g = np.random.default_rng(5).normal(size=x.shape)

    def objective():
        return float(np.vdot(g, tifo.transform(x, *layer.weights(alpha)[:2])[0]))

    weights = layer.weights(alpha)
    grads = layer.vjp(tifo.transform(x, *weights[:2])[1], weights, g)
    eps = 1e-6
    for name, arr in layer.params.items():
        flat = arr.ravel()
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = objective()
            flat[i] = orig - eps
            down = objective()
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * eps)
        np.testing.assert_allclose(grads[name].ravel(), numeric, rtol=1e-6, atol=1e-8, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(["tifo", "tifo+san"]), kind=st.sampled_from(["linear", "dlinear"]),
       shared=st.booleans(), kernel=st.sampled_from([1, 3, 5, 25]), patch=st.integers(1, 3),
       patches=st.integers(1, 24), horizon_patches=st.integers(1, 6), channels=st.integers(1, 4),
       keep=st.integers(0, 40), alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_head_is_the_fft_composition_read_off_the_spectrum(method, kind, shared, kernel, patch, patches,
                                                           horizon_patches, channels, keep, alpha, seed):
    # Pipeline.head forecasts with one folded matrix on the weighted
    # spectrum; it agrees with the FFT path (re-weight, inverse DFT, then
    # the backbone's heads) to 1e-12 of the forecasts' scale, with random
    # weights, scores and biases; keep 0 stands for no keep
    lookback, horizon = patch * patches, patch * horizon_patches
    cfg = PipelineConfig(
        method=method,
        backbone=BackboneConfig(kind=kind, lookback=lookback, horizon=horizon, channels=channels,
                                shared=shared, kernel=kernel),
        tifo=TifoConfig(hidden=6, keep=min(keep, n_bins(lookback)) or None),
        san=SanConfig(patch=patch, hidden=8, epochs=1))
    pipe = build_pipeline(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    pipe.tifo.scores[...] = rng.uniform(0.0, 5.0, size=pipe.tifo.scores.shape)
    for name, arr in pipe.params.items():
        if name.endswith(("w2", "bias")):
            arr[...] = rng.normal(scale=0.5, size=arr.shape)
    x = np.cumsum(rng.normal(size=(5, lookback, channels)), axis=1)
    x_n, ctx = pipe.norm.enter(x)
    weights = pipe.tifo.weights(alpha)
    want = pipe.norm.leave(pipe.backbone.forward(tifo.transform(x_n, *weights[:2])[0])[0], ctx)
    got = pipe.head(x_n, ctx, weights)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("method", ["tifo", "tifo+san"])
@pytest.mark.parametrize("ema_decay", [None, 0.9])
def test_evaluate_reads_one_forward_dft_per_batch(monkeypatch, method, ema_decay):
    # forecasts are read off the spectrum: each batch of 7 of 24 windows
    # takes one forward DFT, which also gives the EMA refresh its panel, and
    # no inverse one; the backbone is folded once per call
    pipe, x, y = make_pipeline(method, backbone="dlinear", channels=2, n=24)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (dft_forward, dft_inverse, dft_forward_adjoint):
        for module in [m for name, m in sys.modules.items() if name.startswith("specshift")]:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn.__name__, fn))
    monkeypatch.setattr(models.Backbone, "fold", counted("fold", models.Backbone.fold))
    evaluate(pipe, x, y, batch=7, ema_decay=ema_decay)
    assert calls == {"dft_forward": 4, "fold": 1}


def test_evaluate_batch_size_invariant():
    pipe, x, y = make_pipeline("tifo", seed=12, n=24)
    _short_train(pipe, x, y)
    a = evaluate(pipe, x, y, batch=256)
    b = evaluate(pipe, x, y, batch=7)
    assert a["mse"] == pytest.approx(b["mse"], abs=1e-12)
    assert a["mae"] == pytest.approx(b["mae"], abs=1e-12)


# ---------------------------------------------------------------------------
# spectral truncation (keep)
# ---------------------------------------------------------------------------


def _perturb_tifo(pipe, seed=31):
    # move the weights off their identity start so truncation is not the only effect
    rng = np.random.default_rng(seed)
    for name in ("tifo.r.w2", "tifo.i.w2"):
        pipe.params[name][...] = rng.normal(scale=0.5, size=pipe.params[name].shape)


def test_only_none_leaves_its_input_as_it_is():
    # tifo shares none's identity block, yet transforms its input
    for method in COMPOSITION:
        assert make_pipeline(method)[0].transforms_input == (method != "none"), method


@pytest.mark.parametrize("method", ["tifo", "tifo+san"])
def test_transformed_input_keep_truncates_high_bins(method):
    pipe, x, _ = make_pipeline(method, channels=2, keep=2)
    _perturb_tifo(pipe)
    real, imag = dft_forward(pipe.transformed_input(x), axis=1)
    np.testing.assert_allclose(real[:, 2:, :], 0.0, atol=1e-10)
    np.testing.assert_allclose(imag[:, 2:, :], 0.0, atol=1e-10)
    assert np.abs(real[:, :2, :]).max() > 1e-3


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
@pytest.mark.parametrize("lookback, channels", [(48, 1), (96, 7)])
def test_whole_split_enter_equals_per_batch_enter(method, lookback, channels):
    # enter is the parameter-free front end: a whole split entered at once
    # gives x_n and every ctx array of its batches of 32 bit for bit.  500
    # windows is a split size at which SAN's predictor, were it run inside
    # enter, rounds differently on the whole split than on the batches
    n, horizon = 500, 24
    rng = np.random.default_rng(lookback + channels)
    x = np.cumsum(rng.normal(size=(n, lookback, channels)), axis=1)
    y = rng.normal(size=(n, horizon, channels))
    cfg = PipelineConfig(method=method, backbone=BackboneConfig(
        kind="linear", lookback=lookback, horizon=horizon, channels=channels))
    pipe = build_pipeline(cfg, np.random.default_rng(0), x, y)

    def arrays(entered):
        x_n, ctx = entered
        return [x_n, *(ctx or ())]

    whole = arrays(pipe.norm.enter(x))
    batches = [arrays(pipe.norm.enter(x[start : start + 32])) for start in range(0, n, 32)]
    assert len(whole) == len(batches[0])
    for i, arr in enumerate(whole):
        assert np.array_equal(arr, np.concatenate([parts[i] for parts in batches])), i


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), batch=st.integers(1, 80), patches=st.integers(1, 24), channels=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_whole_split_enter_is_its_batches_for_any_sizes(method, n, batch, patches, channels, seed):
    # the same bit-equality over drawn split and batch sizes and (L, C), L a
    # multiple of SAN's patch of 4: a split size that happens to round alike
    # on the whole split and on its batches proves nothing on its own
    lookback, horizon = 4 * patches, 8
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=(n, lookback, channels)), axis=1)
    cfg = PipelineConfig(method=method, backbone=BackboneConfig(
        kind="linear", lookback=lookback, horizon=horizon, channels=channels),
        san=SanConfig(patch=4, hidden=8, epochs=1), fan=FanConfig(topk=2, hidden1=8, hidden2=8),
        tifo=TifoConfig(hidden=4))
    pipe = build_pipeline(cfg, np.random.default_rng(0))

    def arrays(entered):
        x_n, ctx = entered
        return [x_n, *(ctx or ())]

    whole = arrays(pipe.norm.enter(x))
    batches = [arrays(pipe.norm.enter(x[start : start + batch])) for start in range(0, n, batch)]
    for i, arr in enumerate(whole):
        assert np.array_equal(arr, np.concatenate([parts[i] for parts in batches])), i


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
@pytest.mark.parametrize("lookback, horizon, channels, backbone", [(48, 24, 1, "linear"), (96, 48, 7, "dlinear")])
def test_dataset_views_compute_like_their_copies(method, lookback, horizon, channels, backbone):
    # the dataset's fields are strided, read-only window views; every
    # whole-split and batched caller gives the same bits on them as on
    # owned C-ordered copies
    rng = np.random.default_rng(lookback + channels)
    t = np.arange(lookback * 8)[:, None]
    series = np.sin(2 * np.pi * t / 12 + rng.uniform(0, 6, channels)) + np.cumsum(
        rng.normal(scale=0.1, size=(t.size, channels)), axis=0)
    ds = build_dataset(series, lookback, horizon)
    views = (ds.x_train, ds.y_train, ds.x_val, ds.y_val, ds.x_test, ds.y_test)
    copies = tuple(arr.copy() for arr in views)
    cfg = PipelineConfig(method=method, backbone=BackboneConfig(
        kind=backbone, lookback=lookback, horizon=horizon, channels=channels, kernel=5),
        san=SanConfig(patch=12, hidden=16, epochs=1), tifo=TifoConfig(hidden=16))
    ema = 0.9 if method.startswith("tifo") else None

    def run(x_train, y_train, x_val, y_val, x_test, y_test):
        pipe = build_pipeline(cfg, np.random.default_rng(3), x_train, y_train)
        out = [amplitude_panel(x_train), amplitude_panel(x_test, "hann"), pipe.transformed_input(x_test),
               pipe.predict(x_test)]
        if pipe.tifo is not None:
            out.append(fit_score_table(pipe, x_train, y_train))
        out.append(evaluate(pipe, x_test, y_test, batch=7, ema_decay=ema))
        train(pipe, x_train, y_train, x_val, y_val, TrainConfig(max_epochs=1), np.random.default_rng(4))
        return out + [pipe.params.vector.copy(), evaluate(pipe, x_val, y_val, batch=7, ema_decay=ema)]

    for got, want in zip(run(*views), run(*copies), strict=True):
        if isinstance(got, dict):
            assert got == want
        else:
            assert np.array_equal(got, want)


def test_whole_split_steps_skip_the_san_predictor(monkeypatch):
    """SAN's enter, the score fit and the transformed input never run its
    predictor: it belongs to leave and loss."""
    pipe, x, y = make_pipeline("tifo+san", channels=2)
    _perturb_tifo(pipe)

    def no_predictor(*args, **kwargs):
        raise AssertionError("san_predict ran")

    monkeypatch.setattr(baselines, "san_predict", no_predictor)
    x_n, _ = pipe.norm.enter(x)
    assert np.array_equal(fit_score_table(pipe, x, y), pipe.tifo.fit_scores(x_n, y))
    assert np.array_equal(pipe.transformed_input(x), tifo.transform(x_n, *pipe.tifo.weights()[:2])[0])


@pytest.mark.parametrize("method", ["none", "revin", "san", "fan", "tifo", "tifo+san"])
def test_dlinear_step_decomposes_once(method, monkeypatch):
    # the backbone's VJP reads the trend and seasonal parts from forward's cache
    pipe, x, y = make_pipeline(method, backbone="dlinear", channels=2)
    calls = {"n": 0}
    real = models.moving_average_decompose

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "moving_average_decompose", counted)
    pipe.loss_grads(x, pipe.norm.targets(y))
    assert calls["n"] == 1


def test_transformed_input_keep_one_is_window_mean():
    pipe, x, _ = make_pipeline("tifo", channels=2, keep=1, alpha=0.0)
    _perturb_tifo(pipe)
    means = np.broadcast_to(x.mean(axis=1, keepdims=True), x.shape)
    np.testing.assert_allclose(pipe.transformed_input(x), means, atol=1e-12)


def test_full_keep_matches_no_keep():
    full, x, y = make_pipeline("tifo", channels=2, keep=5)  # lookback 8: K = 5
    plain, _, _ = make_pipeline("tifo", channels=2)
    for pipe in (full, plain):
        _perturb_tifo(pipe)
    np.testing.assert_array_equal(full.transformed_input(x), plain.transformed_input(x))
    np.testing.assert_array_equal(full.predict(x), plain.predict(x))
    loss_full, grads_full = full.loss_grads(x, y)
    loss_plain, grads_plain = plain.loss_grads(x, y)
    assert loss_full == loss_plain
    for name, g in grads_plain.items():
        np.testing.assert_array_equal(grads_full[name], g)


@pytest.mark.parametrize("method", ["tifo", "tifo+san"])
def test_keep_outside_bins_raises_config_error(method):
    for keep in (0, 6):  # lookback 8: K = 5
        with pytest.raises(ConfigError):
            make_pipeline(method, keep=keep)


def test_lookback_rules_hold_only_for_the_blocks_a_method_composes():
    # lookback 8, horizon 4: K = 5 and 3; patch 3 divides neither
    bb = BackboneConfig(kind="linear", lookback=8, horizon=4, channels=1)
    blocks = {"tifo": TifoConfig(keep=6), "san": SanConfig(patch=3), "fan": FanConfig(topk=4)}
    for method, key in (("tifo", "keep"), ("san", "san_patch"), ("fan", "fan_topk")):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig(method=method, backbone=bb, **blocks)
    PipelineConfig(method="none", backbone=bb, **blocks)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def test_linear_backbone_gradients_tight():
    pipe, x, y = make_pipeline("none", n=8)
    assert finite_diff_check(pipe, x, y) <= 1e-7


def _fd_cases(methods, short_linear=False):
    """(method, backbone, channels) over both backbones and C in {1, 2}.

    C=1 cases keep the ids they had before channels were parametrized.
    """
    cases = []
    for channels in (1, 2):
        for backbone in ("linear", "dlinear"):
            for method in methods:
                base = method if short_linear and backbone == "linear" else f"{backbone}-{method}"
                case_id = base if channels == 1 else f"{base}-C{channels}"
                cases.append(pytest.param(method, backbone, channels, id=case_id))
    return cases


@pytest.mark.parametrize("method,backbone,channels", _fd_cases(["none", "revin", "fan", "tifo"]))
def test_gradients_match_finite_differences(method, backbone, channels):
    # keep=3 of K=5 bins for "tifo"; the other methods ignore it
    pipe, x, y = make_pipeline(method, backbone=backbone, channels=channels, seed=17, n=8, keep=3)
    assert finite_diff_check(pipe, x, y) <= 1e-5


@pytest.mark.parametrize("method,backbone,channels", _fd_cases(["san", "tifo+san"], short_linear=True))
def test_gradients_for_patch_normalized_methods(method, backbone, channels):
    # keep=3 of K=5 bins for "tifo+san"; "san" ignores it
    pipe, x, y = make_pipeline(method, backbone=backbone, channels=channels, seed=18, n=8, keep=3)
    assert finite_diff_check(pipe, x, y) <= 1e-5


def test_gradients_hold_after_training():
    pipe, x, y = make_pipeline("tifo", seed=19, n=16)
    _short_train(pipe, x, y, epochs=2)
    assert finite_diff_check(pipe, x, y) <= 1e-5


def test_step_size_shrinks_finite_difference_error():
    # every nonlinearity here is a relu, so the loss along one coordinate is
    # piecewise quadratic and central differences are exact away from kinks;
    # hidden units are parked at staggered distances from their kink, with
    # downstream influence shrinking in lockstep, so each smaller probe step
    # stops crossing the strongest remaining kink and the error drops
    pipe, x, y = make_pipeline("tifo", seed=23, n=8)
    w1 = pipe.params["tifo.r.w1"]
    b1 = pipe.params["tifo.r.b1"]
    w2 = pipe.params["tifo.r.w2"]
    scores = pipe.tifo.scores[:, 0]
    s_max = max(1.0, float(scores.max()))
    for j, (dist, mag) in enumerate(
        zip((5e-3, 5e-4, 5e-5, 5e-6), (1.0, 0.1, 0.01, 0.001))
    ):
        b1[j] = -float(w1[j] @ scores) + dist * s_max
        w2[:, j] = mag
    errs = [finite_diff_check(pipe, x, y, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert errs[0] > 1.5 * errs[-1]
    for bigger, smaller in zip(errs, errs[1:]):
        assert bigger >= smaller
