import numpy as np
import pytest

from specshift.models import (
    Backbone,
    BackboneConfig,
    decompose_matrix,
    dense,
    moving_average_decompose,
)


def test_config_validation():
    with pytest.raises(ValueError):
        BackboneConfig(kind="rnn", lookback=8, horizon=4, channels=1)
    with pytest.raises(ValueError):
        BackboneConfig(kind="dlinear", lookback=8, horizon=4, channels=1, kernel=4)
    with pytest.raises(ValueError):
        BackboneConfig(kind="linear", lookback=0, horizon=4, channels=1)


def test_moving_average_hand_value():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    trend, seasonal = moving_average_decompose(x, decompose_matrix(4, 3))
    np.testing.assert_allclose(trend[0, :, 0], [4 / 3, 2.0, 3.0, 11 / 3], atol=1e-12)
    np.testing.assert_allclose(trend + seasonal, x, atol=1e-12)


def test_decompose_matrix_rows_average_with_edge_replication():
    m = decompose_matrix(5, 3)
    assert m.shape == (5, 5)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
    # first row averages the clipped window [0, 0, 1]
    np.testing.assert_allclose(m[0], [2 / 3, 1 / 3, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("lookback, kernel", [(1, 1), (2, 3), (5, 3), (8, 1), (24, 25), (48, 25), (16, 101)])
def test_each_dlinear_backbone_holds_the_explicit_loop_matrix(lookback, kernel):
    # row n adds 1/kernel at each clipped column of its window, in the window's order
    expected = np.zeros((lookback, lookback))
    for n in range(lookback):
        for j in range(n - kernel // 2, n + kernel // 2 + 1):
            expected[n, min(max(j, 0), lookback - 1)] += 1.0 / kernel
    cfg = BackboneConfig(kind="dlinear", lookback=lookback, horizon=4, channels=2, kernel=kernel)
    first, second = Backbone(cfg, np.random.default_rng(0)), Backbone(cfg, np.random.default_rng(0))
    assert first.decomp.tobytes() == expected.tobytes()
    assert first.decomp is not second.decomp  # each backbone holds its own
    assert Backbone(BackboneConfig(kind="linear", lookback=lookback, horizon=4, channels=2),
                    np.random.default_rng(0)).decomp is None


def test_decomposition_exact_for_all_kernels():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16, 3))
    for kernel in (1, 3, 5, 7, 15):
        trend, seasonal = moving_average_decompose(x, decompose_matrix(16, kernel))
        np.testing.assert_allclose(trend + seasonal, x, atol=1e-12)


def test_linear_forward_hand_value():
    cfg = BackboneConfig(kind="linear", lookback=2, horizon=2, channels=1, shared=True)
    model = Backbone(cfg, np.random.default_rng(0))
    model.params["weight"] = np.array([[1.0, 0.0], [0.0, 2.0]])
    model.params["bias"] = np.array([1.0, 1.0])
    out, _ = model.forward(np.array([3.0, 4.0]).reshape(1, 2, 1))
    np.testing.assert_allclose(out[0, :, 0], [4.0, 9.0], atol=1e-12)


def test_linear_shared_vs_per_channel_shapes():
    shared = Backbone(
        BackboneConfig(kind="linear", lookback=6, horizon=3, channels=4, shared=True),
        np.random.default_rng(0),
    )
    assert shared.params["weight"].shape == (3, 6)
    per_channel = Backbone(
        BackboneConfig(kind="linear", lookback=6, horizon=3, channels=4),
        np.random.default_rng(0),
    )
    assert per_channel.params["weight"].shape == (4, 3, 6)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6, 4))
    shared.params["bias"][...] = rng.standard_normal(3)
    per_channel.params["bias"][...] = rng.standard_normal((4, 3))
    for model in (shared, per_channel):
        w, b = model.params["weight"], model.params["bias"]
        if w.ndim == 2:
            w, b = np.broadcast_to(w, (4, 3, 6)), np.broadcast_to(b, (4, 3))
        expected = np.stack([x[:, :, c] @ w[c].T + b[c] for c in range(4)], axis=-1)
        out, _ = model.forward(x)
        assert out.shape == (5, 3, 4)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_dlinear_param_names():
    model = Backbone(
        BackboneConfig(kind="dlinear", lookback=8, horizon=4, channels=2, kernel=3),
        np.random.default_rng(0),
    )
    assert sorted(model.params) == [
        "seasonal.bias",
        "seasonal.weight",
        "trend.bias",
        "trend.weight",
    ]


@pytest.mark.parametrize("kind, names", [
    ("linear", ["weight", "bias"]),
    ("dlinear", ["trend.weight", "trend.bias", "seasonal.weight", "seasonal.bias"]),
], ids=["linear", "dlinear"])
@pytest.mark.parametrize("shared", [False, True])
def test_init_draws_xavier_weights_in_order_with_zero_biases(kind, names, shared):
    # the names' order fixes the flat parameter vector and the checkpoint bytes
    cfg = BackboneConfig(kind=kind, lookback=8, horizon=4, channels=3, shared=shared, kernel=3)
    model = Backbone(cfg, np.random.default_rng(11))
    assert list(model.params) == names
    shape = (4, 8) if shared else (3, 4, 8)
    a = np.sqrt(6.0 / (8 + 4))
    rng = np.random.default_rng(11)
    for name in names:
        if name.endswith("weight"):
            np.testing.assert_array_equal(model.params[name], rng.uniform(-a, a, size=shape))
        else:
            np.testing.assert_array_equal(model.params[name], np.zeros(shape[:-1]))


def test_dlinear_forward_composition():
    cfg = BackboneConfig(kind="dlinear", lookback=8, horizon=4, channels=2, kernel=3)
    model = Backbone(cfg, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((6, 8, 2))
    trend, seasonal = moving_average_decompose(x, model.decomp)
    manual = dense(model.params["trend.weight"], model.params["trend.bias"], trend) + dense(
        model.params["seasonal.weight"], model.params["seasonal.bias"], seasonal
    )
    np.testing.assert_allclose(model.forward(x)[0], manual, atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "dlinear"])
@pytest.mark.parametrize("shared", [False, True])
def test_fold_composes_the_heads_with_a_basis(kind, shared):
    # forward(basis @ z) == dense(*fold(basis), z) for any (L, M) basis, with
    # random biases so that the folded bias is checked too
    cfg = BackboneConfig(kind=kind, lookback=9, horizon=4, channels=3, shared=shared, kernel=5)
    model = Backbone(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    for name, arr in model.params.items():
        if name.endswith("bias"):
            arr[...] = rng.normal(size=arr.shape)
    basis = rng.normal(size=(9, 4))
    z = rng.normal(size=(5, 4, 3))
    matrix, bias = model.fold(basis)
    assert matrix.shape == ((4, 4) if shared else (3, 4, 4))
    want = model.forward(basis @ z)[0]
    np.testing.assert_allclose(dense(matrix, bias, z), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["linear", "dlinear"])
@pytest.mark.parametrize("shared", [False, True])
def test_vjp_matches_finite_differences(kind, shared):
    cfg = BackboneConfig(kind=kind, lookback=6, horizon=3, channels=2, shared=shared, kernel=3)
    model = Backbone(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6, 2))
    target = rng.standard_normal((4, 3, 2))

    def loss():
        return float(np.mean((model.forward(x)[0] - target) ** 2))

    out, cache = model.forward(x)
    upstream = 2.0 * (out - target) / out.size
    grads, grad_x = model.vjp(x, cache, upstream)

    eps = 1e-6
    for name, g in grads.items():
        flat = model.params[name].reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 11)):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss()
            flat[idx] = orig - eps
            down = loss()
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - gflat[idx]) < 1e-7

    xflat = x.reshape(-1)
    gxflat = grad_x.reshape(-1)
    for idx in range(0, xflat.size, 7):
        orig = xflat[idx]
        xflat[idx] = orig + eps
        up = loss()
        xflat[idx] = orig - eps
        down = loss()
        xflat[idx] = orig
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - gxflat[idx]) < 1e-7


@pytest.mark.parametrize("kind", ["linear", "dlinear"])
@pytest.mark.parametrize("shared", [False, True])
def test_vjp_without_input_gradient_keeps_parameter_gradients(kind, shared):
    cfg = BackboneConfig(kind=kind, lookback=6, horizon=3, channels=2, shared=shared, kernel=3)
    model = Backbone(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 6, 2))
    upstream = rng.standard_normal((5, 3, 2))
    _, cache = model.forward(x)
    full, grad_x = model.vjp(x, cache, upstream)
    params_only, none = model.vjp(x, cache, upstream, input_grad=False)
    assert grad_x.shape == x.shape and none is None
    assert params_only.keys() == full.keys()
    for name in full:
        np.testing.assert_array_equal(params_only[name], full[name])


def test_same_seed_same_init():
    cfg = BackboneConfig(kind="dlinear", lookback=8, horizon=4, channels=2, kernel=5)
    a = Backbone(cfg, np.random.default_rng(9))
    b = Backbone(cfg, np.random.default_rng(9))
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
