"""Training pipelines: a normalization block, an optional spectral
re-weighting layer and a backbone, composed per method by ``COMPOSITION``;
an Adam optimizer, the early-stopping loop, evaluation, and a
finite-difference gradient check.

Gradients come from composing explicit per-block VJPs; there is no
general-purpose tape.  Each block owns its forward and its VJP, and
``Pipeline.loss_grads`` only chains them.  The baseline blocks (RevIN, SAN,
FAN) hold their normalize, denormalize and combine arithmetic here and call
``baselines`` for the statistics and learned nets.  A pipeline owns two
tensor groups:

* ``params``  - trainable, updated by Adam, checkpointed
* ``frozen``  - fixed state (stability scores, pretrained patch predictor,
  FAN's combination weights), checkpointed but never updated by the main loop

``params`` is a ``TensorGroup``: every trainable tensor is a view of one
contiguous float64 vector, and each block's own ``params`` dict holds the
same views.  The patch predictor that stage one trains is a second group.
``Adam`` updates its group with one vector operation, and ``train`` keeps and
restores the best state with one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import baselines, tifo
from .errors import CheckpointError, ConfigError, NumericError
from .models import Backbone, BackboneConfig
from .spectral import dft_forward, n_bins
from .stationarity import amplitude_panel, ema_refresh, scores as stability_scores


def _paired(pred, target) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean(np.abs(pred - target)))


class TensorGroup(dict):
    """Named tensors that are consecutive views of one float64 ``vector``,
    in insertion order; the given tensors' values are copied in."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.vector = np.empty(sum(arr.size for arr in tensors.values()))
        offset = 0
        views = {}
        for name, arr in tensors.items():
            views[name] = self.vector[offset : offset + arr.size].reshape(arr.shape)
            views[name][...] = arr
            offset += arr.size
        super().__init__(views)


class Adam:
    """Adam with bias correction over one ``TensorGroup``; a step with any
    non-finite gradient is rejected.

    The moments are flat vectors in the group's order.  A step gathers the
    gradients into one vector and updates the group through its vector.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, group: TensorGroup, lr: float):
        self.group = group
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(group.vector)
        self.v = np.zeros_like(self.m)

    def step(self, grads: dict[str, np.ndarray]) -> bool:
        """Apply one update in place; returns False (no update) on non-finite grads."""
        g = np.concatenate([np.ravel(grads[name]) for name in self.group])
        if not np.isfinite(g).all():
            return False
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        self.group.vector -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)
        return True


@dataclass(frozen=True)
class PipelineConfig:
    method: str
    backbone: BackboneConfig
    tifo: tifo.TifoConfig = field(default_factory=tifo.TifoConfig)
    san: baselines.SanConfig = field(default_factory=baselines.SanConfig)
    fan: baselines.FanConfig = field(default_factory=baselines.FanConfig)

    def __post_init__(self):
        if self.method not in COMPOSITION:
            raise ConfigError(f"unknown method: {self.method!r}")


def _namespace(prefix: str, tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {f"{prefix}.{k}": v for k, v in tensors.items()}


def _mse_upstream(pred, target):
    pred, target = _paired(pred, target)
    err = pred - target
    loss = float(np.mean(err * err))
    return loss, (2.0 / err.size) * err


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class NormBlock:
    """A block wraps the backbone: ``enter(x) -> (x_n, ctx)`` normalizes the
    lookback window and ``leave(y_n, ctx) -> y`` maps the backbone output
    back.  ``leave_vjp(upstream, y_n, ctx) -> (g_n, grads)`` takes the
    cotangent of ``leave``'s output to the backbone output's and the block's
    own parameter gradients.

    ``loss(y_n, ctx, targets) -> (loss, g_n, grads)`` is the training loss,
    the MSE of ``leave`` against ``targets(y)``, the one form of the forecast
    windows it takes; ``train`` forms it once per split.

    ``ctx`` belongs to the caller; no forward or loss call changes a block.
    ``params`` (trainable) and ``frozen`` are un-prefixed dicts whose arrays
    are the pipeline's own, registered there under ``<name>.``.
    """

    def targets(self, y):
        return y

    def loss(self, y_n, ctx, targets):
        loss, upstream = _mse_upstream(self.leave(y_n, ctx), targets)
        return (loss, *self.leave_vjp(upstream, y_n, ctx))


class IdentityNorm(NormBlock):
    name = "identity"

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        self.params: dict[str, np.ndarray] = {}
        self.frozen: dict[str, np.ndarray] = {}

    def enter(self, x):
        return np.asarray(x, dtype=float), None

    def leave(self, y_n, ctx):
        return y_n

    def leave_vjp(self, upstream, y_n, ctx):
        return upstream, {}


class RevinNorm(NormBlock):
    """Per-window z-scoring with a learnable per-channel affine on the way out."""

    name = "revin"

    def __init__(self, cfg, rng):
        channels = cfg.backbone.channels
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.frozen = {}

    def enter(self, x):
        x = np.asarray(x, dtype=float)
        mu, sigma = baselines.revin_stats(x)
        return (x - mu) / sigma, (mu, sigma)

    def leave(self, y_n, ctx):
        """gamma * (y_n * sigma + mu) + beta, per channel."""
        mu, sigma = ctx
        return self.params["gamma"] * (y_n * sigma + mu) + self.params["beta"]

    def leave_vjp(self, upstream, y_n, ctx):
        mu, sigma = ctx
        grads = {"gamma": (upstream * (y_n * sigma + mu)).sum(axis=(0, 1)), "beta": upstream.sum(axis=(0, 1))}
        return upstream * self.params["gamma"] * sigma, grads


class SanNorm(NormBlock):
    """Patch-statistic normalization; the statistics predictor trains in a
    first stage (``train_san_predictor``) and stays frozen afterwards.
    ``enter`` hands back the predicted output statistics as the per-step
    (shift, scale) that ``leave`` applies."""

    name = "san"

    def __init__(self, cfg, rng):
        bc = cfg.backbone
        self.patch = cfg.san.patch
        self.params = {}
        self.frozen = TensorGroup(baselines.san_init(bc.lookback, bc.horizon, self.patch, cfg.san.hidden, rng))

    def steps(self, mu, var):
        """Per-patch mean and variance as per-step (shift, scale)."""
        return np.repeat(mu, self.patch, axis=1), np.repeat(np.sqrt(var + baselines.PATCH_EPS), self.patch, axis=1)

    def enter(self, x):
        x = np.asarray(x, dtype=float)
        mu_x, var_x = baselines.san_patch_stats(x, self.patch)
        mu_y, var_y, _ = baselines.san_predict(self.frozen, mu_x, var_x)
        # one expression, so its temporaries are freed before the output steps
        # are built (whole splits come through here)
        p = self.patch
        x_n = (x - np.repeat(mu_x, p, axis=1)) / np.repeat(np.sqrt(var_x + baselines.PATCH_EPS), p, axis=1)
        return x_n, self.steps(mu_y, var_y)

    def leave(self, y_n, ctx):
        shift, scale = ctx
        return y_n * scale + shift

    def leave_vjp(self, upstream, y_n, ctx):
        return upstream * ctx[1], {}


class FanNorm(NormBlock):
    """Top-k frequency decomposition: the backbone forecasts the residual, a
    frequency MLP the main part.  Training supervises the two separately."""

    name = "fan"

    def __init__(self, cfg, rng):
        bc = cfg.backbone
        k_in, k_out = n_bins(bc.lookback), n_bins(bc.horizon)
        self.topk = cfg.fan.topk
        if not 1 <= self.topk <= min(k_in, k_out):
            raise ConfigError(
                f"fan top-k must be in [1, {min(k_in, k_out)}] for this lookback/horizon"
            )
        self.params = baselines.fan_init(bc.lookback, bc.horizon, cfg.fan, rng)
        # the residual and main forecasts' per-channel weights, fixed at 1
        self.frozen = {"combine": np.ones((2, bc.channels))}

    def enter(self, x):
        x = np.asarray(x, dtype=float)
        x_main, x_res = baselines.main_frequency_split(x, self.topk)
        return x_res, (x_main, x)

    def leave(self, y_n, ctx):
        y_main, _ = baselines.fan_freq_forward(self.params, *ctx)
        w = self.frozen["combine"]
        return w[0] * y_n + w[1] * y_main

    def targets(self, y):
        """Main and residual parts of the forecast windows, stacked on axis 1."""
        return np.stack(baselines.main_frequency_split(y, self.topk), axis=1)

    def loss(self, y_n, ctx, targets):
        pred_main, cache = baselines.fan_freq_forward(self.params, *ctx)
        loss_main, up_main = _mse_upstream(pred_main, targets[:, 0])
        loss_res, up_res = _mse_upstream(y_n, targets[:, 1])
        return loss_main + loss_res, up_res, baselines.fan_freq_vjp(self.params, cache, up_main)


class TifoLayer:
    """Stability-score-driven spectral re-weighting between a normalization
    block and the backbone.  ``scores`` is the fitted (K, C) table.

    The only holder of the layer's rules: the effective weights are the
    alpha-scaled MLP outputs times a 0/1 ``mask`` that drops bins >= keep,
    ``forward``/``vjp`` are the training pass and its gradients, and
    ``fit_scores`` turns normalized windows into a score table.
    """

    name = "tifo"

    def __init__(self, cfg, rng):
        bc = cfg.backbone
        bins = n_bins(bc.lookback)
        keep = bins if cfg.tifo.keep is None else cfg.tifo.keep
        if not 1 <= keep <= bins:
            raise ConfigError(f"keep must be in [1, {bins}] for lookback {bc.lookback}")
        self.cfg = cfg.tifo
        self.mask = (np.arange(bins) < keep).astype(float)[:, None]
        self.params = tifo.init_params(bins, cfg.tifo.hidden, rng)
        self.scores = np.zeros((bins, bc.channels))
        self.frozen = {"scores": self.scores}

    def weights(self, alpha: float | None = None, scores: np.ndarray | None = None):
        """(lambda_r, lambda_i, cache): the effective weights for the stored
        or the given score table."""
        table = self.scores if scores is None else scores
        lam_r, lam_i, cache = tifo.weights_forward(self.params, table)
        a = self.cfg.alpha if alpha is None else alpha
        return tifo.alpha_scale(lam_r, a) * self.mask, tifo.alpha_scale(lam_i, a) * self.mask, cache

    def apply(self, x_n: np.ndarray, alpha: float | None = None,
              scores: np.ndarray | None = None) -> np.ndarray:
        """Re-weight normalized windows (N, L, C)."""
        lam_r, lam_i, _ = self.weights(alpha, scores)
        return tifo.transform(x_n, lam_r, lam_i)

    def forward(self, x_n: np.ndarray):
        """(re-weighted windows, cache for ``vjp``) at the configured alpha."""
        lam_r, lam_i, w_cache = self.weights()
        real, imag = dft_forward(x_n, axis=-2)
        x_t = tifo.weighted_inverse(real, imag, lam_r, lam_i, x_n.shape[-2])
        return x_t, (real, imag, lam_r, lam_i, w_cache)

    def vjp(self, cache, g_x: np.ndarray) -> dict[str, np.ndarray]:
        """MLP parameter gradients from the cotangent of ``forward``'s output."""
        real, imag, lam_r, lam_i, w_cache = cache
        _, g_lam_r, g_lam_i = tifo.transform_vjp(g_x, real, imag, lam_r, lam_i, g_x.shape[-2])
        # the effective weights are mask * (1 + alpha * (raw - 1))
        scale = self.cfg.alpha * self.mask
        return tifo.weights_vjp(self.params, w_cache, scale * g_lam_r, scale * g_lam_i)

    def fit_scores(self, x_n: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(K, C) stability scores of normalized windows and their targets."""
        panel = amplitude_panel(x_n, self.cfg.window)
        return stability_scores(panel, self.cfg.score_metric, targets=y, eps=self.cfg.score_eps)


# method -> (normalization block, whether the re-weighting layer sits inside it)
COMPOSITION = {
    "none": (IdentityNorm, False),
    "revin": (RevinNorm, False),
    "san": (SanNorm, False),
    "fan": (FanNorm, False),
    "tifo": (IdentityNorm, True),
    "tifo+san": (SanNorm, True),
}


class Pipeline:
    """normalization ∘ [re-weighting] ∘ backbone, as ``COMPOSITION`` assigns.

    ``params`` and ``frozen`` hold every block's tensors under
    ``backbone.``/``<block>.`` names; they are what checkpoints store.  The
    backbone draws from the rng first, then the re-weighting layer, then the
    normalization block.
    """

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        norm_cls, reweight = COMPOSITION[cfg.method]
        self.cfg = cfg
        self.method = cfg.method
        self.backbone = Backbone(cfg.backbone, rng)
        self.tifo = TifoLayer(cfg, rng) if reweight else None
        self.norm = norm_cls(cfg, rng)
        owners = {"backbone": self.backbone.params}
        self.frozen: dict[str, np.ndarray] = {}
        for block in (self.norm, self.tifo):
            if block is not None:
                owners[block.name] = block.params
                self.frozen.update(_namespace(block.name, block.frozen))
        self.params = TensorGroup({f"{prefix}.{k}": v for prefix, own in owners.items() for k, v in own.items()})
        for prefix, own in owners.items():
            for key in own:
                own[key] = self.params[f"{prefix}.{key}"]

    @property
    def transforms_input(self) -> bool:
        """True when the backbone sees a reshaped series."""
        return self.tifo is not None or not isinstance(self.norm, IdentityNorm)

    # -- checkpoint support -------------------------------------------------

    def tensors(self) -> dict[str, np.ndarray]:
        out = dict(self.params)
        out.update(self.frozen)
        return out

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        own = self.tensors()
        missing = sorted(set(own) - set(tensors))
        if missing:
            raise CheckpointError(f"checkpoint lacks tensors: {', '.join(missing)}")
        for name, arr in own.items():
            incoming = tensors[name]
            if incoming.shape != arr.shape:
                raise CheckpointError(
                    f"tensor {name}: shape {incoming.shape} does not match expected {arr.shape}"
                )
            arr[...] = incoming

    # -- forward passes -----------------------------------------------------

    def head(self, x_n: np.ndarray, ctx, alpha: float | None = None,
             scores: np.ndarray | None = None) -> np.ndarray:
        """Forecast from a normalized window.  alpha rescales the spectral
        weights toward identity; scores replaces the stored stability table.
        Both act on the re-weighting layer only (``evaluate`` rejects them
        for a method without one)."""
        if self.tifo is not None:
            x_n = self.tifo.apply(x_n, alpha, scores)
        return self.norm.leave(self.backbone.forward(x_n), ctx)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.head(*self.norm.enter(x))

    def transformed_input(self, x: np.ndarray, alpha: float | None = None) -> np.ndarray:
        """The series the backbone consumes."""
        x_n, _ = self.norm.enter(x)
        return x_n if self.tifo is None else self.tifo.apply(x_n, alpha)

    def loss_grads(self, x: np.ndarray, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """(training loss, parameter gradients); targets is ``norm.targets``
        of the forecast windows."""
        x_t, ctx = self.norm.enter(x)
        if self.tifo is not None:
            x_t, tifo_cache = self.tifo.forward(x_t)
        loss, upstream, norm_grads = self.norm.loss(self.backbone.forward(x_t), ctx, targets)
        bb_grads, g_xt = self.backbone.vjp(x_t, upstream, input_grad=self.tifo is not None)
        grads = _namespace("backbone", bb_grads)
        grads.update(_namespace(self.norm.name, norm_grads))
        if self.tifo is not None:
            grads.update(_namespace("tifo", self.tifo.vjp(tifo_cache, g_xt)))
        return loss, grads


def fit_score_table(
    pipeline: Pipeline,
    x_train: np.ndarray,
    y_train: np.ndarray,
) -> np.ndarray:
    """Stability scores over the training windows as the re-weighting layer sees them."""
    return pipeline.tifo.fit_scores(pipeline.norm.enter(x_train)[0], y_train)


def build_pipeline(
    cfg: PipelineConfig,
    rng: np.random.Generator,
    x_train: np.ndarray | None = None,
    y_train: np.ndarray | None = None,
) -> Pipeline:
    """Construct a pipeline; the backbone always consumes the rng stream first.

    For the score-driven methods the stability table is fitted from the given
    training windows; pass None when tensors will be loaded from a checkpoint.
    """
    pipeline = Pipeline(cfg, rng)
    if pipeline.tifo is not None and x_train is not None:
        pipeline.tifo.scores[...] = fit_score_table(pipeline, x_train, y_train)
    return pipeline


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch: int = 32
    max_epochs: int = 30
    patience: int = 5

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch < 1:
            raise ConfigError("batch size must be at least 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_val_mse: float
    epochs_run: int


def train_san_predictor(
    pipeline: Pipeline,
    x_train: np.ndarray,
    y_train: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> None:
    """Stage one: fit the frozen patch-statistic predictor on train windows.

    Mean and variance targets are weighted equally.  The predictor tensors
    live in ``pipeline.frozen`` and stay fixed afterwards.
    """
    san_cfg = pipeline.cfg.san
    patch = san_cfg.patch
    params = pipeline.norm.frozen
    mu_x, var_x = baselines.san_patch_stats(x_train, patch)
    mu_y, var_y = baselines.san_patch_stats(y_train, patch)
    adam = Adam(params, lr=san_cfg.lr)
    n = x_train.shape[0]
    for _ in range(san_cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            sel = perm[start : start + batch]
            mu_hat, var_hat, cache = baselines.san_predict(params, mu_x[sel], var_x[sel])
            g_mu = (2.0 / mu_hat.size) * (mu_hat - mu_y[sel])
            g_var = (2.0 / var_hat.size) * (var_hat - var_y[sel])
            grads = baselines.san_predict_vjp(params, cache, g_mu, g_var)
            adam.step(grads)


def evaluate(
    pipeline: Pipeline,
    x: np.ndarray,
    y: np.ndarray,
    batch: int = 256,
    alpha: float | None = None,
    ema_decay: float | None = None,
) -> dict[str, float]:
    """Mean MSE/MAE over a split, in fixed batch order.

    alpha rescales the spectral weights toward identity (score-driven methods
    only).  ema_decay, if set, refreshes the stability scores from each batch
    of at least two windows before weighting (a one-window batch has no
    spread to score and keeps the running scores); the pipeline's stored
    scores are not modified.
    """
    if (alpha is not None or ema_decay is not None) and pipeline.tifo is None:
        raise ConfigError(f"method {pipeline.method!r} accepts neither alpha nor ema_decay")
    if batch < 1:
        raise ConfigError(f"evaluation batch must be at least 1, got {batch}")
    running_scores = None if ema_decay is None else pipeline.tifo.scores.copy()
    sq_sum = 0.0
    abs_sum = 0.0
    count = 0
    for start in range(0, x.shape[0], batch):
        xb = x[start : start + batch]
        yb = y[start : start + batch]
        x_n, ctx = pipeline.norm.enter(xb)
        if running_scores is not None and xb.shape[0] >= 2:
            batch_scores = pipeline.tifo.fit_scores(x_n, yb)
            running_scores = ema_refresh(running_scores, batch_scores, ema_decay)
        pred = pipeline.head(x_n, ctx, alpha, running_scores)
        err = pred - yb
        sq_sum += float((err * err).sum())
        abs_sum += float(np.abs(err).sum())
        count += err.size
    return {"mse": sq_sum / count, "mae": abs_sum / count}


def train(
    pipeline: Pipeline,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation MSE.

    History row 0 records the untouched initial state (train_mse is NaN
    there); rows 1..E are full epochs.  The best-validation parameters are
    restored before returning.  A non-finite training loss aborts with
    NumericError; non-finite gradients reject the single step and are counted
    in the epoch's ``rejected`` column.
    """
    if isinstance(pipeline.norm, SanNorm):
        train_san_predictor(pipeline, x_train, y_train, cfg.batch, rng)
    adam = Adam(pipeline.params, lr=cfg.lr)
    vector = pipeline.params.vector
    targets = pipeline.norm.targets(y_train)
    n = x_train.shape[0]
    init_val = evaluate(pipeline, x_val, y_val)
    history = [
        {
            "epoch": 0,
            "train_mse": float("nan"),
            "val_mse": init_val["mse"],
            "val_mae": init_val["mae"],
            "rejected": 0,
        }
    ]
    # Best tracking starts at +inf so the first trained epoch always counts
    # as an improvement; the init row is diagnostic, not a baseline.
    best_val = float("inf")
    best_epoch = 0
    best_state = vector.copy()
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        rejected = 0
        for start in range(0, n, cfg.batch):
            sel = perm[start : start + cfg.batch]
            loss, grads = pipeline.loss_grads(x_train[sel], targets[sel])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {start // cfg.batch}"
                )
            if not adam.step(grads):
                rejected += 1
            loss_sum += loss * sel.size
        val = evaluate(pipeline, x_val, y_val)
        history.append(
            {
                "epoch": epoch,
                "train_mse": loss_sum / n,
                "val_mse": val["mse"],
                "val_mae": val["mae"],
                "rejected": rejected,
            }
        )
        if val["mse"] < best_val:
            best_val = val["mse"]
            best_epoch = epoch
            np.copyto(best_state, vector)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    np.copyto(vector, best_state)
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        epochs_run=epoch,  # max_epochs >= 1, so the loop ran
    )


def finite_diff_check(pipeline: Pipeline, x: np.ndarray, y: np.ndarray, eps: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and central-difference grads.

    The denominator is floored at 1e-3 so exactly-zero analytic gradients are
    compared absolutely at that scale rather than against roundoff noise.
    """
    targets = pipeline.norm.targets(y)
    _, grads = pipeline.loss_grads(x, targets)
    worst = 0.0
    for name in sorted(pipeline.params):
        arr = pipeline.params[name]
        g = np.asarray(grads[name], dtype=float).ravel()
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = pipeline.loss_grads(x, targets)[0]
            flat[i] = orig - eps
            down = pipeline.loss_grads(x, targets)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(g[i]), 1e-3)
            worst = max(worst, abs(numeric - g[i]) / denom)
    return worst
