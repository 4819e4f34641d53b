"""Training pipelines: a normalization block, an optional spectral
re-weighting layer and a backbone, composed per method by ``COMPOSITION``;
an Adam optimizer, the early-stopping loop and evaluation.

Gradients come from composing explicit per-block VJPs; there is no
general-purpose tape.  Each block owns its forward and its VJP, every
forward returns the cache its VJP reads, and ``Pipeline.loss_grads`` only
chains them.  The re-weighting layer's forward is ``tifo.transform`` with
the table ``TifoLayer.weights`` forms; ``TifoLayer.vjp`` reads the spectrum
it returns and that table.  The baseline blocks (RevIN, SAN, FAN) hold
their normalize, denormalize and combine arithmetic here and call
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

Training runs the re-weighting layer on the FFT path (DFT, weights, inverse
DFT, backbone).  Forecasts without gradients (``Pipeline.head``, behind
``predict`` and ``evaluate``) use that the composition is linear for a fixed
weight table: a forecast is one linear map of the weighted spectrum, the
backbone folded with the inverse DFT over the kept bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines, tifo
from .errors import ConfigError, DataError, NumericError
from .models import Backbone, BackboneConfig, dense
from .spectral import amplitude, dft_forward, n_bins
from .stationarity import amplitude_panel, ema_refresh, scores as stability_scores


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
    """Each block's config checks its own keys; this one adds the rules that
    tie a block's key to the lookback or horizon, for the blocks the method
    composes."""

    method: str
    backbone: BackboneConfig
    tifo: tifo.TifoConfig = field(default_factory=tifo.TifoConfig)
    san: baselines.SanConfig = field(default_factory=baselines.SanConfig)
    fan: baselines.FanConfig = field(default_factory=baselines.FanConfig)

    def __post_init__(self):
        if self.method not in COMPOSITION:
            raise ConfigError(f"unknown method: {self.method!r}")
        norm_cls, reweight = COMPOSITION[self.method]
        lookback, horizon = self.backbone.lookback, self.backbone.horizon
        keep, patch, topk = self.tifo.keep, self.san.patch, self.fan.topk
        if reweight and keep is not None and keep > n_bins(lookback):
            raise ConfigError(f"keep must be at most {n_bins(lookback)} for lookback {lookback}, got {keep}")
        if norm_cls is SanNorm and (lookback % patch or horizon % patch):
            raise ConfigError(f"san_patch must divide lookback {lookback} and horizon {horizon}, got {patch}")
        bins = min(n_bins(lookback), n_bins(horizon))
        if norm_cls is FanNorm and topk > bins:
            raise ConfigError(f"fan_topk must be at most {bins} for lookback {lookback} and horizon {horizon}, "
                              f"got {topk}")


def _namespace(prefix: str, tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {f"{prefix}.{k}": v for k, v in tensors.items()}


def _mse_upstream(pred, target):
    """(MSE of pred against target, its gradient with respect to pred)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    err = pred - target
    # the bits of np.mean(err * err), at a third of its per-call cost
    return float((err * err).sum()) / err.size, (2.0 / err.size) * err


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class NormBlock:
    """A block wraps the backbone; this base class is the identity, the
    block of ``none`` and ``tifo``.  ``enter(x) -> (x_n, ctx)`` is the
    parameter-free front end: it normalizes the lookback windows, window by
    window, so a whole split entered at once gives the bytes of its batches
    entered one by one.  ``leave(y_n, ctx) -> y`` maps the backbone output
    back; the block's learned parts run here.

    ``loss(y_n, ctx, targets) -> (loss, g_n, grads)`` is the training loss,
    the MSE of ``leave`` against ``targets(y)``, the one form of the forecast
    windows it takes (``train`` forms it once per split), with the cotangent
    of the backbone output and the block's own parameter gradients.

    ``ctx`` belongs to the caller; no forward or loss call changes a block.
    ``params`` (trainable) and ``frozen`` are un-prefixed dicts whose arrays
    are the pipeline's own, registered there under ``<name>.``.
    """

    name = "identity"

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        self.params: dict[str, np.ndarray] = {}
        self.frozen: dict[str, np.ndarray] = {}

    def enter(self, x):
        return np.asarray(x, dtype=float), None

    def leave(self, y_n, ctx):
        return y_n

    def targets(self, y):
        return y

    def loss(self, y_n, ctx, targets):
        return (*_mse_upstream(y_n, targets), {})


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

    def loss(self, y_n, ctx, targets):
        mu, sigma = ctx
        y = y_n * sigma + mu
        loss, upstream = _mse_upstream(self.params["gamma"] * y + self.params["beta"], targets)
        grads = {"gamma": (upstream * y).sum(axis=(0, 1)), "beta": upstream.sum(axis=(0, 1))}
        return loss, upstream * self.params["gamma"] * sigma, grads


class SanNorm(NormBlock):
    """Patch-statistic normalization; the statistics predictor trains in a
    first stage (``train_san_predictor``) and stays frozen afterwards.
    ``enter`` hands back the input's patch statistics, from which ``leave``
    and ``loss`` predict the output's per-step (shift, scale)."""

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
        """(x z-scored per patch, (the patch means, the patch variances))."""
        x = np.asarray(x, dtype=float)
        mu_x, var_x = baselines.san_patch_stats(x, self.patch)
        # one expression, so its temporaries are freed at once (whole splits
        # come through here)
        p = self.patch
        x_n = (x - np.repeat(mu_x, p, axis=1)) / np.repeat(np.sqrt(var_x + baselines.PATCH_EPS), p, axis=1)
        return x_n, (mu_x, var_x)

    def leave(self, y_n, ctx):
        shift, scale = self.steps(*baselines.san_predict(self.frozen, *ctx)[:2])
        return y_n * scale + shift

    def loss(self, y_n, ctx, targets):
        shift, scale = self.steps(*baselines.san_predict(self.frozen, *ctx)[:2])
        loss, upstream = _mse_upstream(y_n * scale + shift, targets)
        return loss, upstream * scale, {}


class FanNorm(NormBlock):
    """Top-k frequency decomposition: the backbone forecasts the residual, a
    frequency MLP the main part.  Training supervises the two separately."""

    name = "fan"

    def __init__(self, cfg, rng):
        bc = cfg.backbone
        self.topk = cfg.fan.topk
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

    The only holder of the layer's rules: ``weights`` forms the one weight
    table, the alpha-scaled MLP outputs times a 0/1 ``mask`` that drops bins
    >= keep, which ``tifo.transform`` applies; ``vjp`` gives the gradients
    at that table's alpha, and ``fit_scores`` turns normalized windows into
    a score table.

    The layer is diagonal on the spectrum, so its output is
    ``basis @ weighted_spectrum(...)``: ``basis`` is the (L, 2 keep) real
    inverse DFT over the kept bins, numpy's ``irfft`` of their unit spectra,
    a constant of the layer.
    """

    name = "tifo"

    def __init__(self, cfg, rng):
        bc = cfg.backbone
        bins = n_bins(bc.lookback)
        keep = bins if cfg.tifo.keep is None else cfg.tifo.keep
        self.cfg = cfg.tifo
        self.keep = keep
        self.mask = (np.arange(bins) < keep).astype(float)[:, None]
        units = np.eye(bins)[:keep]
        self.basis = np.fft.irfft(np.concatenate([units, 1j * units]), n=bc.lookback, axis=1).T
        self.params = tifo.init_params(bins, cfg.tifo.hidden, rng)
        self.scores = np.zeros((bins, bc.channels))
        self.frozen = {"scores": self.scores}

    def weights(self, alpha: float | None = None, scores: np.ndarray | None = None):
        """The weight table ``(lambda_r, lambda_i, cache)`` at the configured
        or the given alpha, for the stored or the given score table.  The
        cache holds the MLP caches and the table's chain-rule factor
        ``alpha * mask``, as the effective weights are
        ``mask * (1 + alpha * (raw - 1))``."""
        table = self.scores if scores is None else scores
        lam_r, lam_i, mlp_cache = tifo.weights_forward(self.params, table)
        a = self.cfg.alpha if alpha is None else alpha
        return tifo.alpha_scale(lam_r, a) * self.mask, tifo.alpha_scale(lam_i, a) * self.mask, (mlp_cache, a * self.mask)

    def weighted_spectrum(self, spectrum, weights) -> np.ndarray:
        """``[lambda_r * real; lambda_i * imag]`` over the kept bins, (N, 2 keep, C),
        for the (real, imag) ``spectrum`` of (N, L, C) windows and a table
        from ``weights()``; ``basis`` maps it to ``tifo.transform``'s output."""
        (real, imag), (lam_r, lam_i, _), k = spectrum, weights, self.keep
        return np.concatenate([real[:, :k] * lam_r[:k], imag[:, :k] * lam_i[:k]], axis=1)

    def vjp(self, spectrum, weights, g_x: np.ndarray) -> dict[str, np.ndarray]:
        """MLP parameter gradients from the cotangent ``g_x`` of
        ``tifo.transform(x_n, lambda_r, lambda_i)``'s output, for the table
        ``weights`` from ``weights()`` and the (real, imag) ``spectrum`` that
        call returned, through that table's chain-rule factor."""
        (real, imag), (lam_r, lam_i, (mlp_cache, scale)) = spectrum, weights
        _, g_lam_r, g_lam_i = tifo.transform_vjp(g_x, real, imag, lam_r, lam_i, g_x.shape[-2])
        return tifo.weights_vjp(self.params, mlp_cache, scale * g_lam_r, scale * g_lam_i)

    def fit_scores(self, x_n: np.ndarray, y: np.ndarray, spectrum=None) -> np.ndarray:
        """(K, C) stability scores of normalized windows and their targets.
        Under the rectangular window the panel is the amplitude of x_n's
        (real, imag) ``spectrum`` from ``dft_forward``, when one is given."""
        if spectrum is not None and self.cfg.window == "rectangular":
            panel = amplitude(*spectrum)
        else:
            panel = amplitude_panel(x_n, self.cfg.window)
        return stability_scores(panel, self.cfg.score_metric, targets=y, eps=self.cfg.score_eps)


# method -> (normalization block, whether the re-weighting layer sits inside it)
COMPOSITION = {
    "none": (NormBlock, False),
    "revin": (RevinNorm, False),
    "san": (SanNorm, False),
    "fan": (FanNorm, False),
    "tifo": (NormBlock, True),
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
        return self.tifo is not None or type(self.norm) is not NormBlock

    # -- checkpoint support -------------------------------------------------

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by checkpoint name; the arrays are the pipeline's own,
        so a checkpoint is loaded by copying into them."""
        out = dict(self.params)
        out.update(self.frozen)
        return out

    # -- forward passes -----------------------------------------------------

    def head(self, x_n: np.ndarray, ctx, weights=None, fold=None, spectrum=None) -> np.ndarray:
        """Forecast from normalized windows, the one forward-only path.

        With the re-weighting layer the forecast is a linear map of the
        weighted spectrum: ``dense(matrix, bias, weighted_spectrum)`` with
        ``fold = (matrix, bias)`` from ``backbone.fold(tifo.basis)``, on x_n's
        ``spectrum`` scaled by the table ``weights`` from ``tifo.weights()``.
        Each of the three is formed here when None (the table: the stored
        one at the configured alpha).  The fold holds no weight table, so it
        serves every table until the backbone's parameters change.  The
        forecast agrees with the FFT composition, ``backbone.forward`` of
        ``tifo.transform``'s output, to rounding.  A method without the layer
        ignores all three.
        """
        if self.tifo is None:
            return self.norm.leave(self.backbone.forward(x_n)[0], ctx)
        matrix, bias = fold or self.backbone.fold(self.tifo.basis)
        if spectrum is None:
            spectrum = dft_forward(x_n, axis=1)
        z = self.tifo.weighted_spectrum(spectrum, weights or self.tifo.weights())
        return self.norm.leave(dense(matrix, bias, z), ctx)

    def predict(self, x: np.ndarray) -> np.ndarray:
        # a window view is copied, as evaluate copies its batches: the
        # backbone's matmul then runs the same BLAS kernel on views and copies
        return self.head(*self.norm.enter(np.ascontiguousarray(x)))

    def transformed_input(self, x: np.ndarray) -> np.ndarray:
        """The series the backbone consumes."""
        x_n = self.norm.enter(x)[0]
        return x_n if self.tifo is None else tifo.transform(x_n, *self.tifo.weights()[:2])[0]

    def loss_grads(self, x: np.ndarray, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """(training loss, parameter gradients); targets is ``norm.targets``
        of the forecast windows."""
        x_t, ctx = self.norm.enter(x)
        if self.tifo is not None:
            weights = self.tifo.weights()
            x_t, spectrum = tifo.transform(x_t, *weights[:2])
        y_n, bb_cache = self.backbone.forward(x_t)
        loss, upstream, norm_grads = self.norm.loss(y_n, ctx, targets)
        bb_grads, g_xt = self.backbone.vjp(x_t, bb_cache, upstream, input_grad=self.tifo is not None)
        grads = _namespace("backbone", bb_grads)
        grads.update(_namespace(self.norm.name, norm_grads))
        if self.tifo is not None:
            grads.update(_namespace("tifo", self.tifo.vjp(spectrum, weights, g_xt)))
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
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        for key in ("batch", "max_epochs", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_val_mse: float
    epochs_run: int


def _epoch(adam: Adam, n: int, batch: int, rng: np.random.Generator, step, stage: str) -> tuple[float, int]:
    """One pass over n windows in one random order, shared by both training
    stages.  ``step(sel) -> (loss, grads)`` handles the batch of window
    indices ``sel`` and Adam takes the grads.  Returns the window-weighted
    mean loss and the number of steps Adam rejected; a non-finite loss
    raises NumericError naming ``stage`` and the batch."""
    perm = rng.permutation(n)
    loss_sum = 0.0
    rejected = 0
    for start in range(0, n, batch):
        sel = perm[start : start + batch]
        loss, grads = step(sel)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at {stage}, batch {start // batch}")
        rejected += not adam.step(grads)
        loss_sum += loss * sel.size
    return loss_sum / n, rejected


def train_san_predictor(
    pipeline: Pipeline,
    x_train: np.ndarray,
    y_train: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> int:
    """Stage one: fit the frozen patch-statistic predictor on train windows
    for the ``san_epochs``, at the main loop's batch size and learning rate.
    Returns the number of steps Adam rejected.

    The loss is the mean and variance targets' MSEs, weighted equally.  The
    predictor tensors live in ``pipeline.frozen`` and stay fixed afterwards.
    """
    params = pipeline.norm.frozen
    mu_x, var_x = baselines.san_patch_stats(x_train, pipeline.norm.patch)
    mu_y, var_y = baselines.san_patch_stats(y_train, pipeline.norm.patch)
    adam = Adam(params, lr=cfg.lr)

    def step(sel):
        mu_hat, var_hat, cache = baselines.san_predict(params, mu_x[sel], var_x[sel])
        loss_mu, g_mu = _mse_upstream(mu_hat, mu_y[sel])
        loss_var, g_var = _mse_upstream(var_hat, var_y[sel])
        return loss_mu + loss_var, baselines.san_predict_vjp(params, cache, g_mu, g_var)

    n = x_train.shape[0]
    return sum(_epoch(adam, n, cfg.batch, rng, step, f"SAN stage one epoch {epoch}")[1]
               for epoch in range(1, pipeline.cfg.san.epochs + 1))


def _check_split(x, y, x_name: str, y_name: str) -> None:
    """Reject a split whose input and target windows differ in number, or
    that holds no window."""
    if len(x) != len(y) or len(x) == 0:
        raise DataError(f"{x_name} has {len(x)} windows and {y_name} has {len(y)}: a split needs one "
                        f"forecast window per lookback window, and at least one")


def check_eval_settings(method: str, batch: int, alpha: float | None = None,
                        ema_decay: float | None = None) -> None:
    """``evaluate``'s rules for its settings on a model of ``method``, which
    callers can apply before any training: alpha and ema_decay need the
    re-weighting layer, batch is at least 1, alpha lies in [0, 1] and
    ema_decay strictly inside (0, 1)."""
    if (alpha is not None or ema_decay is not None) and not COMPOSITION[method][1]:
        raise ConfigError(f"method {method!r} accepts neither alpha nor ema_decay")
    if batch < 1:
        raise ConfigError(f"eval_batch must be at least 1, got {batch}")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    if ema_decay is not None and not 0.0 < ema_decay < 1.0:
        raise ConfigError(f"ema_decay must lie strictly inside (0, 1), got {ema_decay}")


def evaluate(
    pipeline: Pipeline,
    x: np.ndarray,
    y: np.ndarray,
    batch: int = 256,
    alpha: float | None = None,
    ema_decay: float | None = None,
) -> dict[str, float]:
    """Mean MSE/MAE over a split, in fixed batch order.

    alpha, in [0, 1], rescales the spectral weights toward identity
    (score-driven methods only).  ema_decay, if set, strictly inside (0, 1),
    refreshes the stability scores from each batch of at least two windows
    before weighting (a one-window batch has no spread to score and keeps the
    running scores); the pipeline's stored scores are not modified.  A batch
    whose squared forecast error is not finite raises NumericError naming it;
    x and y holding different numbers of windows, or none, raise DataError.

    With the re-weighting layer, forecasts are read off the spectrum (see
    ``Pipeline.head``): each batch takes one forward DFT, which also gives
    the refresh's amplitude panel under the rectangular window, and no
    inverse one.  The folded head is formed once per call, and the weight
    table once per score table: once for the split without ema_decay, once
    per refreshing batch with it.
    """
    check_eval_settings(pipeline.method, batch, alpha, ema_decay)
    _check_split(x, y, "x", "y")
    running_scores = None if ema_decay is None else pipeline.tifo.scores.copy()
    fold = None if pipeline.tifo is None else pipeline.backbone.fold(pipeline.tifo.basis)
    weights = spectrum = None
    sq_sum = 0.0
    abs_sum = 0.0
    for start in range(0, x.shape[0], batch):
        # a window view's batch is copied to the layout of a slice of owned
        # windows, so the backbone's matmul runs the same BLAS kernel on both
        xb = np.ascontiguousarray(x[start : start + batch])
        yb = np.ascontiguousarray(y[start : start + batch])
        x_n, ctx = pipeline.norm.enter(xb)
        if pipeline.tifo is not None:
            spectrum = dft_forward(x_n, axis=1)
            if running_scores is not None and xb.shape[0] >= 2:
                running_scores = ema_refresh(running_scores, pipeline.tifo.fit_scores(x_n, yb, spectrum), ema_decay)
                weights = None
            if weights is None:
                weights = pipeline.tifo.weights(alpha, running_scores)
        pred = pipeline.head(x_n, ctx, weights, fold, spectrum)
        err = pred - yb
        sq = float((err * err).sum())
        if not math.isfinite(sq):
            raise NumericError(f"non-finite forecast error at evaluation batch {start // batch}")
        sq_sum += sq
        abs_sum += float(np.abs(err).sum())
    return {"mse": sq_sum / y.size, "mae": abs_sum / y.size}


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
    there, and ``rejected`` counts SAN stage one's rejected steps); rows 1..E
    are full epochs.  The best-validation parameters are restored before
    returning.  Both stages run through ``_epoch``: a non-finite training loss
    aborts with NumericError, and non-finite gradients reject the single step
    and are counted in the row's ``rejected`` column.  A split whose x and y
    differ in window count, or hold none, raises DataError before any step.
    """
    _check_split(x_train, y_train, "x_train", "y_train")
    _check_split(x_val, y_val, "x_val", "y_val")
    stage_one = isinstance(pipeline.norm, SanNorm)
    stage_one_rejected = train_san_predictor(pipeline, x_train, y_train, cfg, rng) if stage_one else 0
    adam = Adam(pipeline.params, lr=cfg.lr)
    vector = pipeline.params.vector
    targets = pipeline.norm.targets(y_train)

    def step(sel):
        return pipeline.loss_grads(x_train[sel], targets[sel])

    def row(epoch, train_mse, rejected):
        val = evaluate(pipeline, x_val, y_val)
        return {"epoch": epoch, "train_mse": train_mse, "val_mse": val["mse"], "val_mae": val["mae"],
                "rejected": rejected}

    history = [row(0, float("nan"), stage_one_rejected)]
    # Best tracking starts at +inf so the first trained epoch always counts
    # as an improvement; the init row is diagnostic, not a baseline.
    best_val = float("inf")
    best_epoch = 0
    best_state = vector.copy()
    for epoch in range(1, cfg.max_epochs + 1):
        history.append(row(epoch, *_epoch(adam, x_train.shape[0], cfg.batch, rng, step, f"epoch {epoch}")))
        val_mse = history[-1]["val_mse"]
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            np.copyto(best_state, vector)
        elif epoch - best_epoch >= cfg.patience:
            break
    np.copyto(vector, best_state)
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        epochs_run=epoch,  # max_epochs >= 1, so the loop ran
    )
