"""Training pipelines: a normalization block, an optional spectral
re-weighting layer and a backbone, composed per method by ``COMPOSITION``;
an Adam optimizer, the early-stopping loop and evaluation.

Gradients come from composing explicit per-block VJPs; there is no
general-purpose tape.  Each block owns its forward and its VJP, and
``Pipeline.loss_grads`` only chains them.  A normalization block's output
map is written once, in ``leave``, which returns the forecast with its
pullback; the training loss is the MSE of that forecast, run back through
the pullback, so the model that trains is the model that forecasts.  The
re-weighting layer's forward is ``tifo.transform`` with the table
``TifoLayer.weights`` forms; ``TifoLayer.vjp`` reads the spectrum it
returns and that table.  The baseline blocks (RevIN, SAN, FAN) hold their
normalize, denormalize and combine arithmetic here and call ``baselines``
for the statistics and learned nets.

Every block (the backbone, the normalization block, the re-weighting layer)
has a ``name`` and two dicts of tensors under un-prefixed keys, ``params``
and ``frozen``.  A pipeline merges them, block by block, into two groups
whose tensors are named ``<block>.<key>``:

* ``params``  - trainable, updated by Adam, checkpointed
* ``frozen``  - fixed state (stability scores, pretrained patch predictor,
  FAN's combination weights), checkpointed but never updated by the main loop

``params`` is a ``TensorGroup``: every trainable tensor is a view of one
contiguous float64 vector, and each block's ``params`` is its dict of those
views.  The patch predictor that stage one trains is a second group.
``Adam`` updates its group with one vector operation, and ``train`` keeps and
restores the best state with one copy.

Training runs the re-weighting layer on the FFT path (DFT, weights, inverse
DFT, backbone).  Forecasts without gradients come from one batch loop,
``_forecasts``, which ``evaluate`` sums its errors over and ``predict`` runs
for a single batch.  It uses that the composition is linear for a fixed
weight table: a forecast is one linear map of the weighted spectrum, the
backbone folded with the inverse DFT over the kept bins.  ``shift``'s After
panels are read off the spectrum too: ``Pipeline.panels`` takes the
amplitude of the weighted spectrum under the rectangular window, so the
masked bins are exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines, tifo
from .errors import ConfigError, DataError, NumericError
from .models import Backbone, BackboneConfig, dense
from .shiftmetrics import chunked
from .spectral import amplitude, dft_forward, n_bins
from .stationarity import amplitude_panel, check_score_bins, ema_refresh, scores as stability_scores


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
        if reweight:
            check_score_bins(self.tifo.score_metric, n_bins(lookback))
        if norm_cls is SanNorm and (lookback % patch or horizon % patch):
            raise ConfigError(f"san_patch must divide lookback {lookback} and horizon {horizon}, got {patch}")
        bins = min(n_bins(lookback), n_bins(horizon))
        if norm_cls is FanNorm and topk > bins:
            raise ConfigError(f"fan_topk must be at most {bins} for lookback {lookback} and horizon {horizon}, "
                              f"got {topk}")


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
    entered one by one.  ``leave(y_n, ctx) -> (y, pullback)`` maps the
    backbone output back: the one place a block's output map is written,
    where its learned parts run.  ``pullback(g) -> (g_n, grads)`` takes the
    forecast's cotangent to the backbone output's and the block's own
    parameter gradients.

    ``loss(y_n, ctx, targets) -> (loss, g_n, grads)`` is the training loss,
    the MSE of ``leave``'s forecast against ``targets(y)``, the one form of
    the forecast windows it takes (``train`` forms it once per split), run
    back through ``leave``'s pullback.  Only FAN overrides ``targets`` and
    ``loss``; its ``leave`` gives no pullback.

    ``ctx`` belongs to the caller; no forward or loss call changes a block.
    ``name``, ``params`` and ``frozen`` are the block contract ``Pipeline``
    describes.
    """

    name = "identity"

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        self.params: dict[str, np.ndarray] = {}
        self.frozen: dict[str, np.ndarray] = {}

    def enter(self, x):
        return x, None

    def leave(self, y_n, ctx):
        return y_n, lambda g: (g, {})

    def targets(self, y):
        return y

    def loss(self, y_n, ctx, targets):
        y, pullback = self.leave(y_n, ctx)
        loss, upstream = _mse_upstream(y, targets)
        return (loss, *pullback(upstream))


class RevinNorm(NormBlock):
    """Per-window z-scoring with a learnable per-channel affine on the way out."""

    name = "revin"

    def __init__(self, cfg, rng):
        channels = cfg.backbone.channels
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.frozen = {}

    def enter(self, x):
        mu, sigma = baselines.revin_stats(x)
        return (x - mu) / sigma, (mu, sigma)

    def leave(self, y_n, ctx):
        """gamma * (y_n * sigma + mu) + beta, per channel."""
        (mu, sigma), gamma = ctx, self.params["gamma"]
        y = y_n * sigma + mu
        return gamma * y + self.params["beta"], lambda g: (
            g * gamma * sigma, {"gamma": (g * y).sum(axis=(0, 1)), "beta": g.sum(axis=(0, 1))})


class SanNorm(NormBlock):
    """Patch-statistic normalization; the statistics predictor trains in a
    first stage (``train_san_predictor``) and stays frozen afterwards.
    ``enter`` hands back the input's patch statistics, from which ``leave``
    predicts the output's per-step (shift, scale)."""

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
        mu_x, var_x = baselines.san_patch_stats(x, self.patch)
        shift, scale = self.steps(mu_x, var_x)
        return (x - shift) / scale, (mu_x, var_x)

    def split_stats(self, x):
        """``san_patch_stats`` of a whole split of windows, one pass of
        ``shiftmetrics.chunked``."""
        return chunked(lambda part: baselines.san_patch_stats(part, self.patch), x)

    def leave(self, y_n, ctx):
        shift, scale = self.steps(*baselines.san_predict(self.frozen, *ctx)[:2])
        return y_n * scale + shift, lambda g: (g * scale, {})


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
        x_main, x_res = baselines.main_frequency_split(x, self.topk)
        return x_res, (x_main, x)

    def leave(self, y_n, ctx):
        w, y_main = self.frozen["combine"], baselines.fan_freq_forward(self.params, *ctx)[0]
        return w[0] * y_n + w[1] * y_main, None

    def targets(self, y):
        """Main and residual parts of the forecast windows, stacked on axis 1,
        one pass of ``shiftmetrics.chunked``."""
        return chunked(lambda part: np.stack(baselines.main_frequency_split(part, self.topk), axis=1), y)

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
    at that table's alpha, ``panel`` takes normalized windows to their
    amplitude panel under the layer's analysis window, and ``fit_scores``
    turns a panel into a score table.

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

    def panel(self, x_n: np.ndarray, spectrum=None) -> np.ndarray:
        """Amplitude panel of normalized windows under the layer's analysis
        window; under the rectangular window, the amplitude of x_n's
        (real, imag) ``spectrum`` from ``dft_forward``, when one is given."""
        if spectrum is not None and self.cfg.window == "rectangular":
            return amplitude(*spectrum)
        return amplitude_panel(x_n, self.cfg.window)

    def fit_scores(self, panel: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(K, C) stability scores of a ``panel`` and its windows' targets."""
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

    ``blocks`` is ``[backbone, norm, tifo]``, the layer only when the method
    composes it.  Each block has a ``name`` and two dicts under un-prefixed
    keys, ``params`` (trainable) and ``frozen``.  The pipeline's ``params``
    (a ``TensorGroup``) and ``frozen`` merge them in ``blocks`` order under
    ``<block>.<key>`` names, which checkpoints store, and ``loss_grads``
    names its gradients the same way; each block's ``params`` is then its
    dict of views into the group.  The backbone draws from the rng first,
    then the re-weighting layer, then the normalization block.
    """

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        # every block sizes a tensor by the channel count, which the config may leave to the data
        if cfg.backbone.channels < 1:
            raise ConfigError(f"a pipeline needs at least 1 channel, got channels={cfg.backbone.channels}")
        norm_cls, reweight = COMPOSITION[cfg.method]
        self.cfg = cfg
        self.method = cfg.method
        self.backbone = Backbone(cfg.backbone, rng)
        self.tifo = TifoLayer(cfg, rng) if reweight else None
        self.norm = norm_cls(cfg, rng)
        self.blocks = [block for block in (self.backbone, self.norm, self.tifo) if block is not None]
        self.params = TensorGroup(self._named([block.params for block in self.blocks]))
        self.frozen = self._named([block.frozen for block in self.blocks])
        for block in self.blocks:
            block.params = {key: self.params[f"{block.name}.{key}"] for key in block.params}

    def _named(self, dicts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """One dict per block, in ``blocks`` order, merged under
        ``<block>.<key>`` names."""
        return {f"{block.name}.{key}": v for block, own in zip(self.blocks, dicts) for key, v in own.items()}

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

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecasts of every window of x, as one batch of the loop
        ``evaluate`` runs; (0, H, C) for no window."""
        return next(_forecasts(self, x, None, max(x.shape[0], 1)))

    def _reshaped(self, x: np.ndarray, table) -> np.ndarray:
        """What the backbone consumes of windows x, for a weight table from
        ``tifo.weights()`` (None without the layer)."""
        x_n = self.norm.enter(x)[0]
        return x_n if table is None else tifo.transform(x_n, *table[:2])[0]

    def transformed_input(self, x: np.ndarray) -> np.ndarray:
        """The series the backbone consumes, a new (N, L, C) array formed
        from one weight table in one pass of ``shiftmetrics.chunked``."""
        table = None if self.tifo is None else self.tifo.weights()
        return chunked(lambda part: self._reshaped(part, table), x)

    def panels(self, x: np.ndarray, window: str) -> tuple[np.ndarray, np.ndarray | None]:
        """(Before, After) amplitude panels of windows x under the analysis
        ``window``: the raw windows' and those of ``transformed_input(x)``,
        or None for After when the method leaves its input as it is.  Both
        are formed from one weight table in one pass of
        ``shiftmetrics.chunked``.

        Under the rectangular window a re-weighting layer's After panel is
        read off the weighted spectrum of ``norm.enter(x)``, one forward DFT
        and no inverse: the amplitude of ``weighted_spectrum`` at the kept
        bins and exactly 0 at the masked ones, where the time-domain route
        leaves rounding residue.  With the identity block (``tifo``) the same
        spectrum gives the Before panel.  The Hann window does not commute
        with the re-weighting, so it keeps the time-domain route.
        """
        if not self.transforms_input:
            return amplitude_panel(x, window), None
        table = None if self.tifo is None else self.tifo.weights()

        def before_after(part):
            if self.tifo is None or window != "rectangular":
                return amplitude_panel(part, window), amplitude_panel(self._reshaped(part, table), window)
            x_n = self.norm.enter(part)[0]
            spectrum = dft_forward(x_n, axis=1)
            before = amplitude(*spectrum) if x_n is part else amplitude_panel(part, window)
            weighted, k = self.tifo.weighted_spectrum(spectrum, table), self.tifo.keep
            after = np.zeros(before.shape)
            after[:, :k] = amplitude(weighted[:, :k], weighted[:, k:])
            return before, after

        return chunked(before_after, x)

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
        tifo_grads = [] if self.tifo is None else [self.tifo.vjp(spectrum, weights, g_xt)]
        return loss, self._named([bb_grads, norm_grads, *tifo_grads])


def fit_score_table(
    pipeline: Pipeline,
    x_train: np.ndarray,
    y_train: np.ndarray,
) -> np.ndarray:
    """Stability scores over the training windows as the re-weighting layer
    sees them.  The (N, K, C) panel of ``norm.enter(x_train)`` is one pass of
    ``shiftmetrics.chunked``, so the fit never holds the whole normalized
    split."""
    layer = pipeline.tifo
    panel = chunked(lambda part: layer.panel(pipeline.norm.enter(part)[0]), x_train)
    return layer.fit_scores(panel, y_train)


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
    (mu_x, var_x), (mu_y, var_y) = pipeline.norm.split_stats(x_train), pipeline.norm.split_stats(y_train)
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
    re-weighting layer, and the values pass ``check_eval_values``."""
    if (alpha is not None or ema_decay is not None) and not COMPOSITION[method][1]:
        raise ConfigError(f"method {method!r} accepts neither alpha nor ema_decay")
    check_eval_values(batch, alpha, ema_decay)


def check_eval_values(batch: int, alpha: float | None = None, ema_decay: float | None = None) -> None:
    """``evaluate``'s rules that hold on a model of any method, which callers
    can apply before they know the method: batch is at least 1, alpha lies in
    [0, 1] and ema_decay strictly inside (0, 1)."""
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

    Forecasts come from ``_forecasts``: with the re-weighting layer each
    batch takes one forward DFT, which also gives the refresh's amplitude
    panel under the rectangular window, and no inverse one.  The folded
    backbone is formed once per call, and the weight table once per score
    table: once for the split without ema_decay, once per refreshing batch
    with it.
    """
    check_eval_settings(pipeline.method, batch, alpha, ema_decay)
    _check_split(x, y, "x", "y")
    sq_sum = abs_sum = 0.0
    for i, pred in enumerate(_forecasts(pipeline, x, y, batch, alpha, ema_decay)):
        err = pred - y[i * batch : (i + 1) * batch]
        sq = float((err * err).sum())
        if not math.isfinite(sq):
            raise NumericError(f"non-finite forecast error at evaluation batch {i}")
        sq_sum += sq
        abs_sum += float(np.abs(err).sum())
    return {"mse": sq_sum / y.size, "mae": abs_sum / y.size}


def _forecasts(pipeline: Pipeline, x: np.ndarray, y: np.ndarray | None, batch: int,
               alpha: float | None = None, ema_decay: float | None = None):
    """Yield the forecast of each batch of ``batch`` windows of x, in order,
    at least one batch (no window gives one empty forecast): the one
    forward-only path.  alpha and ema_decay are ``evaluate``'s; y is read
    only by the EMA refresh.

    With the re-weighting layer a forecast is a linear map of the weighted
    spectrum, ``dense(*fold, weighted_spectrum)``: the fold
    ``backbone.fold(tifo.basis)`` holds no weight table, so one serves the
    call, and it agrees with the FFT composition, ``backbone.forward`` of
    ``tifo.transform``'s output, to rounding.
    """
    layer, table = pipeline.tifo, None
    if layer is not None:
        fold = pipeline.backbone.fold(layer.basis)
        running = None if ema_decay is None else layer.scores.copy()
    for start in range(0, max(x.shape[0], 1), batch):
        x_n, ctx = pipeline.norm.enter(x[start : start + batch])
        if layer is None:
            y_n = pipeline.backbone.forward(x_n)[0]
        else:
            spectrum = dft_forward(x_n, axis=1)
            if running is not None and x_n.shape[0] >= 2:
                batch_scores = layer.fit_scores(layer.panel(x_n, spectrum), y[start : start + batch])
                running = ema_refresh(running, batch_scores, ema_decay)
                table = None
            table = table or layer.weights(alpha, running)
            y_n = dense(*fold, layer.weighted_spectrum(spectrum, table))
        yield pipeline.norm.leave(y_n, ctx)[0]


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
