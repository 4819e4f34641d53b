"""Command-line driver.

    specshift <command> [--config FILE] [key=value ...]

Commands: synth, stats, train, eval, shift, ablate; ``--config`` may sit
anywhere among the arguments.  Overrides apply on top of the config file.
Exit codes: 0 success, 2 configuration problem, 3 bad input data, 4 numeric
failure (NaN loss), 5 incompatible checkpoint.  Each comes from the class
of the ``SpecshiftError`` raised, which ``main`` reports
as one ``<label> error: <message>`` line on stderr, dropping the warnings
the command raised on its way; a successful command's warnings are passed on
once it returns.  Any other exception is a fault in the program: it
propagates with its traceback (status 1).

Each command begins with one config pass: it forms every config it reads
(the model's ``PipelineConfig``, ``TrainConfig`` with the seed, its eval
settings, the lookback/horizon rule, its data source's synth_* spec, whose
channel count a set ``channels`` must match), so every rule that needs no
data exits 2 before any data or checkpoint is read.  Then it creates the
output directory, and only then reads.  Two rules wait: a set ``channels``
must match a CSV's count, and ``eval``'s alpha and ema_decay need a
``tifo*`` model, which only the checkpoint names.  A command that fails
leaves no directory it created behind: ``main`` notes which directories on
``out``'s path are missing before the command runs, and on a
``SpecshiftError`` removes those that are still empty.

Once a command returns, ``main`` writes ``config.txt`` (the resolved
configuration, reparseable) into the output directory next to its artifacts.
Floats are printed with six significant digits.  ``eval`` and ``shift`` take
the model keys (``MODEL_KEYS``: lookback, horizon, method, backbone, alpha,
...) from the checkpoint, so their ``config.txt`` records the model they ran;
``shift`` keeps its own ``window``, the analysis window of the spectra it
compares.  A checkpoint must carry the scaler its model was trained under,
with a mean and a positive scale per channel, and every tensor its model
takes; one check per tensor asks that it be present, of its shape and finite,
and names the checkpoint and the tensor when it is not.  Tensors the model
does not take are ignored.  The header's ``seed`` is not read: the rebuilt
model's initial draws are all overwritten, so it is built from seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .. import data as datamod
from ..baselines import FanConfig, SanConfig
from ..errors import CheckpointError, ConfigError, SpecshiftError
from ..models import BackboneConfig
from ..shiftmetrics import shift_report
from ..spectral import n_bins
from ..stationarity import amplitude_panel, check_score_bins, scores as stability_scores
from ..tifo import TifoConfig
from ..training import (
    COMPOSITION,
    PipelineConfig,
    TrainConfig,
    build_pipeline,
    check_eval_settings,
    check_eval_values,
    evaluate,
    train,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_from_echo, echo_config, load_config, parse_list


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _round6(value: float) -> float:
    return float(_fmt(value))


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out={cfg.out}: cannot create the output directory: {exc.strerror}") from None
    return out


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row; a float cell gets six significant digits, any other its str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _synthetic_spec(cfg: RunConfig) -> datamod.SyntheticSpec:
    if cfg.synth_preset:  # the whole series: no data, and no other synth_* key off its default
        clash = [f.name for f in dataclasses.fields(cfg) if f.name == "data" or f.name.startswith("synth_")
                 if f.name != "synth_preset" and getattr(cfg, f.name) != f.default]
        if clash:
            raise ConfigError(f"synth_preset={cfg.synth_preset} fixes the series; drop {', '.join(clash)}")
        if cfg.synth_preset == "shift_bench":
            return datamod.shift_benchmark(cfg.seed)
        raise ConfigError(f"unknown synth_preset {cfg.synth_preset!r}")
    if not cfg.synth_mix:
        raise ConfigError("no data path given and no synth_preset/synth_mix to generate from")
    noise_overrides = parse_list(cfg, "synth_noise_by_condition", "float")
    conditions = []
    for idx, chunk in enumerate(cfg.synth_mix.split("|")):
        comps = []
        for comp in chunk.split(","):
            comp = comp.strip()
            if not comp:
                continue
            try:
                freq_s, amp_s = comp.split(":")
                comps.append((int(freq_s), float(amp_s)))
            except ValueError:
                raise ConfigError(f"synth_mix component {comp!r} is not bin:amplitude") from None
        if not comps:
            raise ConfigError(f"synth_mix condition {idx} is empty")
        noise = noise_overrides[idx] if idx < len(noise_overrides) else None
        conditions.append(datamod.Condition(components=tuple(comps), noise=noise))
    if len(noise_overrides) > len(conditions):
        raise ConfigError(f"synth_noise_by_condition has {len(noise_overrides)} values, more than the "
                          f"{len(conditions)} condition(s) of synth_mix")
    return datamod.SyntheticSpec(
        conditions=tuple(conditions),
        samples_per_condition=cfg.synth_samples,
        sample_length=cfg.synth_len,
        channels=cfg.synth_channels,
        noise=cfg.synth_noise,
        amp_jitter=cfg.synth_jitter,
        seed=cfg.seed,
    )


def _check_channels(cfg: RunConfig, channels: int, data: str = "", error: type = ConfigError) -> None:
    """A non-zero cfg.channels, the user's key or (with CheckpointError) the
    count a checkpoint's model was trained on, must equal ``channels``, the
    count of the ``data`` CSV or, without one, of the synthetic series."""
    if cfg.channels not in (0, channels):
        source = data or ("synth_preset" if cfg.synth_preset else "synth_channels")
        raise error(f"channels={cfg.channels}, but {source} has {channels}")


def _source(cfg: RunConfig, check_dataset: bool = False) -> str | datamod.SyntheticSpec:
    """What ``_dataset`` reads, formed and checked without reading it: cfg's
    CSV path, or the spec of the series its synth_* keys generate.  With
    check_dataset, also the rules ``_dataset`` applies without a checkpoint
    that need no data: a set cfg.channels against a generated series' count,
    then the window sizes."""
    source = cfg.data if cfg.data and not cfg.synth_preset else _synthetic_spec(cfg)
    if check_dataset:
        if not isinstance(source, str):
            _check_channels(cfg, source.channels)
        datamod.check_window_sizes(cfg.lookback, cfg.horizon)
    return source


def _dataset(cfg: RunConfig, source, scaler: datamod.Scaler | None = None) -> datamod.Dataset:
    """The series of a ``_source``, windowed by cfg's lookback and horizon and
    z-scored: with a scaler fitted on the train split, or with a checkpoint's
    scaler, whose model has cfg.channels."""
    series = datamod.load_csv(source) if isinstance(source, str) else datamod.synthetic_series(source)
    _check_channels(cfg, series.shape[1], cfg.data, ConfigError if scaler is None else CheckpointError)
    return datamod.build_dataset(series, cfg.lookback, cfg.horizon, scaler)


def _eval_settings(cfg: RunConfig, alpha: float | None, ema_decay: float) -> dict:
    """``evaluate``'s keyword settings for cfg's model, checked by its rules so
    that a command can reject them before any training: alpha None keeps the
    trained one, ema_decay 0 means no score refresh."""
    settings = {"batch": cfg.eval_batch, "alpha": alpha, "ema_decay": None if ema_decay == 0 else ema_decay}
    check_eval_settings(cfg.method, **settings)
    return settings


def _pipeline_config(cfg: RunConfig) -> PipelineConfig:
    """cfg's model keys, checked by every rule of ``PipelineConfig`` and of its
    blocks' configs, none of which needs data; channels is cfg's, 0 (from
    the data) unless set."""
    return PipelineConfig(
        method=cfg.method,
        backbone=BackboneConfig(kind=cfg.backbone, lookback=cfg.lookback, horizon=cfg.horizon, channels=cfg.channels,
                                shared=cfg.shared_linear, kernel=cfg.dlinear_kernel),
        tifo=TifoConfig(hidden=cfg.hidden, alpha=cfg.alpha, keep=None if cfg.keep == 0 else cfg.keep,
                        score_metric=cfg.score_metric, score_eps=cfg.score_eps, window=cfg.window),
        san=SanConfig(patch=cfg.san_patch, hidden=cfg.san_hidden, epochs=cfg.san_epochs),
        fan=FanConfig(topk=cfg.fan_topk),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> None:
    if cfg.data:
        raise ConfigError(f"synth generates its series from the synth_* keys; drop data={cfg.data}")
    spec = _synthetic_spec(cfg)
    series = datamod.synthetic_series(spec)
    _check_channels(cfg, series.shape[1])
    out = _out_dir(cfg)
    _write_csv(out / "synthetic.csv", ",".join(f"c{i}" for i in range(series.shape[1])),
               ([repr(float(v)) for v in row] for row in series))
    ranges = datamod.condition_ranges(spec)
    _write_json(out / "segments.json", {"condition_rows": ranges})
    print(f"wrote {series.shape[0]} rows x {series.shape[1]} channels to {out / 'synthetic.csv'}")
    for idx, (lo, hi) in enumerate(ranges):
        print(f"condition {idx}: rows [{lo}, {hi})")


def cmd_stats(cfg: RunConfig) -> None:
    scoring = TifoConfig(score_metric=cfg.score_metric, score_eps=cfg.score_eps, window=cfg.window)
    source = _source(cfg, check_dataset=True)
    check_score_bins(scoring.score_metric, n_bins(cfg.lookback))
    out = _out_dir(cfg)
    ds = _dataset(cfg, source)
    panel = amplitude_panel(ds.x_train, scoring.window)
    table = stability_scores(panel, scoring.score_metric, targets=ds.y_train, eps=scoring.score_eps)
    mu = panel.mean(axis=0)
    sigma = panel.std(axis=0)
    _write_csv(out / "scores.csv", "channel,freq_index,mean,std,score",
               ((c, k, mu[k, c], sigma[k, c], table[k, c])
                for c in range(table.shape[1]) for k in range(table.shape[0])))
    for c in range(table.shape[1]):
        top = np.argsort(-table[:, c], kind="stable")[:3]
        desc = ", ".join(f"bin {int(k)}: {_fmt(table[k, c])}" for k in top)
        print(f"channel {c} ({cfg.score_metric}): most stable {desc}")


def _train_config(cfg: RunConfig) -> TrainConfig:
    """cfg's training keys, which no data can change: checked, with the
    seed, before a command reads its data."""
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    return TrainConfig(lr=cfg.lr, batch=cfg.batch, max_epochs=cfg.max_epochs, patience=cfg.patience)


def _train_once(pcfg: PipelineConfig, seed: int, ds: datamod.Dataset, tcfg: TrainConfig):
    """A pipeline of pcfg's model at ds's channel count, drawn from seed and
    trained on ds; returns (pipeline, ``TrainResult``)."""
    pcfg = dataclasses.replace(pcfg, backbone=dataclasses.replace(pcfg.backbone, channels=ds.channels))
    rng = np.random.default_rng(seed)
    pipeline = build_pipeline(pcfg, rng, ds.x_train, ds.y_train)
    return pipeline, train(pipeline, ds.x_train, ds.y_train, ds.x_val, ds.y_val, tcfg, rng)


def cmd_train(cfg: RunConfig) -> None:
    settings = _eval_settings(cfg, None, 0.0)
    tcfg = _train_config(cfg)
    source = _source(cfg, check_dataset=True)
    pcfg = _pipeline_config(cfg)
    out = _out_dir(cfg)
    ds = _dataset(cfg, source)
    cfg.channels = ds.channels
    pipeline, result = _train_once(pcfg, cfg.seed, ds, tcfg)
    if pipeline.tifo is not None:
        print(f"fitted {cfg.score_metric} stability scores on the train split")
    test = evaluate(pipeline, ds.x_test, ds.y_test, **settings)
    tensors = pipeline.tensors()
    tensors["scaler.mu"] = ds.scaler.mu
    tensors["scaler.sigma"] = ds.scaler.sigma
    save_checkpoint(str(out / "model.ckpt"), echo_config(cfg), tensors)
    _write_csv(out / "history.csv", "epoch,train_mse,val_mse,val_mae,lr,rejected",
               ((r["epoch"], r["train_mse"], r["val_mse"], r["val_mae"], cfg.lr, r["rejected"])
                for r in result.history))
    print(
        f"trained {cfg.method}/{cfg.backbone}: best val mse {_fmt(result.best_val_mse)} "
        f"(epoch {result.best_epoch}, ran {result.epochs_run})"
    )
    print(f"test mse {_fmt(test['mse'])} mae {_fmt(test['mae'])}")
    print(f"checkpoint: {out / 'model.ckpt'}")


# the RunConfig keys that define a trained model, which eval and shift take from its checkpoint
MODEL_KEYS = (
    "lookback", "horizon", "channels", "backbone", "method", "shared_linear", "dlinear_kernel",
    "hidden", "score_metric", "score_eps", "window", "keep", "alpha", "san_patch", "san_hidden",
    "fan_topk",
)


def _load_model(cfg: RunConfig):
    """(pipeline, training-time config, scaler) from cfg.checkpoint, which
    reads no data; cfg takes the checkpoint's ``MODEL_KEYS``.  The scaler and
    every tensor the model takes must be present, of their shapes and finite,
    and are copied in over a pipeline drawn from seed 0: the header's seed is
    not read.  Tensors the model does not take are ignored."""
    echo, tensors = load_checkpoint(cfg.checkpoint)
    try:  # a bad header value is the checkpoint's fault, not the command line's
        ck_cfg = config_from_echo(echo)
        if ck_cfg.channels < 1:
            raise CheckpointError(f"{cfg.checkpoint}: header lacks a channel count")
        pipeline_cfg = _pipeline_config(ck_cfg)
    except ConfigError as exc:
        raise CheckpointError(f"{cfg.checkpoint}: {exc}") from None

    def checked(name: str, shape: tuple) -> np.ndarray:
        tensor = tensors.get(name)
        if tensor is None:
            raise CheckpointError(f"{cfg.checkpoint}: checkpoint lacks tensor {name}")
        if tensor.shape != shape:
            raise CheckpointError(f"{cfg.checkpoint}: tensor {name}: shape {tensor.shape} "
                                  f"does not match expected {shape}")
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"{cfg.checkpoint}: tensor {name} is not finite")
        return tensor

    # the scaler is checked before any model is built, so a huge channel count allocates nothing
    mu, sigma = (checked(name, (ck_cfg.channels,)) for name in ("scaler.mu", "scaler.sigma"))
    if not (sigma > 0).all():
        raise CheckpointError(f"{cfg.checkpoint}: tensor scaler.sigma is not positive")
    pipeline = build_pipeline(pipeline_cfg, np.random.default_rng(0))  # every draw is overwritten below
    for name, own in pipeline.tensors().items():
        own[...] = checked(name, own.shape)
    for key in MODEL_KEYS:
        setattr(cfg, key, getattr(ck_cfg, key))
    return pipeline, ck_cfg, datamod.Scaler(mu=mu, sigma=sigma)


def _rebuild(cfg: RunConfig):
    """(pipeline, training-time config, dataset): ``_load_model``, then cfg's
    data under the checkpoint's scaler."""
    pipeline, ck_cfg, scaler = _load_model(cfg)
    return pipeline, ck_cfg, _dataset(cfg, _source(cfg), scaler)


def cmd_eval(cfg: RunConfig) -> None:
    # only the rule that ties alpha and ema_decay to the method waits for the
    # checkpoint's method
    alphas = parse_list(cfg, "alphas", "float")
    for a in alphas or [None]:
        check_eval_values(cfg.eval_batch, a, cfg.ema_decay or None)
    if not cfg.checkpoint:
        raise ConfigError("this command needs checkpoint=<path>")
    _source(cfg)  # checked now; _rebuild forms it again, as no model key reaches it
    out = _out_dir(cfg)
    pipeline, _, ds = _rebuild(cfg)
    alphas = alphas or [cfg.alpha if pipeline.tifo is not None else None]
    sweep = [_eval_settings(cfg, a, cfg.ema_decay) for a in alphas]  # every point passes before the first runs
    results = []
    for a, settings in zip(alphas, sweep):
        metrics = evaluate(pipeline, ds.x_test, ds.y_test, **settings)
        results.append({"alpha": a, "mse": _round6(metrics["mse"]), "mae": _round6(metrics["mae"])})
        tag = "" if a is None else f"alpha {_fmt(a)}: "
        print(f"{tag}test mse {_fmt(metrics['mse'])} mae {_fmt(metrics['mae'])}")
    _write_json(out / "metrics.json", {"test": results})


def _aggregate(report: dict) -> dict:
    return {k: _round6(v) for k, v in report["aggregate"].items()}


def _reduction(before: dict, after: dict) -> dict:
    """Relative shrink of each aggregate, 1 - after/before (0 where before is 0)."""
    out = {}
    for key, b in before["aggregate"].items():
        a = after["aggregate"][key]
        out[key] = _round6(1.0 - a / b) if b else 0.0
    return out


def cmd_shift(cfg: RunConfig) -> None:
    # the analysis window is the command's, not the model's; a checkpoint's
    # model brings its own sizes
    window = TifoConfig(window=cfg.window).window
    if cfg.hist_bins < 1:
        raise ConfigError(f"hist_bins must be positive, got {cfg.hist_bins}")
    source = _source(cfg, check_dataset=not cfg.checkpoint)
    out = _out_dir(cfg)
    pipeline, _, ds = _rebuild(cfg) if cfg.checkpoint else (None, None, _dataset(cfg, source))
    cfg.window = window

    def report(stage: str, panel_train, panel_test) -> dict:
        return shift_report(panel_train, panel_test, bins=cfg.hist_bins,
                            names=(f"{stage} train panel", f"{stage} test panel"))

    (before_train, after_train), (before_test, after_test) = (
        pipeline.panels(x, window) if pipeline is not None else (amplitude_panel(x, window), None)
        for x in (ds.x_train, ds.x_test))
    before = report("before", before_train, before_test)
    after = note = None
    if after_train is not None:
        after = report("after", after_train, after_test)
    elif pipeline is not None:
        note = f"method {pipeline.method!r} does not transform its input; After omitted"
    blank = np.full(before["jsd2"].shape, np.nan)
    columns = [r[metric] if r else blank for metric in ("jsd2", "ks") for r in (before, after)]
    k, c = before["jsd2"].shape
    _write_csv(out / "shift.csv", "channel,freq_index,jsd2_before,jsd2_after,ks_before,ks_after",
               ((ci, ki, *(col[ki, ci] for col in columns)) for ci in range(c) for ki in range(k)))
    summary = {
        "before": _aggregate(before),
        "after": _aggregate(after) if after else None,
        "reduction": _reduction(before, after) if after else None,
    }
    if note:
        summary["note"] = note
    _write_json(out / "summary.json", summary)
    print(f"before: mean jsd2 {_fmt(before['aggregate']['jsd2_mean'])} mean ks {_fmt(before['aggregate']['ks_mean'])}")
    if after:
        print(f"after:  mean jsd2 {_fmt(after['aggregate']['jsd2_mean'])} mean ks {_fmt(after['aggregate']['ks_mean'])}")
        red = summary["reduction"]
        print(f"reduction: jsd2 {_fmt(red['jsd2_mean'])} ks {_fmt(red['ks_mean'])}")
    elif note:
        print(note)


# (RunConfig key, comma-list key, token kind) per ablation axis, in the order of
# the ablate.csv columns and, outermost first, of its rows.  ema_decay must stay
# last: it acts only at evaluation, so each trained model serves every value.
ABLATE_AXES = (
    ("score_metric", "ablate_metrics", "str"),
    ("window", "ablate_windows", "str"),
    ("keep", "ablate_keeps", "int"),
    ("alpha", "ablate_alphas", "float"),
    ("ema_decay", "ablate_emas", "float"),
)


def cmd_ablate(cfg: RunConfig) -> None:
    if cfg.repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {cfg.repeats}")
    tcfg = _train_config(cfg)  # no axis changes a training key
    *train_axes, emas = [parse_list(cfg, key, kind) or [getattr(cfg, name)] for name, key, kind in ABLATE_AXES]
    train_names = [name for name, _, _ in ABLATE_AXES[:-1]]
    cells = list(itertools.product(*train_axes))
    source = _source(cfg, check_dataset=True)
    # every cell's model, and the eval settings at every ema value, pass their rules
    # before the data is read.  The settings read only method and eval_batch, which no
    # axis changes, so every cell shares them; alpha None evaluates at the cell's own alpha
    pcfgs = [_pipeline_config(dataclasses.replace(cfg, **dict(zip(train_names, cell)))) for cell in cells]
    settings = [_eval_settings(cfg, None, ema) for ema in emas]
    out = _out_dir(cfg)
    ds = _dataset(cfg, source)
    # per training cell, or () for all of a method without a re-weighting layer (no axis
    # reaches its models): each repeat's metrics at every ema value
    results = {}
    rows = []
    for cell, pcfg in zip(cells, pcfgs):
        key = cell if COMPOSITION[cfg.method][1] else ()
        if key not in results:
            # trained one at a time, as the list below draws them
            models = (_train_once(pcfg, cfg.seed + rep, ds, tcfg)[0] for rep in range(cfg.repeats))
            results[key] = [[evaluate(model, ds.x_test, ds.y_test, **s) for s in settings]
                            for model in models]
        for ema, metrics in zip(emas, zip(*results[key])):
            mses = [m["mse"] for m in metrics]
            maes = [m["mae"] for m in metrics]
            rows.append((*cell, ema, cfg.repeats, np.mean(mses), np.std(mses), np.mean(maes), np.std(maes)))
    header = ",".join(name for name, _, _ in ABLATE_AXES) + ",repeats,mse_mean,mse_std,mae_mean,mae_std"
    _write_csv(out / "ablate.csv", header, rows)
    print(f"ablation wrote {len(rows)} cells x {cfg.repeats} repeats to {out / 'ablate.csv'}")


COMMANDS = {
    "synth": cmd_synth,
    "stats": cmd_stats,
    "train": cmd_train,
    "eval": cmd_eval,
    "shift": cmd_shift,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="specshift", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("overrides", nargs="*", default=[], help="key=value overrides")  # a default keeps it optional
    args = parser.parse_intermixed_args(argv)  # --config may sit before, between or after the rest
    made = []
    try:
        # numpy's warnings are held back: a failed command reports its one
        # error line alone, a successful one passes them on afterwards
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_config(args.config, list(args.overrides))
            out = Path(cfg.out)
            made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
            COMMANDS[args.command](cfg)
            (_out_dir(cfg) / "config.txt").write_text(echo_config(cfg))
    except SpecshiftError as exc:
        for d in made:  # what the command created on out's path, if it is still empty
            with contextlib.suppress(OSError):
                d.rmdir()
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code
    registry: dict = {}  # one per call: a "default" filter shows each place once
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
    return 0
