"""Command-line driver.

    specshift <command> [--config FILE] [key=value ...]

Commands: synth, stats, train, eval, shift, ablate.  Overrides apply on top
of the config file.  Exit codes: 0 success, 2 configuration problem, 3 bad
input data, 4 numeric failure (NaN loss), 5 incompatible checkpoint.  Each
comes from the class of the ``SpecshiftError`` raised, which ``main`` reports
as one ``<label> error: <message>`` line on stderr.  Any other exception is a
fault in the program: it propagates with its traceback (status 1).

Every command writes ``config.txt`` (the resolved configuration, reparseable)
into the output directory next to its artifacts.  Floats are printed with six
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .. import data as datamod
from ..baselines import FanConfig, SanConfig
from ..errors import CheckpointError, ConfigError, SpecshiftError
from ..models import BackboneConfig
from ..shiftmetrics import shift_report
from ..stationarity import amplitude_panel, scores as stability_scores
from ..tifo import TifoConfig
from ..training import (
    PipelineConfig,
    TrainConfig,
    build_pipeline,
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
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(cfg: RunConfig, out: Path) -> None:
    (out / "config.txt").write_text(echo_config(cfg))


def _synthetic_spec(cfg: RunConfig) -> datamod.SyntheticSpec:
    if cfg.synth_preset:
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
    return datamod.SyntheticSpec(
        conditions=tuple(conditions),
        samples_per_condition=cfg.synth_samples,
        sample_length=cfg.synth_len,
        channels=cfg.synth_channels,
        noise=cfg.synth_noise,
        amp_jitter=cfg.synth_jitter,
        seed=cfg.seed,
    )


def _load_series(cfg: RunConfig) -> np.ndarray:
    if cfg.data:
        return datamod.load_csv(cfg.data)
    return datamod.synthetic_series(_synthetic_spec(cfg))


def _pipeline_config(cfg: RunConfig, channels: int) -> PipelineConfig:
    backbone = BackboneConfig(
        kind=cfg.backbone,
        lookback=cfg.lookback,
        horizon=cfg.horizon,
        channels=channels,
        shared=cfg.shared_linear,
        kernel=cfg.dlinear_kernel,
    )
    return PipelineConfig(
        method=cfg.method,
        backbone=backbone,
        tifo=TifoConfig(
            hidden=cfg.hidden,
            alpha=cfg.alpha,
            keep=None if cfg.keep == 0 else cfg.keep,
            score_metric=cfg.score_metric,
            score_eps=cfg.score_eps,
            window=cfg.window,
        ),
        san=SanConfig(patch=cfg.san_patch, hidden=cfg.san_hidden, epochs=cfg.san_epochs, lr=cfg.lr),
        fan=FanConfig(topk=cfg.fan_topk),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> None:
    spec = _synthetic_spec(cfg)
    series = datamod.synthetic_series(spec)
    out = _out_dir(cfg)
    header = ",".join(f"c{i}" for i in range(series.shape[1]))
    with open(out / "synthetic.csv", "w") as fh:
        fh.write(header + "\n")
        for row in series:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    ranges = datamod.condition_ranges(spec)
    (out / "segments.json").write_text(
        json.dumps({"condition_rows": ranges}, indent=2, sort_keys=True) + "\n"
    )
    _write_config(cfg, out)
    print(f"wrote {series.shape[0]} rows x {series.shape[1]} channels to {out / 'synthetic.csv'}")
    for idx, (lo, hi) in enumerate(ranges):
        print(f"condition {idx}: rows [{lo}, {hi})")


def cmd_stats(cfg: RunConfig) -> None:
    series = _load_series(cfg)
    ds = datamod.build_dataset(series, cfg.lookback, cfg.horizon)
    panel = amplitude_panel(ds.x_train, cfg.window)
    table = stability_scores(panel, cfg.score_metric, targets=ds.y_train, eps=cfg.score_eps)
    mu = panel.mean(axis=0)
    sigma = panel.std(axis=0)
    out = _out_dir(cfg)
    with open(out / "scores.csv", "w") as fh:
        fh.write("channel,freq_index,mean,std,score\n")
        for c in range(table.shape[1]):
            for k in range(table.shape[0]):
                fh.write(
                    f"{c},{k},{_fmt(mu[k, c])},{_fmt(sigma[k, c])},{_fmt(table[k, c])}\n"
                )
    _write_config(cfg, out)
    for c in range(table.shape[1]):
        top = np.argsort(-table[:, c], kind="stable")[:3]
        desc = ", ".join(f"bin {int(k)}: {_fmt(table[k, c])}" for k in top)
        print(f"channel {c} ({cfg.score_metric}): most stable {desc}")


def _train_once(cfg: RunConfig, ds: datamod.Dataset, log: bool = False):
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    pcfg = _pipeline_config(cfg, ds.channels)
    rng = np.random.default_rng(cfg.seed)
    pipeline = build_pipeline(pcfg, rng, ds.x_train, ds.y_train)
    if log and pipeline.tifo is not None:
        print(f"fitted {cfg.score_metric} stability scores on the train split")
    tcfg = TrainConfig(lr=cfg.lr, batch=cfg.batch, max_epochs=cfg.max_epochs, patience=cfg.patience)
    result = train(pipeline, ds.x_train, ds.y_train, ds.x_val, ds.y_val, tcfg, rng)
    return pipeline, result


def cmd_train(cfg: RunConfig) -> None:
    series = _load_series(cfg)
    ds = datamod.build_dataset(series, cfg.lookback, cfg.horizon)
    cfg.channels = ds.channels
    pipeline, result = _train_once(cfg, ds, log=True)
    out = _out_dir(cfg)
    tensors = pipeline.tensors()
    tensors["scaler.mu"] = ds.scaler.mu
    tensors["scaler.sigma"] = ds.scaler.sigma
    save_checkpoint(str(out / "model.ckpt"), echo_config(cfg), tensors)
    with open(out / "history.csv", "w") as fh:
        fh.write("epoch,train_mse,val_mse,val_mae,lr,rejected\n")
        for row in result.history:
            fh.write(
                f"{row['epoch']},{_fmt(row['train_mse'])},{_fmt(row['val_mse'])},"
                f"{_fmt(row['val_mae'])},{_fmt(cfg.lr)},{row['rejected']}\n"
            )
    _write_config(cfg, out)
    test = evaluate(pipeline, ds.x_test, ds.y_test, batch=cfg.eval_batch)
    print(
        f"trained {cfg.method}/{cfg.backbone}: best val mse {_fmt(result.best_val_mse)} "
        f"(epoch {result.best_epoch}, ran {result.epochs_run})"
    )
    print(f"test mse {_fmt(test['mse'])} mae {_fmt(test['mae'])}")
    print(f"checkpoint: {out / 'model.ckpt'}")


def _rebuild(cfg: RunConfig):
    """Pipeline + training-time config from cfg.checkpoint; data from cfg."""
    if not cfg.checkpoint:
        raise ConfigError("this command needs checkpoint=<path>")
    echo, tensors = load_checkpoint(cfg.checkpoint)
    ck_cfg = config_from_echo(echo)
    if ck_cfg.channels < 1:
        raise CheckpointError(f"{cfg.checkpoint}: header lacks a channel count")
    scaler = None
    if "scaler.mu" in tensors and "scaler.sigma" in tensors:
        scaler = datamod.Scaler(mu=tensors["scaler.mu"], sigma=tensors["scaler.sigma"])
    series = _load_series(cfg)
    if series.shape[1] != ck_cfg.channels:
        raise CheckpointError(
            f"checkpoint was trained on {ck_cfg.channels} channels, data has {series.shape[1]}"
        )
    ds = datamod.build_dataset(series, ck_cfg.lookback, ck_cfg.horizon, scaler)
    pipeline = build_pipeline(_pipeline_config(ck_cfg, ck_cfg.channels), np.random.default_rng(ck_cfg.seed))
    pipeline.load_tensors(tensors)
    return pipeline, ck_cfg, ds


def cmd_eval(cfg: RunConfig) -> None:
    pipeline, _, ds = _rebuild(cfg)
    ema = None if cfg.ema_decay == 0 else cfg.ema_decay
    out = _out_dir(cfg)
    results = []
    alphas = parse_list(cfg, "alphas", "float") or [cfg.alpha if pipeline.tifo is not None else None]
    for a in alphas:
        metrics = evaluate(pipeline, ds.x_test, ds.y_test, batch=cfg.eval_batch, alpha=a, ema_decay=ema)
        row = {"alpha": a, "mse": _round6(metrics["mse"]), "mae": _round6(metrics["mae"])}
        results.append(row)
        tag = "" if a is None else f"alpha {_fmt(a)}: "
        print(f"{tag}test mse {_fmt(metrics['mse'])} mae {_fmt(metrics['mae'])}")
    (out / "metrics.json").write_text(json.dumps({"test": results}, indent=2, sort_keys=True) + "\n")
    _write_config(cfg, out)


def _panel_pair(cfg: RunConfig, x_train, x_test):
    return amplitude_panel(x_train, cfg.window), amplitude_panel(x_test, cfg.window)


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
    if cfg.checkpoint:
        pipeline, _, ds = _rebuild(cfg)
    else:
        series = _load_series(cfg)
        ds = datamod.build_dataset(series, cfg.lookback, cfg.horizon)
        pipeline = None
    raw_train, raw_test = _panel_pair(cfg, ds.x_train, ds.x_test)
    before = shift_report(raw_train, raw_test, bins=cfg.hist_bins)
    after = note = None
    if pipeline is not None and not pipeline.transforms_input:
        note = f"method {pipeline.method!r} does not transform its input; After omitted"
    elif pipeline is not None:
        t_train = pipeline.transformed_input(ds.x_train)
        t_test = pipeline.transformed_input(ds.x_test)
        tr_panel, te_panel = _panel_pair(cfg, t_train, t_test)
        after = shift_report(tr_panel, te_panel, bins=cfg.hist_bins)
    out = _out_dir(cfg)
    k, c = before["jsd2"].shape
    with open(out / "shift.csv", "w") as fh:
        fh.write("channel,freq_index,jsd2_before,jsd2_after,ks_before,ks_after\n")
        for ci in range(c):
            for ki in range(k):
                j_after = _fmt(after["jsd2"][ki, ci]) if after else "nan"
                k_after = _fmt(after["ks"][ki, ci]) if after else "nan"
                fh.write(
                    f"{ci},{ki},{_fmt(before['jsd2'][ki, ci])},{j_after},"
                    f"{_fmt(before['ks'][ki, ci])},{k_after}\n"
                )
    summary = {
        "before": _aggregate(before),
        "after": _aggregate(after) if after else None,
        "reduction": _reduction(before, after) if after else None,
    }
    if note:
        summary["note"] = note
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_config(cfg, out)
    print(f"before: mean jsd2 {_fmt(before['aggregate']['jsd2_mean'])} mean ks {_fmt(before['aggregate']['ks_mean'])}")
    if after:
        print(f"after:  mean jsd2 {_fmt(after['aggregate']['jsd2_mean'])} mean ks {_fmt(after['aggregate']['ks_mean'])}")
        red = summary["reduction"]
        print(f"reduction: jsd2 {_fmt(red['jsd2_mean'])} ks {_fmt(red['ks_mean'])}")
    elif note:
        print(note)


def cmd_ablate(cfg: RunConfig) -> None:
    if cfg.repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {cfg.repeats}")
    series = _load_series(cfg)
    ds = datamod.build_dataset(series, cfg.lookback, cfg.horizon)
    metrics_axis = parse_list(cfg, "ablate_metrics", "str") or [cfg.score_metric]
    windows_axis = parse_list(cfg, "ablate_windows", "str") or [cfg.window]
    keeps_axis = parse_list(cfg, "ablate_keeps", "int") or [cfg.keep]
    alphas_axis = parse_list(cfg, "ablate_alphas", "float") or [cfg.alpha]
    emas_axis = parse_list(cfg, "ablate_emas", "float") or [cfg.ema_decay]
    cells = [
        {"score_metric": m, "window": w, "keep": kp, "alpha": al, "ema_decay": em}
        for m in metrics_axis
        for w in windows_axis
        for kp in keeps_axis
        for al in alphas_axis
        for em in emas_axis
    ]

    def run_cell(cell: dict) -> dict:
        mses, maes = [], []
        for rep in range(cfg.repeats):
            sub = dataclasses.replace(cfg, **cell, seed=cfg.seed + rep)
            pipeline, _ = _train_once(sub, ds)
            ema = None if sub.ema_decay == 0 else sub.ema_decay
            alpha = sub.alpha if pipeline.tifo is not None else None
            m = evaluate(pipeline, ds.x_test, ds.y_test, batch=cfg.eval_batch, alpha=alpha, ema_decay=ema)
            mses.append(m["mse"])
            maes.append(m["mae"])
        return {
            **cell,
            "mse_mean": float(np.mean(mses)),
            "mse_std": float(np.std(mses)),
            "mae_mean": float(np.mean(maes)),
            "mae_std": float(np.std(maes)),
        }

    rows = [run_cell(cell) for cell in cells]
    out = _out_dir(cfg)
    with open(out / "ablate.csv", "w") as fh:
        fh.write("score_metric,window,keep,alpha,ema_decay,repeats,mse_mean,mse_std,mae_mean,mae_std\n")
        for row in rows:
            fh.write(
                f"{row['score_metric']},{row['window']},{row['keep']},{_fmt(row['alpha'])},"
                f"{_fmt(row['ema_decay'])},{cfg.repeats},{_fmt(row['mse_mean'])},"
                f"{_fmt(row['mse_std'])},{_fmt(row['mae_mean'])},{_fmt(row['mae_std'])}\n"
            )
    _write_config(cfg, out)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, list(args.overrides))
        COMMANDS[args.command](cfg)
    except SpecshiftError as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
