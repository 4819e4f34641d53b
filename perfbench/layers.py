"""The per-layer catalogue: which specshift callables are traced, what each
counts, and the metric names the traced run reports.

Layers are the package's modules.  Every entry is a public function or
method; ``Tracer.install_function`` finds each re-bound reference to it.
"""

from __future__ import annotations

import os
import time

import numpy as np

from tracer import Tracer

METHODS = ("none", "revin", "san", "fan", "tifo", "tifo+san")


def _series_in(args, result):
    """Number of length-L series a forward transform read."""
    arr = np.asarray(args["x"])
    return arr.size // arr.shape[args["axis"]]


def _series_out(args, result):
    """Number of length-L series an inverse-type transform wrote."""
    return np.asarray(result).size // args["length"]


def _forward_bytes(args, result):
    real, imag = result
    return np.asarray(args["x"]).size * 8 + real.nbytes + imag.nbytes


def _inverse_bytes(first: str, second: str):
    def count(args, result):
        return (np.asarray(args[first]).size + np.asarray(args[second]).size) * 8 + np.asarray(result).nbytes

    return count


def _rows(key: str):
    return lambda args, result: np.asarray(args[key]).shape[0]


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


def method_tag(method: str) -> str:
    return method.replace("+", "-")


def catalogue():
    """[(layer name, target, attribute, counters)].

    With attribute None, target is a function and every reference to it is
    wrapped; otherwise target is a class or module and only that attribute
    is.  counters map a count name to f(bound arguments, result) -> int.
    """
    from specshift import baselines, data, models, shiftmetrics, spectral, stationarity, tifo, training
    from specshift.cli import checkpoint as ckpt
    from specshift.cli import main as climain

    entries = [
        ("spectral.dft_forward", spectral.dft_forward, None,
         {"series": _series_in, "bytes_computed": _forward_bytes}),
        ("spectral.dft_inverse", spectral.dft_inverse, None,
         {"series": _series_out, "bytes_computed": _inverse_bytes("real", "imag")}),
        ("spectral.dft_forward_adjoint", spectral.dft_forward_adjoint, None,
         {"series": _series_out, "bytes_computed": _inverse_bytes("g_real", "g_imag")}),
        ("stationarity.amplitude_panel", stationarity.amplitude_panel, None,
         {"windows": _rows("windows")}),
        ("stationarity.scores", stationarity.scores, None, {}),
        ("stationarity.ema_refresh", stationarity.ema_refresh, None, {}),
        ("tifo.weights_forward", tifo.weights_forward, None, {}),
        ("tifo.weights_vjp", tifo.weights_vjp, None, {}),
        ("tifo.transform", tifo.transform, None, {}),
        ("tifo.weighted_inverse", tifo.weighted_inverse, None, {}),
        ("tifo.transform_vjp", tifo.transform_vjp, None, {}),
        ("models.Backbone.forward", models.Backbone, "forward", {"windows": _rows("x")}),
        ("models.Backbone.vjp", models.Backbone, "vjp", {"windows": _rows("x")}),
        ("models.moving_average_decompose", models.moving_average_decompose, None, {}),
        ("baselines.main_frequency_split", baselines.main_frequency_split, None, {}),
        ("baselines.fan_freq_forward", baselines.fan_freq_forward, None, {}),
        ("baselines.fan_freq_vjp", baselines.fan_freq_vjp, None, {}),
        ("baselines.san_predict", baselines.san_predict, None, {}),
        ("baselines.san_predict_vjp", baselines.san_predict_vjp, None, {}),
        ("baselines.revin_stats", baselines.revin_stats, None, {}),
        ("training.Adam.step", training.Adam, "step",
         {"rejected": lambda args, result: result is False}),
        ("training.evaluate", training.evaluate, None, {"windows": _rows("x")}),
        ("training.train", training.train, None,
         {"windows": lambda args, result: result.epochs_run * np.asarray(args["x_train"]).shape[0]}),
        ("training.train_san_predictor", training.train_san_predictor, None, {}),
        ("training.fit_score_table", training.fit_score_table, None, {}),
        ("training.build_pipeline", training.build_pipeline, None, {}),
        ("shiftmetrics.shift_report", shiftmetrics.shift_report, None,
         {"cells": lambda args, result: result["jsd2"].size}),
        ("shiftmetrics.paired_histograms", shiftmetrics.paired_histograms, None, {}),
        ("shiftmetrics.jsd2", shiftmetrics.jsd2, None, {}),
        ("shiftmetrics.ks", shiftmetrics.ks, None, {}),
        ("data.load_csv", data.load_csv, None, {"rows": lambda args, result: result.shape[0]}),
        ("data.build_dataset", data.build_dataset, None, {}),
        ("data.make_windows", data.make_windows, None, {}),
        ("cli.checkpoint.save_checkpoint", ckpt.save_checkpoint, None, {"bytes": _file_bytes}),
        ("cli.checkpoint.load_checkpoint", ckpt.load_checkpoint, None, {"bytes": _file_bytes}),
        ("cli.main.cmd_train", climain.cmd_train, None, {}),
        ("cli.main.cmd_eval", climain.cmd_eval, None, {}),
        ("cli.main.cmd_shift", climain.cmd_shift, None, {}),
    ]
    # every pipeline class that defines its own loss_grads; subclasses inherit the wrapper
    for cls in vars(training).values():
        if isinstance(cls, type) and "loss_grads" in cls.__dict__:
            entries.append(("training.loss_grads", cls, "loss_grads", {}))
    return entries


COUNT_UNITS = {"series": "count", "bytes_computed": "bytes", "windows": "count", "rejected": "count",
               "cells": "count", "rows": "count", "bytes": "bytes"}


def install(tracer) -> None:
    """Wrap every catalogued callable; loss_grads spans are tagged by method."""
    for name, target, attr, counters in catalogue():
        if attr is None:
            tracer.install_function(name, target, counters=counters)
        elif name == "training.loss_grads":
            tracer.install_attribute(name, target, attr, tag=lambda args: method_tag(args["self"].method))
        else:
            tracer.install_attribute(name, target, attr, counters=counters)


def metric_catalogue() -> list[tuple[str, str, str]]:
    """[(metric name, unit, better)] for every per-layer metric, in report order."""
    seen: list[str] = []
    counts: dict[str, list[str]] = {}
    for name, _, _, counters in catalogue():
        if name not in seen:
            seen.append(name)
            counts[name] = list(counters)
    out = []
    for name in seen:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        for key in counts[name]:
            out.append((f"{name}.{key}", COUNT_UNITS[key], "lower"))
        if name == "training.loss_grads":
            for method in METHODS:
                out.append((f"{name}.{method_tag(method)}.calls", "count", "lower"))
                out.append((f"{name}.{method_tag(method)}.self_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def layer_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric value from a finished traced run (0 where unused)."""
    totals = tracer.layer_totals()
    values: dict[str, float] = {}
    for metric, _, _ in metric_catalogue():
        if metric == "trace.overhead_s":
            continue
        layer, field = metric.rsplit(".", 1)
        if field in ("calls", "self_s"):
            values[metric] = totals.get(layer, {}).get(field, 0)
        else:
            values[metric] = tracer.counts.get(metric, 0)
    return values


def traced_cycle(workload):
    """One workload cycle with every catalogued layer traced; returns (cycle, tracer, seconds)."""
    tracer = Tracer(workload.name)
    install(tracer)
    start = time.perf_counter()
    try:
        cyc = workload.cycle()
    finally:
        seconds = time.perf_counter() - start
        tracer.uninstall()
    return cyc, tracer, seconds
