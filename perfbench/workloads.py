"""The benchmark's two workloads.

Each workload is a closed loop with one client in one process: a cycle is
set-up (dataset and pipeline build, or the ``train`` command) followed by
the timed operations, and every operation starts only after the previous
one returned.  Cycles of one run repeat identical work on identical inputs,
so a run also checks that repeats give identical results.

A cycle records every timing as a sample (``Cycle.samples``); ``run.py``
forms the metrics from all the samples of a run's measured cycles.

Every call into specshift goes through a module attribute (``training.train``,
not a name imported into this file), so the tracer's rebinding sees it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from specshift import data, shiftmetrics, stationarity, training
from specshift.cli import config as cliconfig
from specshift.cli import main as climain
from specshift.errors import NumericError
from specshift.models import BackboneConfig
from specshift.tifo import TifoConfig
from tracer import Tracer

CLOCK = time.perf_counter
ORACLE_WINDOWS = 64
TIFO_METHODS = ("tifo", "tifo+san")


@dataclass
class Cycle:
    """What one cycle measured, counted and checked."""

    # timing name -> seconds per sample: setup_s, shift_s, train_s.<method>, eval_s.<method>
    samples: dict = field(default_factory=dict)
    # train.<method> / eval.<method> -> windows one sample processed
    work: dict = field(default_factory=dict)
    mse_ratio: float = math.nan
    ks_reduction: float = math.nan
    ops: int = 0  # train steps + evaluations + commands + shift reports
    failed: int = 0  # rejected steps + operations that raised or exited non-zero
    errors: list = field(default_factory=list)  # what raised, with its traceback
    fingerprint: dict = field(default_factory=dict)
    logs: list = field(default_factory=list)  # captured CLI output
    state: dict = field(default_factory=dict, repr=False)  # for cycle_checks; dropped after them

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _sample(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=min(ORACLE_WINDOWS, n), replace=False))


def _history_finite(history: list[dict]) -> bool:
    rows = [r for r in history if r["epoch"] > 0]
    return all(math.isfinite(r["train_mse"]) and math.isfinite(r["val_mse"]) for r in rows)


def _ks_reduction(ds, model) -> float:
    """1 - mean KS after / before the model's input transform (train vs test panels)."""
    before = shiftmetrics.shift_report(stationarity.amplitude_panel(ds.x_train),
                                       stationarity.amplitude_panel(ds.x_test))
    after = shiftmetrics.shift_report(stationarity.amplitude_panel(model.transformed_input(ds.x_train)),
                                      stationarity.amplitude_panel(model.transformed_input(ds.x_test)))
    return 1.0 - after["aggregate"]["ks_mean"] / before["aggregate"]["ks_mean"]


def _error(cyc: Cycle, what: str, exc: Exception) -> None:
    """Count the operation that raised ``exc`` as failed and keep its traceback."""
    cyc.ops += 1
    cyc.failed += 1
    cyc.errors.append({"op": what, "numeric": isinstance(exc, NumericError),
                       "traceback": traceback.format_exc(limit=4)})


# ---------------------------------------------------------------------------
# in-process fits: shift_bench
# ---------------------------------------------------------------------------


class ShiftBench:
    """Criterion 3's preset: build a dataset and one pipeline per method
    (set-up), train each built pipeline and evaluate it on the test split,
    then report train/test spectral shift before and after the "tifo"
    model's input transform.

    ``fit_stride`` thins the train windows that ``train`` sees to every n-th
    one; the score fit, validation, the test evaluation and the shift report
    run over the full splits.
    """

    name = "shift_bench"
    methods = ("none", "revin", "san", "fan", "tifo", "tifo+san")
    defaults = {"lookback": 48, "horizon": 24, "channels": 1, "backbone": "linear", "batch": 32,
                "hidden": 64, "keep": 16, "epochs": 1, "eval_repeats": 3, "fit_stride": 3,
                "samples_per_condition": 50,
                "criterion3_seeds": (0, 1, 2), "criterion3_epochs": 12, "criterion3_patience": 4}

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {**self.defaults, **(sizes or {})}
        spec = dataclasses.replace(data.shift_benchmark(seed), samples_per_condition=self.sizes["samples_per_condition"])
        self.series = data.synthetic_series(spec)

    def footprint(self) -> dict:
        """Split sizes and the complex FFT buffer a full-train-split transform allocates."""
        s = self.sizes
        windows = self.series.shape[0] - s["lookback"] - s["horizon"] + 1
        train = int(np.floor(0.7 * windows))
        length = s["lookback"]
        nfft = length if length & (length - 1) == 0 else 1 << (2 * length - 2).bit_length()
        return {"train_windows": train, "fft_length": nfft,
                "train_fft_buffer_bytes": train * self.series.shape[1] * nfft * 16}

    def pipeline_config(self, method: str, channels: int) -> training.PipelineConfig:
        s = self.sizes
        backbone = BackboneConfig(kind=s["backbone"], lookback=s["lookback"], horizon=s["horizon"],
                                  channels=channels)
        keep = s["keep"] if method == "tifo" else None
        return training.PipelineConfig(method=method, backbone=backbone,
                                       tifo=TifoConfig(hidden=s["hidden"], keep=keep))

    def fit(self, method, ds, epochs, patience):
        pipe = training.build_pipeline(self.pipeline_config(method, ds.channels),
                                       np.random.default_rng(self.seed), ds.x_train, ds.y_train)
        tcfg = training.TrainConfig(lr=1e-3, batch=self.sizes["batch"], max_epochs=epochs, patience=patience)
        training.train(pipe, ds.x_train, ds.y_train, ds.x_val, ds.y_val, tcfg, np.random.default_rng(self.seed))
        return pipe

    def cycle(self) -> Cycle:
        s = self.sizes
        cyc = Cycle()
        start = CLOCK()
        ds = data.build_dataset(self.series, s["lookback"], s["horizon"])
        built = {
            m: training.build_pipeline(self.pipeline_config(m, ds.channels), np.random.default_rng(self.seed),
                                       ds.x_train, ds.y_train)
            for m in self.methods
        }
        cyc.add("setup_s", CLOCK() - start)
        x_fit, y_fit = ds.x_train[:: s["fit_stride"]], ds.y_train[:: s["fit_stride"]]
        # No early stopping: every cycle and seed trains the same number of epochs.
        tcfg = training.TrainConfig(lr=1e-3, batch=s["batch"], max_epochs=s["epochs"], patience=s["epochs"])
        test_mse = {m: [] for m in self.methods}
        histories, trained = [], {}
        for method, pipe in built.items():
            try:
                t0 = CLOCK()
                result = training.train(pipe, x_fit, y_fit, ds.x_val, ds.y_val, tcfg, np.random.default_rng(self.seed))
                cyc.add(f"train_s.{method}", CLOCK() - t0)
            except Exception as exc:
                _error(cyc, f"train {method}", exc)
                continue
            cyc.ops += result.epochs_run * math.ceil(x_fit.shape[0] / s["batch"])
            cyc.failed += sum(r["rejected"] for r in result.history)
            cyc.work[f"train.{method}"] = result.epochs_run * x_fit.shape[0]
            histories.append(result.history)
            for _ in range(s["eval_repeats"]):  # evaluation is short; repeats give it more samples
                try:
                    t0 = CLOCK()
                    test = training.evaluate(pipe, ds.x_test, ds.y_test)
                    cyc.add(f"eval_s.{method}", CLOCK() - t0)
                except Exception as exc:
                    _error(cyc, f"evaluate {method}", exc)
                    break
                cyc.ops += 1
                test_mse[method].append(test["mse"])
            cyc.work[f"eval.{method}"] = ds.x_test.shape[0]
            trained[method] = pipe
        if test_mse["tifo"] and test_mse["none"]:
            cyc.mse_ratio = test_mse["tifo"][0] / test_mse["none"][0]
        if "tifo" in trained:
            try:
                t0 = CLOCK()
                cyc.ks_reduction = _ks_reduction(ds, trained["tifo"])
                cyc.add("shift_s", CLOCK() - t0)
                cyc.ops += 1
            except Exception as exc:
                _error(cyc, "shift report", exc)
        cyc.fingerprint = {"test_mse": {m: v[0] for m, v in test_mse.items() if v},
                           "ks_reduction": None if math.isnan(cyc.ks_reduction) else cyc.ks_reduction}
        cyc.state = {"ds": ds, "trained": trained, "histories": histories, "test_mse": test_mse}
        return cyc

    def cycle_checks(self, cyc: Cycle) -> list[dict]:
        ds, trained = cyc.state["ds"], cyc.state["trained"]
        out = [check("every operation returned", not cyc.errors, "; ".join(e["op"] for e in cyc.errors))]
        idx = _sample(ds.x_test.shape[0], self.seed)
        for method in TIFO_METHODS:
            ok, detail = (oracle.check_tifo(trained[method], ds.x_test[idx], ds.y_test[idx], training.evaluate)
                          if method in trained else (False, "no trained model"))
            out.append(check(f"{method} forecasts match the oracle", ok, detail))
        finite = not any(e["numeric"] for e in cyc.errors) and all(_history_finite(h) for h in cyc.state["histories"])
        finite = finite and all(math.isfinite(v) for vals in cyc.state["test_mse"].values() for v in vals)
        repeat = all(len(set(vals)) <= 1 for vals in cyc.state["test_mse"].values())
        return out + [check("losses finite", finite),
                      check("repeated evaluations give identical results", repeat,
                            f"{self.sizes['eval_repeats']} per model")]

    def final_checks(self, cycles: list[Cycle]) -> list[dict]:
        same = all(c.fingerprint == cycles[0].fingerprint for c in cycles)
        out = [check("repeated cycles give identical results", same, f"{len(cycles)} cycles")]
        s = self.sizes
        if self.seed in s["criterion3_seeds"]:
            ds = data.build_dataset(self.series, s["lookback"], s["horizon"])
            bare = self.fit("none", ds, s["criterion3_epochs"], s["criterion3_patience"])
            model = self.fit("tifo", ds, s["criterion3_epochs"], s["criterion3_patience"])
            ratio = training.evaluate(model, ds.x_test, ds.y_test)["mse"] / \
                training.evaluate(bare, ds.x_test, ds.y_test)["mse"]
            ks_red = _ks_reduction(ds, model)
            out.append(check("criterion 3: ks_reduction >= 0.50 and mse_ratio <= 0.90",
                             ks_red >= 0.50 and ratio <= 0.90,
                             f"ks_reduction {ks_red:.4f}, mse_ratio {ratio:.4f}"))
        return out


# ---------------------------------------------------------------------------
# the CLI path: diagnose
# ---------------------------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Diagnose:
    """``train`` as set-up, then ``eval`` (alpha sweep with EMA refresh,
    ``eval_repeats`` times) with ``shift`` half-way through, all through
    ``specshift.cli.main.main`` on a written CSV."""

    name = "diagnose"
    # Two samples per condition keep a cycle near 5 s, so that a run holds
    # several cycles and every timing has samples spread over the whole run.
    defaults = {"samples_per_condition": 2, "channels": 7, "lookback": 96, "horizon": 48,
                "backbone": "dlinear", "batch": 32, "hidden": 128, "keep": 16, "epochs": 1,
                "alphas": "1.0,0.5,0.25,0.0", "ema_decay": 0.9, "eval_repeats": 4}

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {**self.defaults, **(sizes or {})}
        self.series = inputs.condition_series(seed, self.sizes["samples_per_condition"],
                                              channels=self.sizes["channels"])
        self.csv = workdir / "diagnose.csv"
        workdir.mkdir(parents=True, exist_ok=True)
        inputs.write_csv(self.csv, self.series)
        s = self.sizes
        windows = self.series.shape[0] - s["lookback"] - s["horizon"] + 1
        self.n_train = int(np.floor(0.7 * windows))
        self.common = [f"data={self.csv}", f"lookback={s['lookback']}", f"horizon={s['horizon']}",
                       f"seed={seed}"]

    def footprint(self) -> dict:
        return {"rows": self.series.shape[0], "train_windows": self.n_train}

    def _command(self, argv: list[str], watch: tuple[str, ...] = ()):
        """Run one CLI command in-process; returns (exit code, wall s, watched s, counts, output)."""
        sw = Tracer(self.name)
        counters = {"train": {"windows": lambda a, r: r.epochs_run * np.asarray(a["x_train"]).shape[0]},
                    "evaluate": {"windows": lambda a, r: np.asarray(a["x"]).shape[0]}}
        for attr in watch:
            sw.install_attribute(attr, climain, attr, counters=counters[attr])
        out = io.StringIO()
        t0 = CLOCK()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = climain.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, reported with its traceback
            out.write(traceback.format_exc())
            code = -1
        finally:
            wall = CLOCK() - t0
            sw.uninstall()
        watched = sum(span.end - span.start for span in sw.spans if span.parent is None)
        return code, wall, watched, sw.counts, out.getvalue()

    def cycle(self) -> Cycle:
        s = self.sizes
        run = self.workdir / "cycle"
        shutil.rmtree(run, ignore_errors=True)  # no stale artifact can pass for this cycle's
        ck = run / "train" / "model.ckpt"
        train_argv = ["train", *self.common, "method=tifo", f"backbone={s['backbone']}", f"keep={s['keep']}",
                      f"hidden={s['hidden']}", f"batch={s['batch']}", f"max_epochs={s['epochs']}",
                      f"patience={s['epochs']}", f"out={run / 'train'}"]
        eval_argv = ["eval", *self.common, f"checkpoint={ck}", f"alphas={s['alphas']}",
                     f"ema_decay={s['ema_decay']}", f"out={run / 'eval'}"]
        shift_argv = ["shift", *self.common, f"checkpoint={ck}", f"out={run / 'shift'}"]

        cyc = Cycle()
        codes, digests = {}, []
        codes["train"], setup_s, train_s, train_counts, log_train = self._command(train_argv, ("train",))
        if codes["train"] == 0:
            cyc.add("setup_s", setup_s)
            cyc.add("train_s.tifo", train_s)
        cyc.work["train.tifo"] = train_counts.get("train.windows", 0)
        # The sweep is short; repeats give it more samples, on both sides of the shift command.
        schedule = ["eval"] * s["eval_repeats"]
        schedule.insert(len(schedule) // 2, "shift")
        codes["eval"], log_eval = 0, ""
        for op in schedule:
            if op == "shift":
                codes["shift"], shift_s, _, _, log_shift = self._command(shift_argv)
                if codes["shift"] == 0:
                    cyc.add("shift_s", shift_s)
            elif codes["eval"] == 0:  # no further sweeps after one failed
                codes["eval"], _, eval_s, eval_counts, log_eval = self._command(eval_argv, ("evaluate",))
                if codes["eval"] == 0:
                    cyc.add("eval_s.tifo", eval_s)
                    cyc.work["eval.tifo"] = eval_counts.get("evaluate.windows", 0)
                    digests.append(_digest(run / "eval" / "metrics.json"))

        cyc.ops = 2 + len(digests) + (codes["eval"] != 0)
        cyc.failed = sum(code != 0 for code in codes.values())
        history = self._history(run / "train" / "history.csv")
        cyc.ops += sum(math.ceil(self.n_train / s["batch"]) for r in history if r["epoch"] > 0)
        cyc.failed += sum(r["rejected"] for r in history)
        if all(code == 0 for code in codes.values()):
            sweep = {row["alpha"]: row["mse"] for row in json.loads((run / "eval" / "metrics.json").read_text())["test"]}
            cyc.mse_ratio = sweep[1.0] / sweep[0.0]
            summary = json.loads((run / "shift" / "summary.json").read_text())
            cyc.ks_reduction = summary["reduction"]["ks_mean"]
        cyc.fingerprint = {
            name: _digest(run / sub / name) if (run / sub / name).exists() else None
            for sub, name in (("train", "model.ckpt"), ("train", "history.csv"),
                              ("eval", "metrics.json"), ("shift", "summary.json"))
        }
        cyc.state = {"codes": codes, "history": history, "eval_digests": digests}
        cyc.logs = [log_train, log_eval, log_shift]
        return cyc

    @staticmethod
    def _history(path: Path) -> list[dict]:
        if not path.exists():
            return []
        with open(path, newline="") as fh:
            return [{"epoch": int(r["epoch"]), "train_mse": float(r["train_mse"]), "val_mse": float(r["val_mse"]),
                     "rejected": int(r["rejected"])} for r in csv.DictReader(fh)]

    def cycle_checks(self, cyc: Cycle) -> list[dict]:
        codes = cyc.state["codes"]
        return [check("every command exits 0", all(c == 0 for c in codes.values()), json.dumps(codes)),
                check("losses finite", bool(cyc.state["history"]) and _history_finite(cyc.state["history"])),
                check("repeated eval commands write identical metrics.json", len(set(cyc.state["eval_digests"])) == 1,
                      f"{len(cyc.state['eval_digests'])} commands")]

    def final_checks(self, cycles: list[Cycle]) -> list[dict]:
        out = [check("artifacts byte-identical across repeats (criterion 6)",
                     all(c.fingerprint == cycles[0].fingerprint for c in cycles)
                     and None not in cycles[0].fingerprint.values(),
                     f"{len(cycles)} cycles")]
        ck = self.workdir / "cycle" / "train" / "model.ckpt"
        if ck.exists():
            # the model exactly as the eval and shift commands rebuild it
            cfg = cliconfig.load_config(None, [*self.common, f"checkpoint={ck}"])
            pipe, _, ds = climain._rebuild(cfg)
            idx = _sample(ds.x_test.shape[0], self.seed)
            ok, detail = oracle.check_tifo(pipe, ds.x_test[idx], ds.y_test[idx], training.evaluate)
        else:
            ok, detail = False, "no checkpoint written"
        out.append(check("tifo forecasts match the oracle", ok, detail))
        return out


WORKLOADS = {cls.name: cls for cls in (ShiftBench, Diagnose)}

# Which layers each workload must reach (checked by the benchmark's tests).
EXPECTED_LAYERS = {
    "shift_bench": {
        "spectral.dft_forward", "spectral.dft_inverse", "spectral.dft_forward_adjoint",
        "stationarity.amplitude_panel", "stationarity.scores",
        "tifo.weights_forward", "tifo.weights_vjp", "tifo.transform", "tifo.weighted_inverse",
        "tifo.transform_vjp", "models.Backbone.forward", "models.Backbone.vjp",
        "baselines.main_frequency_split", "baselines.fan_freq_forward", "baselines.fan_freq_vjp",
        "baselines.san_predict", "baselines.san_predict_vjp", "baselines.revin_stats",
        "training.Adam.step", "training.loss_grads", "training.evaluate", "training.train",
        "training.train_san_predictor", "training.fit_score_table", "training.build_pipeline",
        "shiftmetrics.shift_report", "shiftmetrics.paired_histograms", "shiftmetrics.jsd2", "shiftmetrics.ks",
        "data.build_dataset", "data.make_windows",
    }
    | {f"training.loss_grads.{m}" for m in ("none", "revin", "san", "fan", "tifo", "tifo-san")},
    "diagnose": {
        "spectral.dft_forward", "spectral.dft_inverse", "spectral.dft_forward_adjoint",
        "stationarity.amplitude_panel", "stationarity.scores", "stationarity.ema_refresh",
        "tifo.weights_forward", "tifo.weights_vjp", "tifo.transform", "tifo.weighted_inverse",
        "tifo.transform_vjp", "models.Backbone.forward", "models.Backbone.vjp",
        "models.moving_average_decompose", "training.Adam.step", "training.loss_grads",
        "training.loss_grads.tifo", "training.evaluate", "training.train", "training.fit_score_table",
        "training.build_pipeline",
        "shiftmetrics.shift_report", "shiftmetrics.paired_histograms", "shiftmetrics.jsd2", "shiftmetrics.ks",
        "data.load_csv", "data.build_dataset", "data.make_windows",
        "cli.checkpoint.save_checkpoint", "cli.checkpoint.load_checkpoint",
        "cli.main.cmd_train", "cli.main.cmd_eval", "cli.main.cmd_shift",
    },
}
