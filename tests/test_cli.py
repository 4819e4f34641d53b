"""Command surface: config parsing, checkpoint format, artifacts, determinism,
and the exit code and message every kind of bad input gets."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specshift
from specshift.cli import main as climain
from specshift.cli.checkpoint import load_checkpoint, save_checkpoint
from specshift.cli.config import RunConfig, config_from_echo, echo_config, load_config
from specshift.cli.main import main
from specshift.data import load_csv
from specshift.errors import CheckpointError, ConfigError, DataError, NumericError


def child_env(**extra):
    """Environment for a ``python -m specshift`` child that imports the same
    package as this test process, installed or not."""
    src = str(Path(specshift.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


TINY = [
    "synth_mix=2:1.0",
    "synth_len=32",
    "synth_samples=12",
    "lookback=16",
    "horizon=4",
    "hidden=8",
    "max_epochs=2",
    "backbone=linear",
]


def run(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_without_sources():
    assert load_config(None, []) == RunConfig()


def test_override_beats_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("lr=0.5\nlookback=48\n")
    cfg = load_config(str(f), ["lr=0.25"])
    assert cfg.lr == 0.25
    assert cfg.lookback == 48


def test_unknown_key_rejected_with_origin(tmp_path):
    with pytest.raises(ConfigError, match="nope"):
        load_config(None, ["nope=3"])
    f = tmp_path / "run.cfg"
    f.write_text("lookback=48\nbogus=1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(f), [])


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="lookback"):
        load_config(None, ["lookback=abc"])
    with pytest.raises(ConfigError):
        load_config(None, ["shared_linear=maybe"])
    assert load_config(None, ["shared_linear=true"]).shared_linear is True


def test_config_echo_round_trip():
    cfg = load_config(None, ["method=tifo", "keep=16", "alpha=0.5", "data=foo.csv",
                             "window=hann", "ema_decay=0.3"])
    assert config_from_echo(echo_config(cfg)) == cfg
    cfg = RunConfig(data="runs/#1/a#b.csv", out="runs/run#1")
    assert config_from_echo(echo_config(cfg)) == cfg


def test_a_hash_starts_a_comment_only_as_a_lines_first_character(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# full-line comment\n   # indented comment\nlookback=48\ndata = a#b.csv\n")
    cfg = load_config(str(f), [])
    assert (cfg.lookback, cfg.data) == (48, "a#b.csv")


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


def test_checkpoint_save_load_save_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"backbone.w": rng.normal(size=(3, 4)), "tifo.r.b2": np.ones(5)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), "method=tifo\n", tensors)
    echo, loaded = load_checkpoint(str(p1))
    assert echo == "method=tifo\n"
    save_checkpoint(str(p2), echo, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_checkpoint_garbage_rejected(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("dims", ["99999999999999999999", "4294967296 4294967296"], ids=["over int64", "wraps int64"])
def test_checkpoint_with_a_huge_tensor_size_is_rejected_by_its_payload(tmp_path, dims):
    # the header's sizes are checked against the payload, however large they are
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(f"specshift-checkpoint v1\ntensor w {dims}\nend\n".encode())
    with pytest.raises(CheckpointError, match="payload holds 0 bytes, header expects"):
        load_checkpoint(str(bad))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_bad_config(capsys):
    assert run("train", "no_such_key=1") == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_missing_data(tmp_path, capsys):
    code = run("train", "data=/no/such/file.csv", f"out={tmp_path / 'x'}")
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_missing_checkpoint(tmp_path, capsys):
    code = run("eval", *TINY, "checkpoint=/no/such.ckpt", f"out={tmp_path / 'x'}")
    assert code == 5
    assert "checkpoint error" in capsys.readouterr().err


def test_exit_code_success(tmp_path):
    assert run("synth", "synth_preset=shift_bench", f"out={tmp_path / 's'}") == 0


@pytest.mark.parametrize("command", ["synth", "stats", "train", "eval", "shift", "ablate"])
def test_every_command_writes_its_resolved_config(tmp_path, trained_tifo, command):
    ck, _ = trained_tifo
    extra = {"eval": [f"checkpoint={ck / 'model.ckpt'}", "alphas=1.0,0.5"],
             "shift": [f"checkpoint={ck / 'model.ckpt'}"],
             "ablate": ["repeats=1", "ablate_keeps=0,4"]}.get(command, [])
    overrides = [*TINY, *extra, f"out={tmp_path / 'out'}"]
    assert run(command, *overrides) == 0
    expected = load_config(None, overrides)
    if command == "train":
        expected.channels = 1
    if command in ("eval", "shift"):
        trained = config_from_echo(load_checkpoint(str(ck / "model.ckpt"))[0])
        for key in climain.MODEL_KEYS:
            if not (command == "shift" and key == "window"):
                setattr(expected, key, getattr(trained, key))
    assert config_from_echo((tmp_path / "out" / "config.txt").read_text()) == expected


def test_eval_and_shift_record_the_checkpoints_model_keys(tmp_path):
    # the command line leaves every model key at its default, none of which the model has
    ck = tmp_path / "ck"
    model = ["backbone=linear", "method=tifo", "lookback=16", "horizon=4", "hidden=8", "alpha=0.5",
             "keep=5", "window=hann"]
    assert run("train", *TINY[:3], *model, "max_epochs=1", f"out={ck}") == 0
    data = [*TINY[:3], f"checkpoint={ck / 'model.ckpt'}"]
    assert run("eval", *data, f"out={tmp_path / 'ev'}") == 0
    assert run("shift", *data, "window=rectangular", f"out={tmp_path / 'sh'}") == 0
    for command, window in (("ev", "hann"), ("sh", "rectangular")):
        echoed = config_from_echo((tmp_path / command / "config.txt").read_text())
        assert (echoed.backbone, echoed.method, echoed.lookback, echoed.horizon, echoed.hidden,
                echoed.alpha, echoed.keep, echoed.channels, echoed.window) == \
            ("linear", "tifo", 16, 4, 8, 0.5, 5, 1, window)
    assert json.loads((tmp_path / "ev" / "metrics.json").read_text())["test"][0]["alpha"] == 0.5
    # the echo reruns the same evaluation
    again = tmp_path / "again"
    assert main(["eval", "--config", str(tmp_path / "ev" / "config.txt"), f"out={again}"]) == 0
    assert (again / "metrics.json").read_bytes() == (tmp_path / "ev" / "metrics.json").read_bytes()


def test_an_override_keeps_a_hash_in_its_value(tmp_path):
    out = tmp_path / "run#1"
    assert run("synth", *TINY, f"out={out}") == 0
    assert (out / "synthetic.csv").is_file()
    assert config_from_echo((out / "config.txt").read_text()).out == str(out)


def test_the_config_file_may_come_before_between_or_after_the_rest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(TINY[1:]) + "\n")
    orders = [["--config", str(cfg), "synth", TINY[0]], ["synth", "--config", str(cfg), TINY[0]],
              ["synth", TINY[0], "--config", str(cfg)]]
    for idx, argv in enumerate(orders):
        assert main([*argv, f"out={tmp_path / str(idx)}"]) == 0
    blobs = {(tmp_path / str(idx) / "synthetic.csv").read_bytes() for idx in range(len(orders))}
    assert len(blobs) == 1


# ---------------------------------------------------------------------------
# synth + stats
# ---------------------------------------------------------------------------


def test_synth_artifacts_load_back(tmp_path):
    out = tmp_path / "syn"
    assert run("synth", "synth_preset=shift_bench", f"out={out}") == 0
    series = load_csv(str(out / "synthetic.csv"))
    assert series.shape == (200 * 48, 1)
    ranges = json.loads((out / "segments.json").read_text())["condition_rows"]
    assert ranges[0][0] == 0
    assert ranges[-1][1] == series.shape[0]
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert (out / "config.txt").exists()


def test_stats_tone_bin_has_top_score(tmp_path, capsys):
    out = tmp_path / "st"
    code = run(
        "stats", "synth_mix=3:2.0", "synth_len=32", "synth_samples=20",
        "synth_noise=0.05", "lookback=32", "horizon=8", f"out={out}",
    )
    assert code == 0
    rows = (out / "scores.csv").read_text().splitlines()
    assert rows[0] == "channel,freq_index,mean,std,score"
    table = [line.split(",") for line in rows[1:]]
    best = max(table, key=lambda r: float(r[4]))
    assert best[1] == "3"
    assert "most stable" in capsys.readouterr().out


def test_stats_deterministic(tmp_path):
    args = ["stats", "synth_mix=3:2.0", "synth_len=32", "synth_samples=20",
            "lookback=32", "horizon=8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, f"out={a}") == 0
    assert run(*args, f"out={b}") == 0
    assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("train", *TINY, "method=tifo", f"out={out}") == 0
    logged = capsys.readouterr().out
    assert "fitted mu_sigma stability scores" in logged
    assert "checkpoint:" in logged
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mse,val_mse,val_mae,lr,rejected"
    first = history[1].split(",")
    assert first[0] == "0" and first[1] == "nan"  # init row has no train loss
    assert len(history) == 2 + 2  # header + init + two epochs
    echo, tensors = load_checkpoint(str(out / "model.ckpt"))
    cfg = config_from_echo(echo)
    assert cfg.method == "tifo" and cfg.channels == 1
    assert "scaler.mu" in tensors and "tifo.scores" in tensors


def test_train_with_a_bad_eval_batch_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("train", *TINY, "eval_batch=0", f"out={out}") == 2
    assert "eval_batch" in capsys.readouterr().err
    assert not out.exists()


def test_train_rerun_identical_bytes(tmp_path):
    # the config echo inside the checkpoint includes the output path, so
    # determinism is rerunning the same command, not two parallel dirs
    out = tmp_path / "a"
    assert run("train", *TINY, "method=tifo", "seed=3", f"out={out}") == 0
    first_ckpt = (out / "model.ckpt").read_bytes()
    first_hist = (out / "history.csv").read_bytes()
    assert run("train", *TINY, "method=tifo", "seed=3", f"out={out}") == 0
    assert (out / "model.ckpt").read_bytes() == first_ckpt
    assert (out / "history.csv").read_bytes() == first_hist


def test_train_bytes_independent_of_blas_threads(tmp_path):
    # a BLAS call may split its work by thread count; what train writes must not.
    # The three models reach the per-channel and shared dense layers and the SAN/FAN nets.
    syn = tmp_path / "syn"
    assert run("synth", "synth_mix=3:1.0,8:0.5|3:1.0,13:0.7", "synth_len=96",
               "synth_samples=4", "synth_channels=7", f"out={syn}") == 0
    for model in (("method=tifo", "backbone=dlinear"),
                  ("method=tifo+san", "backbone=dlinear"),
                  ("method=fan", "backbone=linear", "shared_linear=true")):
        out = tmp_path / "-".join(model)
        cmd = [sys.executable, "-m", "specshift", "train", f"data={syn / 'synthetic.csv'}",
               *model, "lookback=96", "horizon=24", "hidden=16",
               "max_epochs=2", f"out={out}"]
        written = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            written.append(((out / "model.ckpt").read_bytes(), (out / "history.csv").read_bytes()))
        assert written[0] == written[1], model


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_tifo(tmp_path_factory):
    out = tmp_path_factory.mktemp("ck") / "run"
    code, msg = _train_capture(out)
    assert code == 0, msg
    return out, msg


def _train_capture(out):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run("train", *TINY, "method=tifo", "max_epochs=4", f"out={out}")
    return code, buf.getvalue()


def test_eval_sweep_record_order(tmp_path, trained_tifo):
    ck, _ = trained_tifo
    out = tmp_path / "ev"
    code = run("eval", *TINY, f"checkpoint={ck / 'model.ckpt'}",
               "alphas=1.0,0.75,0.5,0.25,0.0", f"out={out}")
    assert code == 0
    records = json.loads((out / "metrics.json").read_text())["test"]
    assert [r["alpha"] for r in records] == [1.0, 0.75, 0.5, 0.25, 0.0]
    assert all(r["mse"] > 0 for r in records)


def test_eval_twice_identical(tmp_path, trained_tifo):
    ck, _ = trained_tifo
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["eval", *TINY, f"checkpoint={ck / 'model.ckpt'}", "alphas=1.0,0.0"]
    assert run(*args, f"out={a}") == 0
    assert run(*args, f"out={b}") == 0
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_eval_matches_training_report(tmp_path, trained_tifo):
    ck, logged = trained_tifo
    reported = float(logged.split("test mse ")[1].split(" ")[0])
    out = tmp_path / "ev"
    assert run("eval", *TINY, f"checkpoint={ck / 'model.ckpt'}", f"out={out}") == 0
    record = json.loads((out / "metrics.json").read_text())["test"][0]
    assert record["mse"] == pytest.approx(reported, rel=1e-4)


def test_eval_defaults_to_the_trained_alpha(tmp_path):
    ck = tmp_path / "ck"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run("train", *TINY, "method=tifo", "alpha=0.5", f"out={ck}") == 0
    reported = float(buf.getvalue().split("test mse ")[1].split(" ")[0])
    out = tmp_path / "ev"
    assert run("eval", *TINY, f"checkpoint={ck / 'model.ckpt'}", f"out={out}") == 0
    [record] = json.loads((out / "metrics.json").read_text())["test"]
    assert record["alpha"] == 0.5
    assert record["mse"] == pytest.approx(reported, rel=1e-4)


def test_eval_ema_with_one_window_last_batch(tmp_path, trained_tifo):
    # TINY's test split holds 37 windows, so eval_batch=36 leaves one window
    ck, _ = trained_tifo
    out = tmp_path / "ev"
    code = run("eval", *TINY, f"checkpoint={ck / 'model.ckpt'}", "ema_decay=0.9",
               "eval_batch=36", f"out={out}")
    assert code == 0
    assert json.loads((out / "metrics.json").read_text())["test"][0]["mse"] > 0


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_without_checkpoint(tmp_path):
    out = tmp_path / "sh"
    assert run("shift", *TINY, f"out={out}") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["after"] is None and summary["reduction"] is None
    rows = (out / "shift.csv").read_text().splitlines()
    assert rows[0] == "channel,freq_index,jsd2_before,jsd2_after,ks_before,ks_after"
    assert rows[1].split(",")[3] == "nan"


def test_shift_noise_free_tone(tmp_path):
    # every amplitude of a noise-free tone is equal up to rounding, so the
    # histogram ranges are a few ulps wide
    out = tmp_path / "sh"
    assert run("shift", "synth_mix=4:1.0", "synth_noise=0", "synth_samples=20", "synth_len=48",
               "lookback=48", "horizon=24", f"out={out}") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["before"]["jsd2_mean"] <= 1.0


def test_shift_identity_weights_after_equals_before(tmp_path):
    # a weighting net trained with a vanishing learning rate stays at the
    # identity, so transforming both panels must not move the metrics
    ck = tmp_path / "ck"
    assert run("train", *TINY, "method=tifo", "lr=1e-30", "max_epochs=1",
               f"out={ck}") == 0
    out = tmp_path / "sh"
    assert run("shift", *TINY, f"checkpoint={ck / 'model.ckpt'}", f"out={out}") == 0
    summary = json.loads((out / "summary.json").read_text())
    for key, b in summary["before"].items():
        assert summary["after"][key] == pytest.approx(b, abs=1e-5)


def test_shift_plain_method_omits_after(tmp_path, capsys):
    ck = tmp_path / "ck"
    assert run("train", *TINY, "method=none", f"out={ck}") == 0
    out = tmp_path / "sh"
    assert run("shift", *TINY, f"checkpoint={ck / 'model.ckpt'}", f"out={out}") == 0
    assert "does not transform its input" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["after"] is None
    assert "note" in summary


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_single_cell_matches_train_eval(tmp_path):
    out = tmp_path / "ab"
    code = run("ablate", *TINY, "method=tifo", "repeats=1", f"out={out}")
    assert code == 0
    rows = (out / "ablate.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one cell
    header = rows[0].split(",")
    cell = dict(zip(header, rows[1].split(",")))
    ck = tmp_path / "ck"
    assert run("train", *TINY, "method=tifo", f"out={ck}") == 0
    ev = tmp_path / "ev"
    assert run("eval", *TINY, f"checkpoint={ck / 'model.ckpt'}", f"out={ev}") == 0
    record = json.loads((ev / "metrics.json").read_text())["test"][0]
    assert float(cell["mse_mean"]) == pytest.approx(record["mse"], rel=1e-4)
    assert float(cell["mse_std"]) == 0.0


@pytest.mark.parametrize("method, emas, trainings", [
    # training cells x repeats, not x ema values too
    pytest.param("tifo", [0.0, 0.9], 2 * 2 * 2 * 2, id="tifo"),
    # no axis reaches a method without a re-weighting layer: one model per repeat
    pytest.param("revin", [0.0], 2, id="revin"),
])
def test_ablate_trains_once_for_every_ema_value(tmp_path, monkeypatch, method, emas, trainings):
    calls = []
    real_train = climain.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(climain, "train", counting_train)
    grid = ["ablate_metrics=mu_sigma,correlation", "ablate_keeps=0,4", "ablate_alphas=1.0,0.5"]
    out = tmp_path / "ab"
    ema_list = ",".join(map(str, emas))
    assert run("ablate", *TINY, f"method={method}", "repeats=2", *grid, f"ablate_emas={ema_list}",
               f"out={out}") == 0
    assert len(calls) == trainings
    rows = [line.split(",") for line in (out / "ablate.csv").read_text().splitlines()[1:]]
    expected = itertools.product(["mu_sigma", "correlation"], ["rectangular"], [0, 4], [1.0, 0.5], emas)
    assert [(m, w, int(k), float(a), float(e)) for m, w, k, a, e, *_ in rows] == list(expected)
    # each model is shared by the ema values: evaluating them in the other order
    # must not change any row
    swapped = tmp_path / "swapped"
    assert run("ablate", *TINY, f"method={method}", "repeats=2", *grid,
               f"ablate_emas={','.join(map(str, reversed(emas)))}", f"out={swapped}") == 0
    rows_swapped = [line.split(",") for line in (swapped / "ablate.csv").read_text().splitlines()[1:]]
    assert sorted(rows_swapped) == sorted(rows)


def test_ablate_shares_one_model_across_cells_without_a_reweighting_layer(tmp_path):
    # keep and alpha reach only the re-weighting layer, so every revin cell reports the same models
    out = tmp_path / "ab"
    assert run("ablate", *TINY, "method=revin", "repeats=2", "ablate_keeps=0,4", "ablate_alphas=1.0,0.5",
               f"out={out}") == 0
    header, *rows = [line.split(",") for line in (out / "ablate.csv").read_text().splitlines()]
    metrics = [tuple(row[header.index("repeats"):]) for row in rows]
    assert len(rows) == 4 and len(set(metrics)) == 1, metrics
    assert float(dict(zip(header, rows[0]))["mse_std"]) > 0  # the two repeats are two models


CHECKED_BEFORE_TRAINING = [
    ["train", "method=tifo", "eval_batch=0"],
    ["ablate", "method=tifo", "ablate_keeps=0,4", "ablate_emas=0.9,1.5", "repeats=1"],
    ["ablate", "method=revin", "ablate_emas=0.9", "repeats=1"],
]


@pytest.mark.parametrize("argv", CHECKED_BEFORE_TRAINING, ids=[" ".join(argv) for argv in CHECKED_BEFORE_TRAINING])
def test_eval_settings_are_checked_before_any_training(tmp_path, monkeypatch, capsys, argv):
    calls = []
    monkeypatch.setattr(climain, "train", lambda *args, **kwargs: calls.append(1))
    command, *overrides = argv
    assert run(command, *TINY, f"out={tmp_path / 'out'}", *overrides) == 2
    assert "config error" in capsys.readouterr().err
    assert calls == []


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "specshift", "synth", "synth_mix=2:1.0",
         "synth_len=32", "synth_samples=4", f"out={tmp_path / 's'}"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# bad input: one exit code and one stderr line per error class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (DataError, 3), (NumericError, 4),
                                         (CheckpointError, 5)])
def test_error_class_sets_exit_code(monkeypatch, capsys, error, code):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(climain.COMMANDS, "stats", fail)
    assert run("stats") == code
    assert capsys.readouterr().err == f"{error.label} error: boom\n"


def bad_csv(kind, row=0, col=0):
    """The text of a 40-row CSV (a date column, two numeric ones) with one fault."""
    rows = [[f"2020-01-{1 + h // 24:02d} {h % 24:02d}:00", f"{np.sin(h):.6f}", f"{np.cos(h):.6f}"]
            for h in range(40)]
    if kind == "empty file":
        return ""
    if kind == "header only":
        return "date,a,b\n"
    if kind == "date column only":
        return "date\n" + "".join(r[0] + "\n" for r in rows)
    if kind == "ragged row":
        rows[row] = rows[row][:col + 1] if col < 2 else rows[row] + ["1.0"]
    else:
        rows[row][1 + col % 2] = {"non-numeric cell": "oops", "nan": "nan"}[kind]
    return "date,a,b\n" + "".join(",".join(r) + "\n" for r in rows)


# (command and overrides after TINY and out=, exit code, text stderr must hold); "{ck}"
# is a tifo checkpoint, "{dates}" a CSV with only a date column, "{negck}" a checkpoint
# whose one tensor has negative sizes, each CHECKPOINT_FAULTS name a copy of a 3-channel
# tifo checkpoint with those tensors changed (None drops a tensor, a float fills it), each
# HEADER_FAULTS name a copy with that config value in its header, and "{bias_twice}" a copy
# that lists backbone.bias twice; the needle is filled in the same way; code None: main raises
EXIT_TABLE = [
    (["eval", "{ck}", "eval_batch=0"], 2, "batch"),
    (["eval", "{ck}", "alphas=a,b"], 2, "alphas"),
    (["train", "synth_channels=0"], 2, "channels"),
    (["stats", "data={dates}"], 3, "dates.csv"),
    (["train", "lookback=0"], 2, "lookback"),
    (["train", "method=san", "san_patch=0"], 2, "patch"),
    (["train", "method=tifo", "keep=-3"], 2, "keep"),
    (["eval", "{ck}", "ema_decay=-0.5"], 2, "decay"),
    (["ablate", "repeats=0"], 2, "repeats"),
    (["stats", "score_eps=-1"], 2, "score_eps"),
    (["train", "method=tifo", "score_eps=0"], 2, "score_eps"),
    (["train", "method=san", "san_epochs=-1"], 2, "san_epochs"),
    (["stats", "out={dates}/sub"], 2, "out="),
    (["eval", "checkpoint={negck}"], 5, "negative size"),
    (["eval", "synth_channels=3", "checkpoint={no_scaler}"], 5, "scaler.mu"),
    (["eval", "synth_channels=3", "checkpoint={mu_of_1}"], 5, "scaler.mu"),
    (["eval", "synth_channels=3", "checkpoint={sigma_of_2}"], 5, "scaler.sigma"),
    (["eval", "synth_channels=3", "checkpoint={mu_nan}"], 5, "scaler.mu"),
    (["eval", "synth_channels=3", "checkpoint={mu_inf}"], 5, "scaler.mu"),
    (["eval", "synth_channels=3", "checkpoint={sigma_negative}"], 5, "scaler.sigma"),
    (["eval", "synth_channels=3", "checkpoint={sigma_zero}"], 5, "scaler.sigma"),
    (["eval", "synth_channels=3", "checkpoint={sigma_nan}"], 5, "scaler.sigma"),
    (["eval", "synth_channels=3", "checkpoint={sigma_inf}"], 5, "scaler.sigma"),
    (["shift", "synth_channels=3", "checkpoint={sigma_zero}"], 5, "scaler.sigma"),
    (["shift", "synth_channels=3", "checkpoint={no_scaler}"], 5, "scaler.mu"),
    # every model tensor must be finite; a finite one may still overflow the panels
    (["eval", "synth_channels=3", "checkpoint={w1_nan}"], 5, "tensor tifo.r.w1 is not finite"),
    (["shift", "synth_channels=3", "checkpoint={b2_inf}"], 5, "tensor tifo.i.b2 is not finite"),
    # every model tensor must be present in its shape, and the message names the checkpoint
    (["eval", "synth_channels=3", "checkpoint={w1_missing}"], 5, "{w1_missing}: checkpoint lacks tensor tifo.r.w1"),
    (["eval", "synth_channels=3", "checkpoint={w1_of_3x3}"], 5,
     "{w1_of_3x3}: tensor tifo.r.w1: shape (3, 3) does not match expected"),
    # (these two overflow on purpose; main drops a failed command's warnings)
    (["shift", "synth_channels=3", "checkpoint={b2_huge}"], 4, "after train panel is not finite at bin 0"),
    (["eval", "synth_channels=3", "checkpoint={b2_huge}"], 4, "non-finite forecast error at evaluation batch 0"),
    # a bad header is the checkpoint's fault, whatever the command line says
    (["eval", "synth_channels=3", "checkpoint={method_bogus}"], 5, "method"),
    (["eval", "synth_channels=3", "checkpoint={lookback_abc}"], 5, "lookback"),
    (["eval", "synth_channels=3", "checkpoint={keep_999}"], 5, "keep"),
    (["eval", "synth_channels=3", "checkpoint={alpha_7}"], 5, "alpha"),
    (["eval", "synth_channels=3", "checkpoint={bias_twice}"], 5, "tensor backbone.bias is listed twice"),
    # each key's rule holds whatever the method, and the message names the key
    (["train", "method=revin", "keep=-3", "score_metric=bogus", "window=boxcar", "alpha=7"], 2, "alpha"),
    (["ablate", "method=revin", "ablate_metrics=bogus", "ablate_windows=boxcar", "ablate_keeps=-3"], 2, "keep"),
    (["ablate", "method=revin", "ablate_metrics=mu_sigma,bogus"], 2, "score_metric"),
    (["train", "lr=nan"], 2, "lr"),
    (["train", "lr=inf"], 2, "lr"),
    (["train", "backbone=linear", "dlinear_kernel=4"], 2, "dlinear_kernel"),
    (["train", "method=none", "san_hidden=0"], 2, "san_hidden"),
    (["train", "method=none", "fan_topk=0"], 2, "fan_topk"),
    (["train", "method=fan", "fan_topk=99"], 2, "fan_topk"),
    (["shift", "hist_bins=0"], 2, "hist_bins"),
    (["train", "synth_noise=nan"], 2, "synth_noise"),
    # finite keys whose series overflows: the generator names the condition and the keys
    (["synth", "synth_noise=1e308"], 2, "synthetic condition 0 is not finite"),
    (["train", "synth_mix=3:1e308", "synth_jitter=1e308"], 2, "synth_jitter"),
    (["stats", "score_eps=inf"], 2, "score_eps"),
    # an optional override per condition, but no more values than conditions
    (["synth", "synth_noise_by_condition=0.1,0.2,0.3"], 2, "synth_noise_by_condition has 3 values, more than the 1"),
    # a preset fixes the whole series: no data, and no other synth_* key off its default
    (["synth", "synth_preset=shift_bench"], 2, "synth_preset=shift_bench fixes the series; drop synth_mix, "
                                                "synth_samples, synth_len"),
    (["synth", "synth_preset=shift_bench", "synth_noise=0.5", "synth_channels=4", "synth_jitter=0.9"], 2,
     "drop synth_mix, synth_samples, synth_len, synth_channels, synth_noise, synth_jitter"),
    (["stats", "data={dates}", "synth_preset=bogus"], 2, "synth_preset=bogus fixes the series; drop data, "),
    # eval-time values are checked before any training
    (["train", "method=tifo", "eval_batch=0"], 2, "eval_batch"),
    (["ablate", "method=tifo", "ablate_keeps=0,4", "ablate_emas=0.9,1.5", "repeats=1"], 2, "ema_decay"),
    (["ablate", "method=revin", "ablate_emas=0.9", "repeats=1"], 2, "ema_decay"),
    (["stats"], None, "program fault"),
]


CHECKPOINT_FAULTS = {
    "no_scaler": {"scaler.mu": None, "scaler.sigma": None},
    "mu_of_1": {"scaler.mu": np.zeros(1)},
    "sigma_of_2": {"scaler.sigma": np.ones(2)},
    "mu_nan": {"scaler.mu": np.array([0.0, np.nan, 0.0])},
    "mu_inf": {"scaler.mu": np.array([0.0, 0.0, -np.inf])},
    "sigma_negative": {"scaler.sigma": -np.ones(3)},
    "sigma_zero": {"scaler.sigma": np.array([1.0, 0.0, 1.0])},
    "sigma_nan": {"scaler.sigma": np.array([np.nan, 1.0, 1.0])},
    "sigma_inf": {"scaler.sigma": np.array([1.0, np.inf, 1.0])},
    "w1_nan": {"tifo.r.w1": np.nan},
    "b2_inf": {"tifo.i.b2": np.inf},
    "b2_huge": {"tifo.r.b2": 1e308},
    "w1_missing": {"tifo.r.w1": None},
    "w1_of_3x3": {"tifo.r.w1": np.zeros((3, 3))},
}

HEADER_FAULTS = {
    "method_bogus": ("method", "bogus"),
    "lookback_abc": ("lookback", "abc"),
    "keep_999": ("keep", "999"),
    "alpha_7": ("alpha", "7.0"),
    "seed_negative": ("seed", "-1"),  # not a fault: the rebuild reads no seed
}


@pytest.fixture(scope="module")
def checkpoint_faults(tmp_path_factory):
    """{CHECKPOINT_FAULTS name: path of a 3-channel tifo checkpoint with that fault}"""
    out = tmp_path_factory.mktemp("ck3")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("train", *TINY, "method=tifo", "synth_channels=3", f"out={out / 'run'}") == 0
    echo, tensors = load_checkpoint(str(out / "run" / "model.ckpt"))
    paths = {}
    for name, changes in CHECKPOINT_FAULTS.items():
        paths[name] = out / f"{name}.ckpt"
        changed = {**tensors, **{k: np.full(tensors[k].shape, v) if isinstance(v, float) else v
                                 for k, v in changes.items()}}
        save_checkpoint(str(paths[name]), echo, {k: v for k, v in changed.items() if v is not None})
    for name, (key, value) in HEADER_FAULTS.items():
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in echo.splitlines()]
        assert lines != echo.splitlines()
        paths[name] = out / f"{name}.ckpt"
        save_checkpoint(str(paths[name]), "\n".join(lines), tensors)
    # save_checkpoint writes each name once: append a second backbone.bias line and its payload
    bias = tensors["backbone.bias"]
    line = f"tensor backbone.bias {' '.join(map(str, bias.shape))}\n".encode()
    blob = (out / "run" / "model.ckpt").read_bytes().replace(b"\nend\n", b"\n" + line + b"end\n", 1)
    paths["bias_twice"] = out / "bias_twice.ckpt"
    paths["bias_twice"].write_bytes(blob + bias.astype("<f8").tobytes())
    return paths


@pytest.mark.parametrize("argv, code, needle", EXIT_TABLE,
                         ids=[" ".join(getattr(row, "values", row)[0]) for row in EXIT_TABLE])
def test_exit_code_table(tmp_path, trained_tifo, checkpoint_faults, monkeypatch, capsys, argv, code, needle):
    ck, _ = trained_tifo
    dates = tmp_path / "dates.csv"
    dates.write_text(bad_csv("date column only"))
    negck = tmp_path / "neg.ckpt"
    negck.write_bytes(b"specshift-checkpoint v1\ntensor w -1 -1\nend\n" + bytes(8))
    fill = {"ck": f"checkpoint={ck / 'model.ckpt'}", "dates": dates, "negck": negck, **checkpoint_faults}
    command, *overrides = [a.format(**fill) for a in argv]
    args = [command, *TINY, f"out={tmp_path / 'out'}", *overrides]
    if code is None:
        def fault(*a, **k):
            raise ValueError(needle)

        monkeypatch.setattr(climain, "amplitude_panel", fault)
        with pytest.raises(ValueError, match=needle):
            run(*args)
        return
    assert run(*args) == code
    err = capsys.readouterr().err
    assert needle.format(**fill) in err, err


def test_a_failed_command_reports_one_line_without_numpy_warnings(tmp_path):
    # the loss overflows through several numpy warnings before it is found
    # non-finite; stderr holds the error line alone
    proc = subprocess.run([sys.executable, "-m", "specshift", "train", *TINY, "method=tifo", "lr=1e300",
                           f"out={tmp_path}"], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 4
    assert proc.stderr == "numeric error: non-finite training loss at epoch 1, batch 1\n"


def test_a_successful_command_passes_its_warnings_on(tmp_path, monkeypatch):
    # held back while the command runs, a warning reaches the caller's
    # filters once it succeeds: "error" makes it raise after the artifacts
    synth = climain.COMMANDS["synth"]

    def warn_then_synth(cfg):
        warnings.warn("overflow on purpose", RuntimeWarning)
        synth(cfg)

    monkeypatch.setitem(climain.COMMANDS, "synth", warn_then_synth)
    with contextlib.redirect_stdout(io.StringIO()):
        with pytest.warns(RuntimeWarning, match="overflow on purpose"):
            assert run("synth", *TINY, f"out={tmp_path / 'warned'}") == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow on purpose"):
                run("synth", *TINY, f"out={tmp_path / 'raised'}")
    assert (tmp_path / "raised" / "config.txt").is_file()


@pytest.mark.parametrize("command, artifacts", [("eval", ["metrics.json"]), ("shift", ["summary.json", "shift.csv"])])
def test_the_header_seed_is_not_read(tmp_path, checkpoint_faults, command, artifacts):
    # every initial draw of a rebuilt pipeline is overwritten by the checkpoint's
    # tensors, so a seed no rng would take runs like the untouched checkpoint
    faulty = checkpoint_faults["seed_negative"]
    for name, ck in (("faulty", faulty), ("untouched", faulty.parent / "run" / "model.ckpt")):
        assert run(command, *TINY, "synth_channels=3", f"checkpoint={ck}", f"out={tmp_path / name}") == 0
    for artifact in artifacts:
        assert (tmp_path / "faulty" / artifact).read_bytes() == (tmp_path / "untouched" / artifact).read_bytes()


LABELS = {2: "config", 3: "data", 4: "numeric", 5: "checkpoint"}
INT_KEYS = ["lookback", "horizon", "hidden", "keep", "dlinear_kernel", "san_patch", "san_hidden",
            "fan_topk", "batch", "max_epochs", "patience", "eval_batch", "hist_bins", "seed",
            "synth_samples", "synth_len", "synth_channels", "repeats"]
FLOAT_KEYS = ["alpha", "ema_decay", "lr", "score_eps", "synth_noise", "synth_jitter"]
LIST_KEYS = ["alphas", "synth_mix", "synth_noise_by_condition", "ablate_metrics", "ablate_windows",
             "ablate_keeps", "ablate_alphas", "ablate_emas"]
TOKENS = ["a", "", " ", "1", "0.5", "-1", "nan", "inf", "2:1.0", "3:", "x:y", "1e400"]

bad_override = st.one_of(
    st.builds("{}={}".format, st.sampled_from(INT_KEYS), st.integers(-3, 1) | st.sampled_from([2, 17, 64])),
    st.builds("{}={}".format, st.sampled_from(FLOAT_KEYS),
              st.floats(-1e3, -1e-9) | st.sampled_from(["nan", "inf", "-inf"])),
    st.builds("{}={}".format, st.sampled_from(LIST_KEYS),
              st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3).map(",".join)),
    st.sampled_from(["nope=1", "Lookback=8", "lookback", "=3", "method=bogus", "backbone=rnn",
                     "window=boxcar", "score_metric=none", "synth_preset=other"]),
)


def _main_quietly(args):
    """(exit code, stderr) of one in-process command; degenerate inputs may
    make numpy warn, which is not what these tests check."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(args)
    return code, err.getvalue()


def _assert_reported(code, err):
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(f"{LABELS[code]} error: "), err


# list key -> the scalar key whose rule its values meet
SWEPT = {"alphas": "alpha", **{key: name for name, key, _ in climain.ABLATE_AXES}}


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(command=st.sampled_from(["synth", "stats", "train", "eval", "shift", "ablate"]),
       method=st.sampled_from(["tifo", "none", "revin", "san", "fan", "tifo+san"]),
       overrides=st.lists(bad_override, min_size=1, max_size=2))
def test_bad_overrides_exit_with_a_labelled_code(trained_tifo, tmp_path_factory, command, method, overrides):
    ck, _ = trained_tifo
    ck_arg = f"checkpoint={ck / 'model.ckpt'}"
    base = [ck_arg] if command in ("eval", "shift") else [f"method={method}", "repeats=1"]
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    # TINY's lookback 16 and horizon 4 need a smaller SAN patch and FAN top-k than the defaults
    code, err = _main_quietly([command, *TINY, "max_epochs=1", "san_patch=4", "fan_topk=2", *base, *overrides,
                               f"out={out}"])
    _assert_reported(code, err)
    keys = [o.split("=", 1)[0].strip() for o in overrides]
    if code and "" not in keys:  # a key-less token such as "=3" has no key to name
        assert any(key in err or SWEPT.get(key, key) in err for key in keys), (overrides, err)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(command=st.sampled_from(["stats", "train", "eval", "shift"]),
       kind=st.sampled_from(["ragged row", "non-numeric cell", "nan", "header only", "empty file",
                             "date column only"]),
       row=st.integers(0, 39), col=st.integers(0, 2))
def test_malformed_csv_is_a_data_error_naming_the_file(trained_tifo, tmp_path_factory, command, kind,
                                                       row, col):
    ck, _ = trained_tifo
    path = tmp_path_factory.getbasetemp() / "fuzz-bad.csv"
    path.write_text(bad_csv(kind, row, col))
    base = [f"checkpoint={ck / 'model.ckpt'}"] if command in ("eval", "shift") else []
    code, err = _main_quietly([command, *TINY, "max_epochs=1", *base, f"data={path}",
                               f"out={path.parent / 'fuzz-csv-out'}"])
    _assert_reported(code, err)
    assert code == 3 and str(path) in err, err
