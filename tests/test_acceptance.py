"""End-to-end acceptance gate.

Each test covers one numbered claim and prints a single PASS line when it
holds (run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
two ETTh1 checks need the public CSV: place it at data/ETTh1.csv or point
SPECSHIFT_ETTH1 at it; without the file they skip.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from specshift.baselines import (
    FanConfig,
    SanConfig,
    main_frequency_split,
)
from specshift.cli.main import main as cli_main
from specshift.data import build_dataset, load_csv, shift_benchmark, synthetic_series
from specshift.models import BackboneConfig
from specshift.shiftmetrics import jsd2, ks, shift_report
from specshift.spectral import dft_forward, dft_inverse, hermitian_multiplicity
from specshift.stationarity import amplitude_panel, mu_sigma_scores
from specshift.tifo import TifoConfig
from specshift.training import (
    PipelineConfig,
    RevinNorm,
    TrainConfig,
    build_pipeline,
    evaluate,
    train,
)

from oracles import finite_diff_check, mse

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)


def _fit(method, ds, seed, lookback, horizon, backbone="linear", keep=None,
         hidden=64, lr=1e-3, max_epochs=12, patience=4):
    cfg = PipelineConfig(
        method=method,
        backbone=BackboneConfig(kind=backbone, lookback=lookback,
                                horizon=horizon, channels=ds.channels),
        tifo=TifoConfig(hidden=hidden, keep=keep),
    )
    pipe = build_pipeline(cfg, np.random.default_rng(seed), ds.x_train, ds.y_train)
    tcfg = TrainConfig(lr=lr, batch=32, max_epochs=max_epochs, patience=patience)
    train(pipe, ds.x_train, ds.y_train, ds.x_val, ds.y_val, tcfg,
          np.random.default_rng(seed))
    return pipe


def _panel_shift(ds, model, bins=50):
    before = shift_report(amplitude_panel(ds.x_train), amplitude_panel(ds.x_test),
                          bins=bins)
    after = shift_report(amplitude_panel(model.transformed_input(ds.x_train)),
                         amplitude_panel(model.transformed_input(ds.x_test)),
                         bins=bins)
    return before["aggregate"], after["aggregate"]


def _benchmark(seed):
    return build_dataset(synthetic_series(shift_benchmark(seed)), 48, 24)


# ---------------------------------------------------------------------------
# ETTh1 (optional data)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def etth1():
    path = Path(os.environ.get("SPECSHIFT_ETTH1", ROOT / "data" / "ETTh1.csv"))
    if not path.exists():
        pytest.skip(
            f"ETTh1 CSV not found at {path}; download the public file to "
            "data/ETTh1.csv or set SPECSHIFT_ETTH1"
        )
    return build_dataset(load_csv(str(path)), 96, 96)


def test_criterion_1_etth1_forecasting(etth1):
    ds = etth1
    rows = []
    for seed in SEEDS:
        start = time.perf_counter()
        model = _fit("tifo", ds, seed, 96, 96, backbone="dlinear", hidden=128,
                     max_epochs=30, patience=5)
        assert time.perf_counter() - start < 180
        start = time.perf_counter()
        bare = _fit("none", ds, seed, 96, 96, backbone="dlinear",
                    max_epochs=30, patience=5)
        assert time.perf_counter() - start < 180
        ours = evaluate(model, ds.x_test, ds.y_test)
        base = evaluate(bare, ds.x_test, ds.y_test)
        rows.append((ours["mse"], ours["mae"], base["mse"]))
    mean_mse = float(np.mean([r[0] for r in rows]))
    mean_mae = float(np.mean([r[1] for r in rows]))
    wins = sum(base > ours for ours, _, base in rows)
    assert 0.34 <= mean_mse <= 0.41
    assert 0.36 <= mean_mae <= 0.43
    assert wins >= 2
    print(f"criterion 1: PASS  mse {mean_mse:.4f} mae {mean_mae:.4f} "
          f"(weighted beats bare on {wins}/3 seeds)")


def test_criterion_2_etth1_shift_reduction(etth1):
    ds = etth1
    model = _fit("tifo", ds, 0, 96, 96, backbone="dlinear", hidden=128,
                 keep=8, max_epochs=10, patience=5)
    start = time.perf_counter()
    before, after = _panel_shift(ds, model)
    elapsed = time.perf_counter() - start
    jsd_red = 1 - after["jsd2_mean"] / before["jsd2_mean"]
    ks_red = 1 - after["ks_mean"] / before["ks_mean"]
    assert jsd_red >= 0.70
    assert ks_red >= 0.50
    assert elapsed < 60
    print(f"criterion 2: PASS  jsd2 reduced {jsd_red:.1%}, ks reduced "
          f"{ks_red:.1%} in {elapsed:.1f}s")


def test_criterion_1_budget_on_etth1_sized_synthetic():
    # Criterion 1's fit runs up to 30 epochs within 180 s.  Without the CSV,
    # time one epoch plus its validation on a synthetic series of ETTh1's
    # size (4 x 45 x 96 = 17,280 rows, 7 channels) at criterion 1's shape.
    spec = dataclasses.replace(shift_benchmark(0), sample_length=96, channels=7,
                               samples_per_condition=45)
    ds = build_dataset(synthetic_series(spec), 96, 96)
    cfg = PipelineConfig(
        method="tifo",
        backbone=BackboneConfig(kind="dlinear", lookback=96, horizon=96, channels=7),
        tifo=TifoConfig(hidden=128),
    )
    pipe = build_pipeline(cfg, np.random.default_rng(0), ds.x_train, ds.y_train)
    start = time.perf_counter()
    # one epoch; the untrained-state validation row adds a second pass over val
    train(pipe, ds.x_train, ds.y_train, ds.x_val, ds.y_val,
          TrainConfig(lr=1e-3, batch=32, max_epochs=1, patience=1), np.random.default_rng(0))
    epoch_s = time.perf_counter() - start
    assert 30 * epoch_s < 180
    print(f"criterion 1 budget: PASS  {epoch_s:.2f}s per epoch, 30 epochs "
          f"{30 * epoch_s:.0f}s of 180s")


# ---------------------------------------------------------------------------
# synthetic benchmark (self-contained)
# ---------------------------------------------------------------------------


def test_criterion_3_synthetic_end_to_end():
    start = time.perf_counter()
    ratios, ks_reds = [], []
    for seed in SEEDS:
        ds = _benchmark(seed)
        bare = _fit("none", ds, seed, 48, 24)
        model = _fit("tifo", ds, seed, 48, 24, keep=16)
        ratios.append(
            evaluate(model, ds.x_test, ds.y_test)["mse"]
            / evaluate(bare, ds.x_test, ds.y_test)["mse"]
        )
        before, after = _panel_shift(ds, model)
        ks_reds.append(1 - after["ks_mean"] / before["ks_mean"])
    elapsed = time.perf_counter() - start
    assert all(r >= 0.50 for r in ks_reds), ks_reds
    assert all(r <= 0.90 for r in ratios), ratios
    assert elapsed < 30
    print(f"criterion 3: PASS  ks reductions {[f'{r:.0%}' for r in ks_reds]}, "
          f"mse ratios {[f'{r:.2f}' for r in ratios]} in {elapsed:.1f}s")


def test_criterion_4_alpha_sweep_monotone_ends():
    gaps, chains = [], []
    for seed in SEEDS:
        ds = _benchmark(seed)
        model = _fit("tifo", ds, seed, 48, 24)  # full spectrum
        at = {a: evaluate(model, ds.x_test, ds.y_test, alpha=a)["mse"]
              for a in (1.0, 0.25, 0.0)}
        assert at[1.0] <= at[0.25] <= at[0.0]
        bare = mse(model.backbone.forward(ds.x_test)[0], ds.y_test)
        assert abs(at[0.0] - bare) <= 1e-10
        gaps.append(abs(at[0.0] - bare))
        chains.append((at[1.0], at[0.25], at[0.0]))
    print(f"criterion 4: PASS  monotone on {len(chains)}/3 seeds, "
          f"identity gap <= {max(gaps):.1e}")


def test_learned_weights_favour_the_stable_bins():
    # the paper's claim: the layer keeps the frequencies whose amplitude is
    # stable over the training windows and damps the ones that shift.  On the
    # benchmark, bins 3 and 5 carry the same tones in every condition, and
    # bins 17, 19 and 21 carry energy only in the last, test-side condition.
    # Every bin is kept, so the shifted bins' weights are learned, not masked.
    ratios = []
    for seed in SEEDS:
        model = _fit("tifo", _benchmark(seed), seed, 48, 24)
        lam_r, lam_i, _ = model.tifo.weights()
        stable = np.abs(np.concatenate([lam_r[[3, 5]], lam_i[[3, 5]]]))
        shifted = np.abs(np.concatenate([lam_r[[17, 19, 21]], lam_i[[17, 19, 21]]]))
        assert stable.min() >= 2 * shifted.max(), (seed, stable.min(), shifted.max())
        ratios.append(stable.min() / shifted.max())
    print(f"stable-bin weights: PASS  min stable / max shifted {[f'{r:.1f}' for r in ratios]}")


# ---------------------------------------------------------------------------
# numeric properties
# ---------------------------------------------------------------------------


def _tiny_pipeline(method, backbone, seed=17, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8, 1))
    y = rng.normal(size=(n, 4, 1))
    cfg = PipelineConfig(
        method=method,
        backbone=BackboneConfig(kind=backbone, lookback=8, horizon=4,
                                channels=1, kernel=3),
        tifo=TifoConfig(hidden=6),
        san=SanConfig(patch=4, hidden=8, epochs=2),
        fan=FanConfig(topk=2, hidden1=8, hidden2=8),
    )
    pipe = build_pipeline(cfg, np.random.default_rng(seed + 1), x, y)
    return pipe, x, y


def test_criterion_5_numeric_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    # transform round trip and energy identity
    worst_rt, worst_pv = 0.0, 0.0
    for length in (2, 3, 8, 12, 17, 31, 48, 64):
        x = rng.normal(size=(length, 3))
        real, imag = dft_forward(x)
        back = dft_inverse(real, imag, length)
        worst_rt = max(worst_rt, float(np.abs(back - x).max()))
        mult = hermitian_multiplicity(length)[:, None]
        energy = float((x * x).sum())
        spectral = float((mult * (real**2 + imag**2)).sum()) / length
        worst_pv = max(worst_pv, abs(spectral - energy) / energy)
    assert worst_rt <= 1e-10
    assert worst_pv <= 1e-8

    # analytic gradients against central differences, every combination
    worst_grad = 0.0
    for method in ("none", "revin", "fan", "tifo"):
        for backbone in ("linear", "dlinear"):
            pipe, x, y = _tiny_pipeline(method, backbone)
            worst_grad = max(worst_grad, finite_diff_check(pipe, x, y))
    assert worst_grad <= 1e-5

    # stability scores against a per-entry recomputation
    panel = rng.gamma(2.0, 1.0, size=(20, 9, 3))
    table = mu_sigma_scores(panel)
    for k in range(9):
        for c in range(3):
            col = panel[:, k, c]
            assert abs(table[k, c] - col.mean() / (col.std() + 1e-5)) <= 1e-12

    # hand-derived reference values
    tone = mu_sigma_scores(np.array([1.0, 2.0, 3.0]).reshape(-1, 1, 1))
    assert abs(tone[0, 0] - 2.44946) < 1e-4
    assert abs(jsd2(np.array([0.5, 0.5]), np.array([1.0, 0.0])) - 0.31128) < 1e-4
    assert abs(ks(np.array([1.0, 2.0, 3.0, 4.0]), np.array([3.0, 4.0, 5.0, 6.0])) - 0.5) < 1e-4

    # metric laws on random histograms/samples
    for _ in range(25):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        a, b = jsd2(p, q), jsd2(q, p)
        assert abs(a - b) <= 1e-12 and 0.0 <= a <= 1.0 + 1e-12
        u = rng.standard_normal(13)
        v = rng.standard_normal(9)
        d = ks(u, v)
        assert abs(d - ks(v, u)) <= 1e-12 and 0.0 <= d <= 1.0

    # top-k split reconstructs its input exactly
    x = rng.normal(size=(6, 16, 2))
    x_main, x_res = main_frequency_split(x, 3)
    assert float(np.abs(x_main + x_res - x).max()) <= 1e-10

    # per-window normalization inverts to the input
    x = rng.normal(size=(5, 12, 2)) * 3.0 + 1.5
    revin = RevinNorm(PipelineConfig(method="revin", backbone=BackboneConfig(
        kind="linear", lookback=12, horizon=12, channels=2)), rng)
    restored = revin.leave(*revin.enter(x))
    assert float(np.abs(restored - x).max()) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 5: PASS  round-trip {worst_rt:.1e}, energy {worst_pv:.1e}, "
          f"grads {worst_grad:.1e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_criterion_6_deterministic_artifacts(tmp_path):
    base = [
        "synth_mix=2:1.0,5:0.5", "synth_len=32", "synth_samples=12",
        "lookback=16", "horizon=4", "hidden=8", "max_epochs=2",
        "backbone=linear", "method=tifo", "seed=11",
    ]
    ck = tmp_path / "train"
    ev = tmp_path / "eval"
    sh = tmp_path / "shift"
    st = tmp_path / "stats"
    plans = [
        ("train", [*base, f"out={ck}"], ck),
        ("eval", [*base, f"checkpoint={ck / 'model.ckpt'}", "alphas=1.0,0.5,0.0",
                  f"out={ev}"], ev),
        ("shift", [*base, f"checkpoint={ck / 'model.ckpt'}", f"out={sh}"], sh),
        ("stats", [*base, f"out={st}"], st),
    ]
    checked = 0
    for command, args, out in plans:
        assert cli_main([command, *args]) == 0
        snapshot = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert cli_main([command, *args]) == 0
        for name, blob in snapshot.items():
            assert (out / name).read_bytes() == blob, f"{command}/{name} changed"
        checked += len(snapshot)
    print(f"criterion 6: PASS  {checked} artifacts byte-identical on rerun")
