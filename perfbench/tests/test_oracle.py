"""The independent forecast oracle agrees with both re-weighting pipelines and catches a wrong forecast."""

import numpy as np
import pytest

import oracle
from specshift import data, training
from specshift.models import BackboneConfig
from specshift.tifo import TifoConfig


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    t = np.arange(400, dtype=float)[:, None]
    series = np.sin(2 * np.pi * t / 12.0 + rng.uniform(0, 6, size=2)) + 0.1 * rng.standard_normal((400, 2))
    return data.build_dataset(series, 24, 12)


@pytest.mark.parametrize("method,kind", [("tifo", "linear"), ("tifo", "dlinear"), ("tifo+san", "linear")])
def test_oracle_matches_trained_pipelines(dataset, method, kind):
    ds = dataset
    cfg = training.PipelineConfig(method=method, backbone=BackboneConfig(kind=kind, lookback=24, horizon=12, channels=2),
                                  tifo=TifoConfig(hidden=8, keep=6 if method == "tifo" else None))
    pipe = training.build_pipeline(cfg, np.random.default_rng(1), ds.x_train, ds.y_train)
    training.train(pipe, ds.x_train, ds.y_train, ds.x_val, ds.y_val,
                   training.TrainConfig(max_epochs=1, patience=1), np.random.default_rng(1))
    ok, detail = oracle.check_tifo(pipe, ds.x_test, ds.y_test, training.evaluate)
    assert ok, detail

    exact = pipe.predict
    pipe.predict = lambda x, **kw: exact(x, **kw) * (1.0 + 1e-7)
    ok, _ = oracle.check_tifo(pipe, ds.x_test, ds.y_test, training.evaluate)
    assert not ok
