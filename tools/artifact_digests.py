"""Digest every artifact of a fixed CLI sweep, to compare two checkouts.

    python tools/artifact_digests.py > digests.txt

Runs, with the ``specshift`` package of the checkout this file sits in:
``train``/``eval``/``shift`` for every method x backbone cell on the
``shift_bench`` preset, an ``eval`` alpha sweep with EMA refresh and an odd
``eval_batch`` for each re-weighting method, a ``shift`` with 7 histogram bins
and a Hann window on each ``tifo`` checkpoint, ``train`` and ``shift`` for
three more linear ``tifo`` runs (``score_metric=entropy``, ``window=hann``, and
one that stops early), a ``shift`` without a checkpoint, ``stats`` and a
``tifo`` ``ablate``.  Prints one ``sha256  relative-path`` line per artifact, sorted.
Every run writes under one fixed directory, so the paths echoed into
``config.txt`` and the checkpoint headers are the same for every checkout;
two checkouts whose programs write the same bytes print the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specshift.cli.main import main  # noqa: E402
from specshift.training import COMPOSITION  # noqa: E402

ROOT = Path(tempfile.gettempdir()) / "specshift-artifact-digests"
DATA = ["synth_preset=shift_bench", "lookback=48", "horizon=24"]
MODEL = ["max_epochs=3", "patience=1", "keep=16"]
BACKBONES = ("linear", "dlinear")


def _runs():
    """(output directory name, argv) for every command of the sweep, in run order."""
    for method in COMPOSITION:
        for backbone in BACKBONES:
            cell = f"{method.replace('+', '-')}-{backbone}"
            ck = f"checkpoint={ROOT / cell / 'train' / 'model.ckpt'}"
            yield f"{cell}/train", ["train", *DATA, *MODEL, f"method={method}", f"backbone={backbone}"]
            yield f"{cell}/eval", ["eval", *DATA, ck]
            yield f"{cell}/shift", ["shift", *DATA, ck]
            if method == "tifo":
                yield f"{cell}/shift-hann", ["shift", *DATA, ck, "hist_bins=7", "window=hann"]
            if method.startswith("tifo"):
                yield f"{cell}/sweep", ["eval", *DATA, ck, "alphas=1.0,0.5,0.0", "ema_decay=0.9", "eval_batch=37"]
    # the score fit on its other routes: the entropy metric, the Hann window,
    # and a run that stops early (6 of its 12 epochs)
    for cell, keys in (("tifo-entropy-linear", ["score_metric=entropy"]), ("tifo-hann-linear", ["window=hann"]),
                       ("tifo-stop-linear", ["max_epochs=12", "lr=0.01"])):
        ck = f"checkpoint={ROOT / cell / 'train' / 'model.ckpt'}"
        yield f"{cell}/train", ["train", *DATA, *MODEL, "method=tifo", "backbone=linear", *keys]
        yield f"{cell}/shift", ["shift", *DATA, ck]
    yield "shift", ["shift", *DATA]
    yield "stats", ["stats", *DATA, "score_metric=correlation", "window=hann"]
    yield "ablate", ["ablate", *DATA, *MODEL, "method=tifo", "backbone=linear", "max_epochs=1", "repeats=1",
                     "ablate_keeps=0,4", "ablate_emas=0.0,0.9"]


def main_digests() -> int:
    shutil.rmtree(ROOT, ignore_errors=True)
    for name, argv in _runs():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, f"out={ROOT / name}"])
        if code != 0:
            print(f"{name}: {' '.join(argv)} exited {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in ROOT.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(ROOT).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
