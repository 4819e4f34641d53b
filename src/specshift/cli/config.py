"""Flat key=value run configuration.

Config files hold one ``key = value`` pair per line; a line whose first
non-blank character is ``#`` is a comment, and any other ``#`` is part of its
value.  Command-line overrides use the same ``key=value`` syntax.  List-valued keys
hold comma lists whose tokens ``parse_list`` parses like scalar values.
``echo_config`` emits a canonical text form that round-trips through the
parser to an equal config (used both for provenance files and checkpoint
headers).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ConfigError


@dataclass
class RunConfig:
    # data
    data: str = ""  # CSV path; empty means synthesize (synth_* keys)
    out: str = "runs/out"
    seed: int = 0
    lookback: int = 96
    horizon: int = 96
    channels: int = 0  # filled in from data at train time, echoed to checkpoints
    # model
    backbone: str = "dlinear"
    method: str = "tifo"
    shared_linear: bool = False
    dlinear_kernel: int = 25
    # spectral re-weighting
    hidden: int = 128
    score_metric: str = "mu_sigma"
    score_eps: float = 1e-5
    window: str = "rectangular"
    keep: int = 0  # 0 keeps every bin
    alpha: float = 1.0
    ema_decay: float = 0.0  # 0 disables eval-time refresh
    # baselines
    san_patch: int = 12
    san_hidden: int = 64
    san_epochs: int = 5
    fan_topk: int = 4
    # optimization
    lr: float = 1e-3
    batch: int = 32
    max_epochs: int = 30
    patience: int = 5
    eval_batch: int = 256
    # shift diagnostics
    hist_bins: int = 50
    # eval / shift inputs
    checkpoint: str = ""
    alphas: str = ""  # comma list for eval sweeps
    # ablation grid (comma lists; empty reuses the single configured value)
    repeats: int = 3
    ablate_metrics: str = ""
    ablate_windows: str = ""
    ablate_keeps: str = ""
    ablate_alphas: str = ""
    ablate_emas: str = ""
    # synthetic generation
    synth_preset: str = ""  # "shift_bench" or empty
    synth_mix: str = ""  # conditions split by "|", components "bin:amp" split by ","
    synth_noise_by_condition: str = ""  # optional comma list overriding synth_noise
    synth_samples: int = 50
    synth_len: int = 96
    synth_channels: int = 1
    synth_noise: float = 0.1
    synth_jitter: float = 0.0


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str, kind: str | None = None):
    kind = kind or _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from None


def parse_assignments(lines, cfg: RunConfig, origin: str) -> RunConfig:
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}, line {lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{origin}, line {lineno}: unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    return cfg


def parse_list(cfg: RunConfig, key: str, kind: str) -> list:
    """The comma list under ``key``, each token parsed as ``kind``; [] when unset."""
    raw = getattr(cfg, key)
    return [_coerce(key, tok, kind) for tok in raw.split(",")] if raw else []


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Defaults, then the optional file, then key=value overrides in order."""
    cfg = RunConfig()
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        parse_assignments(lines, cfg, origin=path)
    parse_assignments(overrides, cfg, origin="command line")
    return cfg


def echo_config(cfg: RunConfig) -> str:
    """Canonical, reparseable text form (sorted keys, repr-exact floats)."""
    parts = []
    for name in sorted(_FIELDS):
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        parts.append(f"{name} = {value}")
    return "\n".join(parts) + "\n"


def config_from_echo(text: str) -> RunConfig:
    return parse_assignments(text.splitlines(), RunConfig(), origin="config echo")
