"""Checkpoint file format.

Layout: a UTF-8 text header, then a raw float64 payload.

    specshift-checkpoint v1
    config <key> = <value>        (one line per config key, sorted)
    tensor <name> <dim0> <dim1>.. (one line per tensor, sorted by name)
    end

The payload is the concatenation of each tensor's C-order little-endian
IEEE-754 64-bit values, in header order.  Saving a loaded checkpoint
reproduces the file byte for byte.
"""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointError

MAGIC = "specshift-checkpoint v1"


def save_checkpoint(path: str, config_echo: str, tensors: dict[str, np.ndarray]) -> None:
    lines = [MAGIC]
    for cfg_line in config_echo.strip().splitlines():
        lines.append(f"config {cfg_line}")
    names = sorted(tensors)
    for name in names:
        arr = np.asarray(tensors[name])
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}".rstrip())
    lines.append("end")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[str, dict[str, np.ndarray]]:
    """Returns (config echo text, tensors by name)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    newline = blob.find(b"\n")
    if newline < 0 or blob[:newline].decode("utf-8", "replace") != MAGIC:
        raise CheckpointError(f"{path}: not a specshift checkpoint")
    end_marker = b"\nend\n"
    end = blob.find(end_marker)
    if end < 0:
        raise CheckpointError(f"{path}: missing end-of-header marker")
    header = blob[newline + 1 : end].decode("utf-8", "replace")
    payload = blob[end + len(end_marker) :]
    config_lines: list[str] = []
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for line in header.splitlines():
        if line.startswith("config "):
            config_lines.append(line[len("config ") :])
        elif line.startswith("tensor "):
            try:
                _, name, *sizes = line.split()
                dims = tuple(int(d) for d in sizes)
            except ValueError:
                raise CheckpointError(f"{path}: bad tensor line {line!r}") from None
            if any(d < 0 for d in dims):
                raise CheckpointError(f"{path}: negative size in tensor line {line!r}")
            if any(name == seen for seen, _ in shapes):
                raise CheckpointError(f"{path}: tensor {name} is listed twice")
            shapes.append((name, dims))
        else:
            raise CheckpointError(f"{path}: unexpected header line {line!r}")
    total = sum(int(np.prod(dims, dtype=np.int64)) for _, dims in shapes)
    if len(payload) != total * 8:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes, header expects {total * 8}"
        )
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, dims in shapes:
        size = int(np.prod(dims, dtype=np.int64))
        flat = np.frombuffer(payload, dtype="<f8", count=size, offset=offset * 8)
        tensors[name] = flat.reshape(dims).astype(float)
        offset += size
    return "\n".join(config_lines) + ("\n" if config_lines else ""), tensors
