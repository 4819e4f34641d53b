"""Run the benchmark in alternating pairs on two checkouts and summarize them.

    python tools/bench_pairs.py --parent PATH --out BENCH_<n>.json [--pairs 10] [--seconds 45]

For each pair and each ``BENCHMARK.json`` workload, runs
``perfbench/run.py --trace 0`` once in the parent checkout at PATH and once
in the checkout this file sits in, one process at a time, at the same seed,
alternating which side goes first.  After each run it reads the record the
run wrote to its checkout's ``perfbench/results/``; a run that exits other
than 0 or 1, or writes no record, stops the tool.  The output JSON holds:

- ``environment``: the first record's machine details (nproc, CPU, Python,
  numpy and BLAS versions, thread variables before and after pinning), plus
  this tool's C library (``platform.libc_ver()``) and every ``MALLOC_*`` and
  ``GLIBC_TUNABLES`` variable the runs inherit: glibc's malloc thresholds
  move with earlier large allocations, and timings move with them;
- ``commits``: each side's git HEAD, whether its tree differs from HEAD, and
  a sha256 over its ``src/`` files, which names the code that ran;
- ``runs``: every run's side, workload, seed, correctness, failed operations,
  end-to-end metrics and ``train_s``, its record's median seconds per
  ``train_s.<method>`` sample (one training of that method);
- ``summary``: per workload and metric, each side's median, quartiles and
  count, the ratio of the medians, and the pairs the change won (it was
  strictly better in the direction ``BENCHMARK.json`` gives);
- ``train_s``: per workload and side, the median over runs of each method's
  ``train_s``, and the cost ratios ``tifo/san``, ``tifo/fan`` and
  ``tifo+san/san`` of those medians where the workload trains both methods.

Nothing here feeds a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
FIRST_SEED = 101  # pair i runs at seed FIRST_SEED + i on both sides
COST_RATIOS = (("tifo", "san"), ("tifo", "fan"), ("tifo+san", "san"))


def _git(path: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _provenance(path: Path) -> dict:
    digest = hashlib.sha256()
    for file in sorted((path / "src").rglob("*.py")):
        digest.update(file.relative_to(path).as_posix().encode() + b"\0" + file.read_bytes())
    status = _git(path, "status", "--porcelain", "--", "src")
    return {"head": _git(path, "rev-parse", "HEAD"), "src_differs_from_head": bool(status),
            "src_sha256": digest.hexdigest()}


def _run(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at path; its record's outcome and metrics.

    Raises ``RuntimeError`` when run.py exits other than 0 (correct) or 1
    (incorrect), or leaves no record.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    record_path = path / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    record_path.unlink(missing_ok=True)  # an earlier run's record must not pass for this one's
    proc = subprocess.run(argv, cwd=path, capture_output=True, text=True, timeout=4 * seconds + 600)
    if proc.returncode not in (0, 1) or not record_path.exists():
        raise RuntimeError(f"{' '.join(argv[1:])} in {path} exited {proc.returncode} "
                           f"{'with' if record_path.exists() else 'without'} a record:\n{proc.stderr[-2000:]}")
    record = json.loads(record_path.read_text())
    return {
        "exit_code": proc.returncode,
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: spec["value"] for name, spec in record["metrics"].items()},
        "train_s": {name.removeprefix("train_s."): spec["median"] for name, spec in record["samples"].items()
                    if name.startswith("train_s.")},
        "environment": record["environment"],
    }


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """{workload: {metric: per-side stats, ratio of medians, wins}} over paired runs."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = {seed: sides for seed, sides in pairs.items() if len(sides) == 2}
        summary[workload] = {}
        for metric, direction in better.items():
            parent = [sides["parent"][metric] for sides in pairs.values()]
            change = [sides["change"][metric] for sides in pairs.values()]
            sign = 1.0 if direction == "higher" else -1.0
            summary[workload][metric] = {
                "better": direction,
                "parent": _stats(parent),
                "change": _stats(change),
                "change_over_parent": float(np.median(change) / np.median(parent)),
                "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
    return summary


def train_costs(runs: list[dict]) -> dict:
    """{workload: {side: {"median_s": {method: seconds}, "ratios": {"a/b": ratio}}}}:
    each method's median ``train_s`` over a side's runs, and COST_RATIOS of them."""
    seconds: dict = {}
    for r in runs:
        for method, s in r["train_s"].items():
            seconds.setdefault(r["workload"], {}).setdefault(r["side"], {}).setdefault(method, []).append(s)
    costs: dict = {}
    for workload, sides in seconds.items():
        for side, per_method in sides.items():
            medians = {method: float(np.median(s)) for method, s in per_method.items()}
            ratios = {f"{a}/{b}": medians[a] / medians[b] for a, b in COST_RATIOS if a in medians and b in medians}
            costs.setdefault(workload, {})[side] = {"median_s": medians, "ratios": ratios}
    return costs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args()
    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": HERE}
    runs = []
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        for w, workload in enumerate(workloads):
            order = ("parent", "change") if (i + w) % 2 == 0 else ("change", "parent")
            for side in order:
                run = _run(sides[side], workload, seed, args.seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, **run})
                shown = {k: round(v, 4) for k, v in run["metrics"].items()}
                print(f"pair {i} {workload} seed {seed} {side}: correct {run['correct']} "
                      f"failed {run['failed']} {shown}", flush=True)
    out = {
        "environment": {k: v for k, v in runs[0]["environment"].items()
                        if k not in ("seed", "workload", "sizes", "footprint", "git_commit")}
        | {"libc": "-".join(filter(None, platform.libc_ver())) or "unknown",
           "allocator_env": {k: v for k, v in sorted(os.environ.items())
                             if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"}},
        "commits": {side: _provenance(path) for side, path in sides.items()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "workloads": workloads,
                     "seeds": [FIRST_SEED + i for i in range(args.pairs)],
                     "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"},
        "runs": [{k: v for k, v in r.items() if k != "environment"} for r in runs],
        "summary": summarize(runs, better),
        "train_s": train_costs(runs),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, metrics in out["summary"].items():
        for metric, s in metrics.items():
            print(f"{workload} {metric}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                  f"(x{s['change_over_parent']:.3f}), change better in {s['wins']}/{s['pairs']} pairs")
    for workload, sides in out["train_s"].items():
        for side, cost in sides.items():
            shown = ", ".join(f"{k} {v:.3f}" for k, v in cost["ratios"].items()) or "no cost ratio"
            print(f"{workload} {side} train_s: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
