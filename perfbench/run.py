"""Run one specshift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shift_bench --seed 0 --seconds 45 --trace 0

The untraced run (``--trace 0``) runs one warm-up cycle, then repeats the
workload's cycle until ``--seconds`` have passed (and at least MIN_CYCLES
times) and reports end-to-end metrics from the measured cycles' samples (see
``e2e_metrics``).  The warm-up cycle is checked but not timed.  The traced run
(``--trace 1``) runs an untraced cycle, a traced cycle and another untraced
cycle, and reports per-layer metrics from the traced one plus
``trace.overhead_s`` (traced cycle time minus the untraced cycles' mean).

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, sizes, samples, checks) is
written to ``perfbench/results/``.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_CYCLES = 3

E2E = (  # (name, unit) in report order; BENCHMARK.json lists the same names
    ("setup_s", "s"),
    ("train_windows_per_s", "windows/s"),
    ("eval_windows_per_s", "windows/s"),
    ("shift_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mse_ratio", "ratio"),
    ("ks_reduction", "ratio"),
)


def pin_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    record = {"nproc": nproc, "env_before": {v: os.environ.get(v) for v in THREAD_VARS}}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, "0"))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    record["env_pinned"] = {v: os.environ[v] for v in THREAD_VARS}
    record["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return record


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git without starting git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_cache() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def environment(np, threads: dict, seed: int, workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **threads,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes,
        "footprint": workload.footprint(),
        "l3_cache": l3_cache(),
        "load": "closed loop, one client, one process",
    }


def summarize(samples: list[float]) -> dict:
    """Fastest, median, the highest percentile with at least ten samples above it, and the count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"min": ordered[0], "median": statistics.median(ordered), "n": n, "percentile": None,
           "percentile_value": None}
    if n >= 11:
        out["percentile"] = round(100.0 * (n - 10) / n, 2)
        out["percentile_value"] = ordered[n - 11]
    return out


def e2e_metrics(cycles, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end values from the samples of the measured cycles.

    setup_s and shift_s are the medians of their samples.  A throughput is
    every window its samples processed over the time they took together, so
    each method counts by the time it takes and a slow stretch of the host
    weighs by its length.  mse_ratio and ks_reduction are the same in every
    cycle.
    """
    samples: dict[str, list[float]] = {}
    windows = {"train": 0, "eval": 0}
    for cyc in cycles:
        for name, values in cyc.samples.items():
            samples.setdefault(name, []).extend(values)
            kind, _, method = name.partition("_s.")
            if kind in windows:
                windows[kind] += len(values) * cyc.work[f"{kind}.{method}"]
    for name in ("mse_ratio", "ks_reduction"):
        samples[name] = [v for v in (getattr(c, name) for c in cycles) if not math.isnan(v)]
    stats = {name: summarize(vals) for name, vals in samples.items() if vals}
    values = {name: stats[name]["median"] if name in stats else math.nan
              for name in ("setup_s", "shift_s", "mse_ratio", "ks_reduction")}
    for kind, count in windows.items():
        seconds = sum(sum(v) for name, v in samples.items() if name.startswith(kind + "_s."))
        values[f"{kind}_windows_per_s"] = count / seconds if seconds > 0 else math.nan
    values["peak_rss_mb"] = peak_rss_mb
    return {name: values[name] for name, _ in E2E}, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy as np
        import specshift
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(specshift.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: specshift was imported from {specshift.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    results_dir = HERE / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    checks: list[dict] = []
    cycles = []

    def checked(cyc):
        checks.extend(workload.cycle_checks(cyc))
        cyc.state = {}  # release the cycle's arrays so memory does not grow with the cycle count
        cycles.append(cyc)

    record = {"trace": args.trace}
    tracer, untraced = None, []
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        record["environment"] = environment(np, threads, args.seed, workload)
        if args.trace == 0:
            # warm-up: first calls, allocator growth and cold caches stay out of the timings
            checked(workload.cycle())
            start = time.perf_counter()
            while len(cycles) <= MIN_CYCLES or time.perf_counter() - start < args.seconds:
                checked(workload.cycle())
            record["measured_s"] = time.perf_counter() - start
        else:
            def untraced_cycle():
                t0 = time.perf_counter()
                cyc = workload.cycle()
                untraced.append(time.perf_counter() - t0)
                checked(cyc)

            # untraced cycles before and after the traced one, so that a drift in
            # the host's speed does not pass for tracing overhead
            untraced_cycle()
            cyc, tracer, traced_s = layers.traced_cycle(workload)
            checked(cyc)
            untraced_cycle()
            spans_path = results_dir / f"{tag}-spans.json"
            spans_path.write_text(json.dumps(tracer.span_records()))
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            record["untraced_cycle_s"] = untraced
            record["traced_cycle_s"] = traced_s
        checks += workload.final_checks(cycles)
    except Exception:  # still print a result, marked incorrect, for what did run
        checks.append(workloads.check("the workload ran to the end", False, traceback.format_exc(limit=6)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace == 0:
        metrics, stats = e2e_metrics(cycles[1:], peak_rss_mb)
        units = dict(E2E)
        record["samples"] = stats
    else:
        units = {name: unit for name, unit, _ in layers.metric_catalogue()}
        metrics = dict.fromkeys(units, math.nan)
        if tracer is not None and len(untraced) == 2:
            metrics.update(layers.layer_metrics(tracer))
            metrics["trace.overhead_s"] = traced_s - statistics.mean(untraced)
    attempted = sum(c.ops for c in cycles) + len(checks)
    failed = sum(c.failed for c in cycles) + sum(not c["ok"] for c in checks)
    if not all(math.isfinite(v) for v in metrics.values()):
        checks.append(workloads.check("every metric is finite", False))
        attempted += 1
        failed += 1
    correct = all(c["ok"] for c in checks)
    record.update({
        "cycles": [{k: v for k, v in vars(c).items() if k != "state"} for c in cycles],
        "checks": checks,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    })
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for c in checks:
        print(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['name']} {c['detail']}".rstrip())
    for cyc in cycles:
        for error in cyc.errors:
            print(f"error in {error['op']}:\n{error['traceback']}".rstrip())
    for name, s in record.get("samples", {}).items():
        tail = "" if s["percentile"] is None else f", p{s['percentile']} {s['percentile_value']:.6g}"
        print(f"sample {name}: fastest {s['min']:.6g}, median {s['median']:.6g} of {s['n']} samples{tail}")
    for name, spec in record["metrics"].items():
        print(f"{name} {spec['value']:.6g} {spec['unit']}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v["value"] if math.isfinite(v["value"]) else None, "unit": v["unit"]}
                    for name, v in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
