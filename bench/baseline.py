"""Repeat the benchmark and record its baseline.

usage: python3 bench/baseline.py

Runs `bench/run.py` once per seed 1..RUNS on every workload of
BENCHMARK.json, untraced,
then once traced at the default seed.  For every end-to-end metric it
prints the median and quartiles of the per-run values and their spread,
(q3 - q1) / median, against the metric's bound in BENCHMARK.json.  The
machine, the pinned environment, those figures and the traced run's
per-layer figures go to bench/baseline.json, which is written afresh.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BASELINE_JSON = run.BENCH / "baseline.json"
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(run.BENCH / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed (exit {out.returncode}):\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine() -> dict:
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    import numpy
    import scipy

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or None,
    }


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "machine": machine(),
        "pinned": {"env": run.PINNED_ENV, "children_at_a_time": 1},
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "timings_scaled_to_reference_s": run.REFERENCE_NOMINAL_S,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [bench_run(workload, seed, bench["run_seconds"], 0) for seed in record["seeds"]]
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values), "spread": spread}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(
                f"{workload:<9} {name:<12} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                f"  spread {spread:.4f}  bound/3 {bound / 3:.4f}  {flag}",
                flush=True,
            )
        traced = bench_run(workload, run.DEFAULT_SEED, bench["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    BASELINE_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
