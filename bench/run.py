"""End-to-end benchmark of the arecorr command line.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each measured call is a fresh
interpreter (`bench/child.py`) that imports `arecorr.cli` from the
checkout's `src/` and runs one CLI command, because every CLI user pays
the cold caches (the `sigma_s2` memo, the endpoint series, the numpy
and scipy imports) on every call.  Load is a closed loop with a single
client: one child at a time, single-threaded (see PINNED_ENV), started
only after the previous one ended, until `--seconds` are used up.

Every child's stdout is checked: against the digests in
`bench/expected.json` for `verify`, `table` and for the `mc` workloads
at DEFAULT_SEED, by content checks for `mc` at other seeds, and
against the first child of the run for byte equality.  A run fails on
a nonzero exit, a traceback or an output mismatch.

The three timings are scaled to one nominal machine speed.  This
process, idle while a child runs, times a fixed pure-Python loop right
before and right after each child (`reference`); the child's setup_s,
run_s and cpu_s are multiplied by REFERENCE_NOMINAL_S over the mean
loop time.  The loop runs outside the measured process, so nothing the
program leaves running can slow it down or add to the child's CPU time.
On a shared host whose speed drifts by tens of percent within minutes,
this keeps the figures of runs made at different times comparable; the
unscaled medians and the loop time are printed as well.  peak_rss_mb is not scaled.

With `--trace 0` the last line of stdout is a JSON object whose metrics
are the medians of the end-to-end figures over the run's children.
With `--trace 1` traced and untraced children alternate; the metrics
are the medians of the per-layer figures of the traced children
(`bench/layertrace.py`) plus the tracing overhead.  The lines before
the last give every figure with its quartiles and sample count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# The CLI's own default seed; mc outputs are digest-checked at it.
DEFAULT_SEED = 20260814

# Each child runs about 1-2 s on a quiet machine: short enough that the
# reference loop timed around it tracks the speed the machine gave it.
WORKLOADS = {
    "verify": ["verify", "--grid", "499", "--format", "json"],
    "table": ["table", "--grid", "4999"],
    "mc-large": ["mc", "--n", "1000", "--reps", "400", "--rho", "0.0,0.5,0.9"],
    "mc-small": ["mc", "--n", "50", "--reps", "2000", "--rho", "0.0,0.5,0.9"],
}

# One worker, one BLAS/OpenMP thread; children run one at a time.
PINNED_ENV = {
    "ARECORR_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# Wall time of reference() at the speed the timings are scaled to.
REFERENCE_NOMINAL_S = 0.06
REFERENCE_LOOPS = 60_000
MIN_CHILDREN = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120.0

MC_FIELDS = [
    "stat",
    "rho",
    "n",
    "reps",
    "mean_hat",
    "var_hat_scaled",
    "se_mean",
    "se_var",
    "cdf_sup_dist",
    "seed",
]


@dataclass
class Child:
    traced: bool
    error: str = ""
    stdout: bytes = b""
    figures: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def reference() -> float:
    """Wall seconds of a fixed loop of float, call and tuple work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        v = (i % 97) * 0.01
        acc += math.sqrt(v + 1.0) * (v - 0.5)
        acc += tuple(v * k for k in range(4))[3]
    return time.perf_counter() - t0


def workload_argv(workload: str, seed: int) -> list[str]:
    """CLI arguments of one workload; only the mc workloads take the seed."""
    argv = list(WORKLOADS[workload])
    if argv[0] == "mc":
        argv += ["--seed", str(seed)]
    return argv


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], traced: bool) -> Child:
    """One fresh interpreter running one CLI command; waits for its end."""
    WORK.mkdir(exist_ok=True)
    result = WORK / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(int(traced)), *argv]
    child = Child(traced)
    references = [reference()]
    with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        references.append(reference())
        out.seek(0)
        child.stdout = out.read()
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0:
        child.error = f"exit code {proc.returncode}: {stderr[-300:]!r}"
    elif b"Traceback" in stderr:
        child.error = f"traceback on stderr: {stderr[-300:]!r}"
    if child.error or not argv:
        return child
    record = json.loads(result.read_text(encoding="utf-8"))
    if not Path(record["module"]).resolve().is_relative_to(ROOT / "src"):
        child.error = f"arecorr was imported from {record['module']}, not from src/"
        return child
    child.raw = {
        "setup_s": record["setup_s"],
        "run_s": record["run_s"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "reference_s": statistics.fmean(references),
    }
    speed = REFERENCE_NOMINAL_S / child.raw["reference_s"]
    child.figures = {
        "setup_s": record["setup_s"] * speed,
        "run_s": record["run_s"] * speed,
        "cpu_s": child.raw["cpu_s"] * speed,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if traced:
        child.layers = layertrace.layer_metrics(record["trace"])
    return child


def _exact_mean(stat: str, rho: float, n: int) -> float:
    """Finite-n mean of T and S; the large-n mean of R (bias O(1/n))."""
    mu_t = (2.0 / math.pi) * math.asin(rho)
    if stat == "T":
        return mu_t
    if stat == "S":
        mu_s = (6.0 / math.pi) * math.asin(0.5 * rho)
        return ((n - 2) * mu_s + 3.0 * mu_t) / (n + 1)
    return rho


def check_mc(text: str, argv: list[str]) -> str:
    """Content check of the report of `arecorr mc` at any seed; '' when it holds."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    n, reps, seed = int(flags["--n"]), int(flags["--reps"]), int(flags["--seed"])
    rhos = [float(r) for r in flags["--rho"].split(",")]
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    if reader.fieldnames != MC_FIELDS:
        return f"mc header {reader.fieldnames!r}"
    want = list(product("RST", rhos))
    if len(rows) != len(want):
        return f"{len(rows)} mc rows, want {len(want)}"
    for (stat, rho), row in zip(want, rows):
        echo = (row["stat"], float(row["rho"]), int(row["n"]), int(row["reps"]), int(row["seed"]))
        if echo != (stat, rho, n, reps, seed):
            return f"mc row echoes {echo!r}, want {(stat, rho, n, reps, seed)!r}"
        vals = {k: float(row[k]) for k in MC_FIELDS[4:9]}
        if not all(math.isfinite(v) for v in vals.values()):
            return f"non-finite value in mc row {row!r}"
        if not (vals["se_mean"] > 0 and vals["se_var"] > 0 and vals["var_hat_scaled"] > 0):
            return f"non-positive spread in mc row {row!r}"
        if not 0.0 < vals["cdf_sup_dist"] < 1.0:
            return f"cdf_sup_dist outside (0, 1) in mc row {row!r}"
        # Six standard errors, plus 1/n for the bias of R.
        slack = 6.0 * vals["se_mean"] + (1.0 / n if stat == "R" else 0.0)
        if abs(vals["mean_hat"] - _exact_mean(stat, rho, n)) > slack:
            return f"mean_hat off the exact mean in mc row {row!r}"
    return ""


def check_output(workload: str, seed: int, stdout: bytes) -> str:
    """'' when the stdout of one workload child is right, else the reason."""
    argv = workload_argv(workload, seed)
    if argv[0] != "mc" or seed == DEFAULT_SEED:
        expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != expected[workload]:
            return f"stdout sha256 {digest} != expected {expected[workload]}"
        return ""
    try:
        return check_mc(stdout.decode("utf-8"), argv)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed mc output: {exc!r}"


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workload: str, seed: int, seconds: float, traced: bool) -> list[Child]:
    """Children of one run, alternating untraced/traced when traced."""
    argv = workload_argv(workload, seed)
    warm = run_child([], traced=False)  # bytecode and file cache, not timed
    if warm.error:
        return [warm]
    children: list[Child] = []
    first_stdout = None
    start = time.perf_counter()
    while True:
        child = run_child(argv, traced=traced and len(children) % 2 == 1)
        if not child.error:
            child.error = check_output(workload, seed, child.stdout)
        if not child.error:
            if first_stdout is None:
                first_stdout = child.stdout
            elif child.stdout != first_stdout:
                child.error = "stdout differs from the run's first child"
        children.append(child)
        elapsed = time.perf_counter() - start
        if traced:
            enough = len(children) >= MIN_TRACED_PAIRS * 2 and len(children) % 2 == 0
        else:
            enough = len(children) >= MIN_CHILDREN
        if enough and elapsed * (1 + 1 / len(children)) > seconds:
            return children


def report(workload: str, seed: int, children: list[Child], traced: bool) -> dict:
    """Print every figure with quartiles; return the final result object."""
    failed = [c for c in children if c.error]
    ok = [c for c in children if not c.error] or children
    print(f"workload {workload}: arecorr {' '.join(workload_argv(workload, seed))}")
    print(
        f"  children {len(children)}  failed {len(failed)}  "
        f"failed_frac {len(failed) / len(children):.4f}"
    )
    for c in failed:
        print(f"  FAILED: {c.error}")
    plain = [c for c in ok if not c.traced and c.figures]
    e2e = {}
    for name, unit in E2E_UNITS.items():
        values = [c.figures[name] for c in plain]
        if not values:
            continue
        med, q1, q3 = summary(values)
        e2e[name] = {"value": med, "unit": unit}
        print(f"  {name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}  {unit}")
    for name in ("setup_s", "run_s", "cpu_s", "reference_s"):
        values = [c.raw[name] for c in plain]
        if values:
            med, q1, q3 = summary(values)
            print(f"  unscaled {name:<11} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  s")
    metrics = e2e
    if traced:
        metrics = {}
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        layered = [c for c in ok if c.traced and c.layers]
        if layered and plain:
            for name in layered[0].layers:
                med, q1, q3 = summary([c.layers[name] for c in layered])
                metrics[name] = {"value": med, "unit": units[name]}
                print(f"  {name:<36} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(layered)}")
            traced_run = statistics.median(c.figures["run_s"] for c in layered)
            overhead = traced_run / e2e["run_s"]["value"] - 1.0
            metrics["trace.overhead_frac"] = {
                "value": overhead,
                "unit": units["trace.overhead_frac"],
            }
            print(f"  trace.overhead_frac {overhead:.4f} (traced run_s {traced_run:.4f} s)")
    if ok and ok[0].stdout:
        print(f"  stdout sha256 {hashlib.sha256(ok[0].stdout).hexdigest()}")
    return {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "arecorr" / "cli.py").is_file():
        print(f"bench: no arecorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, args.seed, children, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
