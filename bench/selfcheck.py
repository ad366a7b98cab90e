"""Self-check of the benchmark.

usage: python3 bench/selfcheck.py

Checks, on every workload of BENCHMARK.json:

1. Two traced runs report exactly the same counts for quadrature.evals,
   taylor.jet_ops, reduction.sign_evals and stats_mc.samples.
2. The untraced figures are exactly the end_to_end metrics and the
   traced figures exactly the per_layer metrics, each with its unit.
3. The seed changes the stdout of the mc workloads and leaves that of
   verify and table unchanged.

Prints each problem and exits 1 if there is one; exits 0 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

EXACT_COUNTS = (
    "quadrature.evals",
    "taylor.jet_ops",
    "reduction.sign_evals",
    "stats_mc.samples",
)
OTHER_SEED = 1


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        counts = []
        for _ in range(2):
            children = run.measure(workload, run.DEFAULT_SEED, 0, traced=True)
            with contextlib.redirect_stdout(io.StringIO()):
                results = {t: run.report(workload, run.DEFAULT_SEED, children, t) for t in want}
            for traced, result in results.items():
                if not result["correct"]:
                    problems.append(f"{workload}: {result['failed']} failed children")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[traced]:
                    problems.append(f"{workload}: metrics/units {got} != {want[traced]}")
            counts.append({k: results[True]["metrics"][k]["value"] for k in EXACT_COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between traced runs: {counts}")
        outs = []
        for seed in (run.DEFAULT_SEED, OTHER_SEED):
            child = run.run_child(run.workload_argv(workload, seed), traced=False)
            error = child.error or run.check_output(workload, seed, child.stdout)
            if error:
                problems.append(f"{workload} seed {seed}: {error}")
            outs.append(child.stdout)
        changed = outs[0] != outs[1]
        if changed != (run.WORKLOADS[workload][0] == "mc"):
            problems.append(f"{workload}: seed {'changed' if changed else 'did not change'} stdout")
        print(f"{workload}: counts {counts[0]}", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
