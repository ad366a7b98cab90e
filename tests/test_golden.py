"""Byte-for-byte CLI output against the committed files in tests/golden/.

Each golden is the exact stdout of one command, with the exit code it
must end with (a failing `verify` still prints its report and exits 1).
A golden changes only on
purpose, in its own commit, with the reason recorded in CHANGES.md; to
write them afresh run `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from arecorr.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
# The benchmark workloads' stdout digests, kept once, in bench/expected.json.
BENCH_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "bench" / "expected.json").read_text(encoding="utf-8")
)

GOLDENS = {
    "table_grid99.csv": (["table", "--grid", "99"], 0),
    "bounds.csv": (["bounds"], 0),
    "verify.json": (["verify", "--format", "json"], 0),
    "verify_grid999.txt": (["verify", "--grid", "999"], 0),
    # The four tolerance checks fail, which pins their pass rule.
    "verify_tol1e-300.json": (
        ["verify", "--grid", "99", "--tol", "1e-300", "--format", "json"],
        1,
    ),
    "reduce_grid99.csv": (["reduce", "--grid", "99"], 0),
    "reduce_grid999.json": (["reduce", "--grid", "999", "--format", "json"], 0),
    "mc_n50_reps200.csv": (["mc", "--n", "50", "--reps", "200", "--rho", "0.0,0.5"], 0),
    # A repeated rho, a negative rho and a signed zero, each its own row.
    "mc_rho_list.csv": (["mc", "--n", "20", "--reps", "100", "--rho", "0.9,-0.5,0.9,-0.0"], 0),
}


def _stdout_of(argv: list[str], want_rc: int = 0) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == want_rc, f"{argv} exited {rc}, want {want_rc}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_output_matches_golden_bytes(name: str) -> None:
    want = (GOLDEN_DIR / name).read_bytes()
    assert _stdout_of(*GOLDENS[name]).encode("utf-8") == want


# The `table` benchmark workload's stdout, pinned by its digest because
# the file itself is 5,000 lines.
def test_table_grid4999_stdout_matches_its_digest() -> None:
    out = _stdout_of(["table", "--grid", "4999"]).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == BENCH_DIGESTS["table"]


# The `verify` benchmark workload's stdout, pinned by its digest.
def test_verify_grid499_stdout_matches_its_digest() -> None:
    out = _stdout_of(["verify", "--grid", "499", "--format", "json"]).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == BENCH_DIGESTS["verify"]


# `reduce` at ten times its default grid, pinned by digest for its size.
REDUCE_GRID9999_SHA256 = "39ee4feee560ca593ba8f1790c57ec08c5a8c1ea7c13332d545a52c93e3f571d"


def test_reduce_grid9999_stdout_matches_its_digest() -> None:
    out = _stdout_of(["reduce", "--grid", "9999", "--format", "json"]).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == REDUCE_GRID9999_SHA256


# The `mc` benchmark workloads' stdout at the benchmark's default seed,
# pinned by their digests.
MC_WORKLOADS = {
    "mc-large": ["mc", "--n", "1000", "--reps", "400"],
    "mc-small": ["mc", "--n", "50", "--reps", "2000"],
}


@pytest.mark.parametrize("name", sorted(MC_WORKLOADS))
def test_mc_workload_stdout_matches_its_digest(name: str) -> None:
    argv = MC_WORKLOADS[name] + ["--rho", "0.0,0.5,0.9", "--seed", "20260814"]
    out = _stdout_of(argv).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == BENCH_DIGESTS[name]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_rc) in GOLDENS.items():
        (GOLDEN_DIR / name).write_bytes(_stdout_of(argv, want_rc).encode("utf-8"))
        print(f"wrote {name}", file=sys.stderr)
