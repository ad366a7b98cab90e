"""Byte-for-byte CLI output against the committed files in tests/golden/.

Each golden is the exact stdout of one command.  A golden changes only on
purpose, in its own commit, with the reason recorded in CHANGES.md; to
write them afresh run `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from arecorr.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDENS = {
    "table_grid99.csv": ["table", "--grid", "99"],
    "bounds.csv": ["bounds"],
    "verify.json": ["verify", "--format", "json"],
    "verify_grid999.txt": ["verify", "--grid", "999"],
    "reduce_grid99.csv": ["reduce", "--grid", "99"],
    "reduce_grid999.json": ["reduce", "--grid", "999", "--format", "json"],
    "mc_n50_reps200.csv": ["mc", "--n", "50", "--reps", "200", "--rho", "0.0,0.5"],
}


def _stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_output_matches_golden_bytes(name: str) -> None:
    want = (GOLDEN_DIR / name).read_bytes()
    assert _stdout_of(GOLDENS[name]).encode("utf-8") == want


# The `table` benchmark workload's stdout, pinned by digest (the digest in
# bench/expected.json) because the file itself is 5,000 lines.
TABLE_GRID4999_SHA256 = "6007c975bddecb3adfc73a03f02c94a0c2eb93b3346d58608260445633b91cd2"


def test_table_grid4999_stdout_matches_its_digest() -> None:
    out = _stdout_of(["table", "--grid", "4999"]).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == TABLE_GRID4999_SHA256


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDENS.items():
        (GOLDEN_DIR / name).write_bytes(_stdout_of(argv).encode("utf-8"))
        print(f"wrote {name}", file=sys.stderr)
