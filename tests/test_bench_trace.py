"""The layer trace of bench/ still installs on the current package.

`bench/layertrace.py` patches names in arecorr's modules from outside;
a rename there makes the traced benchmark child fail.  These tests run
the child traced and untraced and compare the two stdouts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _child(tmp_path: Path, traced: bool, argv: list[str]) -> tuple[str, dict]:
    result = tmp_path / f"result{int(traced)}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(result), str(int(traced)), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--grid", "99", "--format", "json"],
        ["mc", "--n", "20", "--reps", "100", "--rho", "0.0,0.5,-0.9"],
        ["reduce", "--grid", "99"],
        ["table", "--grid", "5"],
        ["bounds"],
    ],
    ids=["verify", "mc", "reduce", "table", "bounds"],
)
def test_traced_child_runs_and_keeps_stdout(tmp_path: Path, argv: list[str]) -> None:
    traced_out, record = _child(tmp_path, True, argv)
    assert "trace" in record
    plain_out, _ = _child(tmp_path, False, argv)
    assert traced_out == plain_out

