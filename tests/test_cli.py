"""End-to-end tests of the command-line interface via main(argv)."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arecorr import cli, reduction
from arecorr.are_bounds import PAIR_TAGS, are
from arecorr.cli import main
from arecorr.errors import DomainError, Indeterminate
from arecorr.reduction import ChainNode, interior_grid
from arecorr.taylor import Jet

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------- table


def test_table_emits_the_documented_interior_grid(capsys) -> None:
    rc, out, _ = _run(capsys, ["table", "--grid", "5"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 5
    assert [r["x"] for r in rows] == [repr(j / 6) for j in range(1, 6)]
    assert list(rows[0]) == ["x", "are_rt", "are_ts", "are_rs"]


def test_table_left_edge_approaches_the_endpoint_constant(capsys) -> None:
    # On a fine grid the first row sits at x = 0.01, within the quadratic
    # bound's reach of the x -> 0 endpoint value.
    rc, out, _ = _run(capsys, ["table", "--grid", "99"])
    assert rc == 0
    first = _rows(out)[0]
    assert float(first["x"]) == 0.01
    assert float(first["are_rt"]) == pytest.approx(1.0966, abs=1e-3)


def test_table_rows_satisfy_the_factorization_identity(capsys) -> None:
    rc, out, _ = _run(capsys, ["table", "--grid", "25"])
    assert rc == 0
    for row in _rows(out):
        lhs = float(row["are_rs"])
        rhs = float(row["are_rt"]) * float(row["are_ts"])
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_table_rejects_a_degenerate_grid(capsys) -> None:
    rc, _, err = _run(capsys, ["table", "--grid", "1"])
    assert rc == 2
    assert "grid" in err


# ------------------------------------------------------------------ bounds


def test_bounds_match_published_four_decimal_values(capsys) -> None:
    rc, out, _ = _run(capsys, ["bounds"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 6  # 3 pairs x 2 anchors
    by_key = {(r["pair"], r["anchor"]): r for r in rows}
    rt0 = by_key[("RT", "0")]
    assert round(float(rt0["q_low"]), 4) == 0.0966
    assert round(float(rt0["q_high"]), 4) == 0.1126
    rs = by_key[("RS", "0")]
    assert round(float(rs["crossover_l"]), 4) == 0.7916
    assert round(float(rs["crossover_u"]), 4) == 0.7737


def test_bounds_anchor_selection_controls_cardinality(capsys) -> None:
    rc, out, _ = _run(capsys, ["bounds", "--pair", "ts", "--anchor", "1"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert rows[0]["pair"] == "TS" and rows[0]["anchor"] == "1"
    rc, out, _ = _run(capsys, ["bounds", "--pair", "ts", "--anchor", "both"])
    assert len(_rows(out)) == 2


# ------------------------------------------------------------------ verify


def test_verify_text_report_names_checks_and_exits_zero(capsys) -> None:
    rc, out, _ = _run(capsys, ["verify", "--grid", "99"])
    assert rc == 0
    assert "theorem1.q_monotone.RS.1: pass" in out
    assert out.strip().splitlines()[-1] == "38/38 checks passed"
    assert "FAIL" not in out


def test_verify_refuses_a_grid_too_coarse_for_sign_refinement(capsys) -> None:
    rc, _, err = _run(capsys, ["verify", "--grid", "3"])
    assert rc == 2
    assert "coarse" in err


def test_verify_rejects_a_non_positive_tolerance(capsys) -> None:
    # An infinite tolerance is refused too: its margin would print as
    # `Infinity`, which is not JSON.
    for tol in ("0", "inf"):
        rc, out, err = _run(capsys, ["verify", "--grid", "99", "--tol", tol, "--format", "json"])
        assert rc == 2
        assert out == ""
        assert "tol" in err


def test_verify_csv_mirrors_the_text_outcome(capsys) -> None:
    rc, out, _ = _run(capsys, ["verify", "--grid", "99", "--format", "csv"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 38
    assert all(r["passed"] == "True" for r in rows)
    assert {"name", "passed", "margin", "detail"} == set(rows[0])


def test_a_package_error_exits_one_with_a_single_stderr_line(
    capsys, monkeypatch
) -> None:
    def indeterminate(grid, tol):
        raise Indeterminate("value 4e-12 at x=0.99994 is within the sign floor")

    monkeypatch.setattr(cli, "run_checks", indeterminate)
    rc, out, err = _run(capsys, ["verify", "--grid", "99"])
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [
        "arecorr: error: value 4e-12 at x=0.99994 is within the sign floor"
    ]


def _render_all_rows(rows: list[dict], fmt: str) -> str:
    """The render of all rows at once, as `table` wrote them before it
    rendered by block."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_rendered_by_block_is_the_render_of_all_rows(capsys, tmp_path, fmt) -> None:
    # 700 rows are three blocks, the last one short.
    assert cli._TABLE_BLOCK < 700 // 2
    xs = interior_grid(0.0, 1.0, 700)
    cols = [are(tag, np.array(xs)).tolist() for tag in PAIR_TAGS]
    rows = [
        {"x": v, "are_rt": rt, "are_ts": ts, "are_rs": rs} for v, rt, ts, rs in zip(xs, *cols)
    ]
    want = _render_all_rows(rows, fmt)
    rc, out, err = _run(capsys, ["table", "--grid", "700", "--format", fmt])
    assert (rc, err) == (0, "")
    assert out == want
    target = tmp_path / f"table.{fmt}"
    rc, out, _ = _run(capsys, ["table", "--grid", "700", "--format", fmt, "--out", str(target)])
    assert (rc, out) == (0, "")
    assert target.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_error_in_a_late_block_writes_nothing(capsys, monkeypatch, tmp_path, fmt) -> None:
    calls = []

    def failing_are(tag, x):
        # One call per pair and block: the seventh is the third block's first.
        calls.append(tag)
        if len(calls) > 2 * len(PAIR_TAGS):
            raise DomainError("are failed on the third block")
        return are(tag, x)

    monkeypatch.setattr(cli, "are", failing_are)
    target = tmp_path / "table.out"
    for out_flag in ([], ["--out", str(target)]):
        calls.clear()
        rc, out, err = _run(capsys, ["table", "--grid", "700", "--format", fmt, *out_flag])
        assert rc == 1
        assert out == ""
        assert err.splitlines() == ["arecorr: error: are failed on the third block"]
        assert len(calls) == 2 * len(PAIR_TAGS) + 1
        assert not target.exists()


# ---------------------------------------------------------------------- mc


MC_FAST = ["mc", "--n", "10", "--reps", "100", "--rho", "0.0"]


def test_mc_validates_flags(capsys) -> None:
    assert _run(capsys, ["mc", "--reps", "99"])[0] == 2
    assert _run(capsys, ["mc", "--n", "9"])[0] == 2
    assert _run(capsys, ["mc", "--reps", "100", "--rho", "1.0"])[0] == 2
    assert _run(capsys, ["mc", "--reps", "100", "--rho", "0.1,,0.2"])[0] == 2
    assert _run(capsys, ["mc", "--reps", "100", "--rho", "zero"])[0] == 2


def test_mc_refuses_seeds_outside_the_philox_key_word(capsys) -> None:
    # -1 and 2**64 - 1 would give the same draws under different seeds.
    for seed in ("-1", str(2**64)):
        rc, out, err = _run(capsys, MC_FAST + ["--seed", seed])
        assert rc == 2
        assert out == ""
        assert err.startswith("arecorr: error: --seed")
    assert _run(capsys, MC_FAST + ["--seed", str(2**64 - 1)])[0] == 0


def test_mc_refuses_sizes_past_numpys_index_range(capsys) -> None:
    # 10**20 is past any array dimension numpy takes; refused before any draw.
    huge = str(10**20)
    for flag, argv in (("--n", ["--n", huge]), ("--reps", ["--n", "10", "--reps", huge])):
        rc, out, err = _run(capsys, ["mc", *argv, "--rho", "0.0"])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"arecorr: error: {flag} must be < 2**55, got {huge}"]


def test_running_out_of_memory_exits_one_with_a_single_stderr_line(
    capsys, monkeypatch
) -> None:
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli, "mc_moments", exhausted)
    rc, out, err = _run(capsys, MC_FAST)
    assert rc == 1
    assert out == ""
    assert err.splitlines() == [
        "arecorr: error: out of memory: Unable to allocate 1.46 TiB for an array"
    ]


def test_a_bare_memory_error_still_says_what_failed(capsys, monkeypatch) -> None:
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "mc_moments", exhausted)
    rc, out, err = _run(capsys, MC_FAST)
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["arecorr: error: out of memory: allocation failed"]


def test_grid_commands_refuse_sizes_past_numpys_index_range(capsys) -> None:
    # Refused before interior_grid would start on a list of 10**20 floats.
    huge = str(10**20)
    for command in ("table", "verify", "reduce"):
        rc, out, err = _run(capsys, [command, "--grid", huge])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"arecorr: error: --grid must be < 2**55, got {huge}"]


def test_mc_emits_one_row_per_stat_and_rho(capsys) -> None:
    rc, out, _ = _run(capsys, MC_FAST + ["--rho", "0.0,0.5"])
    assert rc == 0
    rows = _rows(out)
    assert [(r["stat"], r["rho"]) for r in rows] == [
        ("R", "0.0"),
        ("R", "0.5"),
        ("S", "0.0"),
        ("S", "0.5"),
        ("T", "0.0"),
        ("T", "0.5"),
    ]
    assert all(r["seed"] for r in rows)


def test_mc_output_is_byte_identical_across_runs_and_workers(
    capsys, monkeypatch
) -> None:
    rc1, first, _ = _run(capsys, MC_FAST)
    rc2, second, _ = _run(capsys, MC_FAST)
    assert rc1 == rc2 == 0
    assert first == second
    monkeypatch.setenv("ARECORR_WORKERS", "6")
    rc3, pooled, _ = _run(capsys, MC_FAST)
    assert rc3 == 0
    assert pooled == first


# ------------------------------------------------------------------ reduce


@pytest.mark.filterwarnings("error")
def test_reduce_reports_the_documented_chain_diagnostics(capsys) -> None:
    rc, out, err = _run(capsys, ["reduce", "--grid", "99"])
    assert (rc, err) == (0, "")
    rows = _rows(out)
    assert len(rows) == 10  # both anchors x nodes 0..4
    by_key = {(r["anchor"], r["node"]): r for r in rows}
    for anchor in ("0", "1"):
        last = by_key[(anchor, "4")]
        assert last["f_pattern"] == "-"
        assert last["g_pattern"] == "-"
        assert last["r_pattern"] == "↗"
    stage2 = by_key[("1", "2")]
    assert float(stage2["rho_tilde_0"]) > 0.0
    root = by_key[("0", "0")]
    assert root["f_pattern"] == "+" and root["g_pattern"] == "+"
    assert root["r_pattern"] == "↗"


@pytest.mark.filterwarnings("error")
def test_reduce_reads_the_chain_from_array_passes_alone(capsys, monkeypatch) -> None:
    # reduce reads every f_i, g_i, r_i' and rho_tilde from passes of node 4:
    # per anchor one on the grid, one at 1e-6 and one per step of its one
    # lockstep bisection, which at grid 999 takes 24 steps.
    def refuse(self, x, order=0):
        raise AssertionError(f"evaluation of node {self.index} at {x!r} outside `stages`")

    passes = []
    stages = ChainNode.stages

    def counted(self, x, order=0):
        passes.append((self.index, np.shape(x), order))
        return stages(self, x, order)

    lockstep = []
    bisect_roots = reduction.bisect_roots

    def counted_bisect(h, lo, hi, flo):
        lockstep.append(len(lo))
        return bisect_roots(h, lo, hi, flo)

    for name in ("f", "g", "jets"):
        monkeypatch.setattr(ChainNode, name, refuse)
    monkeypatch.setattr(ChainNode, "stages", counted)
    monkeypatch.setattr(reduction, "bisect_roots", counted_bisect)
    rc, out, err = _run(capsys, ["reduce", "--grid", "999", "--format", "json"])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN_DIR / "reduce_grid999.json").read_bytes()
    assert len(passes) == 52
    assert {(index, order) for index, _, order in passes} == {(4, 1)}
    shapes = [shape for _, shape, _ in passes]
    assert (shapes.count((999,)), shapes.count(())) == (2, 2)
    # One lockstep per anchor holds all of the anchor's sign changes.
    assert lockstep == [4, 3]


def test_reduce_leaves_r_blank_when_the_slope_has_no_sign(capsys, monkeypatch) -> None:
    # r' values below SIGN_FLOOR fail its scan; f and g are reported as before.
    monkeypatch.setattr(cli, "ratio_slope", lambda f, g: np.full(np.shape(f.value), 1e-13))
    rc, out, _ = _run(capsys, ["reduce", "--grid", "99"])
    assert rc == 0
    got = _rows(out)
    want = _rows((GOLDEN_DIR / "reduce_grid99.csv").read_text(encoding="utf-8"))
    assert len(got) == len(want) == 10
    for row, gold in zip(got, want):
        assert gold["r_pattern"]
        assert row == {**gold, "r_pattern": "", "r_breakpoints": ""}


@pytest.mark.filterwarnings("error")
def test_reduce_names_the_first_grid_value_without_a_sign(capsys) -> None:
    # At grid 99999 f_0 at anchor 1 falls below SIGN_FLOOR at x = 0.99994.
    rc, out, err = _run(capsys, ["reduce", "--grid", "99999", "--anchor", "1"])
    assert (rc, out) == (1, "")
    assert err == (
        "arecorr: error: |h(0.99994)| = 8.745724571165456e-13 too small to carry a sign\n"
    )


@pytest.mark.filterwarnings("error")
def test_reduce_refuses_a_zero_g_with_one_stderr_line(capsys, monkeypatch) -> None:
    # With g_1 = 0 everywhere, r_1' is 0/0, formed before g_1's scan refuses
    # the grid: the refusal must be the only line on stderr, with no warning.
    stages = ChainNode.stages

    def zero_g1(self, x, order=0):
        out = stages(self, x, order)
        f, g = out[1]
        out[1] = (f, Jet(g.center, tuple(c * 0.0 for c in g.coeffs)))
        return out

    monkeypatch.setattr(ChainNode, "stages", zero_g1)
    rc, out, err = _run(capsys, ["reduce", "--grid", "99", "--anchor", "0"])
    assert (rc, out) == (1, "")
    assert err == "arecorr: error: |h(0.01)| = 0.0 too small to carry a sign\n"


def test_reduce_refuses_pairs_without_published_chains(capsys) -> None:
    rc, _, err = _run(capsys, ["reduce", "--pair", "ts"])
    assert rc == 2
    assert "not available" in err
    assert _run(capsys, ["reduce", "--pair", "all"])[0] == 2


def test_reduce_refuses_a_coarse_grid(capsys) -> None:
    assert _run(capsys, ["reduce", "--grid", "3"])[0] == 2


# ------------------------------------------------------- formats and files


def test_json_mirrors_csv_fields(capsys) -> None:
    rc, csv_out, _ = _run(capsys, ["table", "--grid", "5"])
    rc2, json_out, _ = _run(capsys, ["table", "--grid", "5", "--format", "json"])
    assert rc == rc2 == 0
    csv_rows = _rows(csv_out)
    json_rows = json.loads(json_out)
    assert len(json_rows) == len(csv_rows) == 5
    assert list(json_rows[0]) == list(csv_rows[0])
    for jrow, crow in zip(json_rows, csv_rows):
        for key in jrow:
            assert repr(jrow[key]) == crow[key]


def test_out_flag_writes_the_same_bytes_as_stdout(capsys, tmp_path) -> None:
    target = tmp_path / "table.csv"
    rc, _, _ = _run(capsys, ["table", "--grid", "5", "--out", str(target)])
    assert rc == 0
    rc2, stdout_text, _ = _run(capsys, ["table", "--grid", "5"])
    assert rc2 == 0
    assert target.read_text(encoding="utf-8") == stdout_text


def test_unwritable_out_path_is_an_io_error(capsys, tmp_path) -> None:
    rc, _, err = _run(capsys, ["table", "--grid", "5", "--out", str(tmp_path / "no" / "f.csv")])
    assert rc == 1
    assert "i/o error" in err


def test_unknown_flags_exit_with_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["table", "--grid", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------ the module entry


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _python_run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_src_env(), capture_output=True, text=True, timeout=300
    )


def _module_run(*argv: str) -> subprocess.CompletedProcess:
    return _python_run("-m", "arecorr.cli", *argv)


def test_python_dash_m_runs_the_command_line() -> None:
    done = _module_run("verify", "--grid", "99")
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "38/38 checks passed"
    done = _module_run("table", "--grid", "1")
    assert done.returncode == 2
    assert done.stdout == ""


def test_mc_prints_the_same_bytes_whichever_way_ndtri_was_loaded() -> None:
    # stats_mc reuses an imported scipy.special's ndtri, and otherwise
    # loads the ufunc without running scipy.special's __init__.
    argv = ("mc", "--n", "50", "--reps", "200", "--rho", "0.3,-0.9")
    main_code = "import sys; from arecorr.cli import main; sys.exit(main(sys.argv[1:]))"
    private = _python_run("-c", main_code, *argv)
    public = _python_run("-c", "import scipy.special; " + main_code, *argv)
    assert private.returncode == public.returncode == 0
    assert private.stdout.count("\n") == 7
    assert private.stdout == public.stdout


# ------------------------------------------------------------- flag fuzz

_INTS = st.sampled_from(["-1", "0", "1", "2", "5", "abc", "1.5", ""])
_SIGN_GRIDS = st.sampled_from(["-1", "0", "3", "98", "99", "100", "x"])
_TOLS = st.sampled_from(["inf", "-inf", "nan", "0", "-0.0", "-1e-10", "1e-10", "1e-6", "tol"])
_SEEDS = st.sampled_from(
    ["0", "7", str(2**64 - 1), "-1", str(2**64), str(2**70), "-" + str(2**64), "s"]
)
_RHOS = st.sampled_from(
    ["0.0", "0.5,-0.3", "-0.99", " 0.2 ", "1.0", "-1", "nan", "inf", "", "0.1,,0.2", "zero"]
)
_FORMATS = st.sampled_from(["csv", "json", "text", "xml"])


def _flags(**values) -> st.SearchStrategy[list[str]]:
    """Each flag given or left out, with the strategy's value."""
    parts = [
        st.one_of(st.just([]), strat.map(lambda v, flag=flag: [flag, v]))
        for flag, strat in values.items()
    ]
    return st.tuples(*parts).map(lambda chunks: [tok for chunk in chunks for tok in chunk])


_ARGVS = st.one_of(
    _flags(**{"--grid": _INTS, "--format": _FORMATS}).map(lambda f: ["table", *f]),
    _flags(
        **{
            "--pair": st.sampled_from(["rt", "ts", "rs", "all", "RT", "xy"]),
            "--anchor": st.sampled_from(["0", "1", "both", "2"]),
            "--format": _FORMATS,
        }
    ).map(lambda f: ["bounds", *f]),
    _flags(**{"--grid": _SIGN_GRIDS, "--tol": _TOLS, "--format": _FORMATS}).map(
        lambda f: ["verify", *f]
    ),
    _flags(
        **{
            "--pair": st.sampled_from(["rt", "ts", "all"]),
            "--anchor": st.sampled_from(["0", "1", "both"]),
            "--grid": _SIGN_GRIDS,
        }
    ).map(lambda f: ["reduce", *f]),
    st.tuples(
        st.sampled_from(["10", "12", "9", "n"]),
        st.sampled_from(["100", "100", "99", "r"]),
        _SEEDS,
        _RHOS,
    ).map(lambda v: ["mc", "--n", v[0], "--reps", v[1], "--seed", v[2], "--rho", v[3]]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_ARGVS)
@example(["verify", "--grid", "99", "--tol", "nan"])
@example(["mc", "--n", "10", "--reps", "100", "--seed", str(2**64), "--rho", "0.5"])
@example(["mc", "--n", "10", "--reps", "100", "--seed", str(2**64 - 1), "--rho", "0.5,-0.3"])
@example(["table", "--grid", "2", "--format", "json"])
def test_every_flag_combination_ends_with_an_exit_code_not_a_traceback(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        # Exit 1 from verify with a report on stdout is a failed check;
        # every other nonzero exit leaves stdout empty.
        report = out.getvalue().splitlines()
        failed_check = argv[0] == "verify" and rc == 1 and "checks passed" in report[-1]
        assert out.getvalue() == "" or failed_check


# Spawned from a small interpreter: a child's ru_maxrss also counts the
# resident set of the process that spawned it, here the test runner's.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _max_rss_kib(*argv: str) -> int:
    """Peak resident set of a child `python -c ...`, in KiB, from wait4."""
    done = _python_run("-c", _PEAK_RSS, sys.executable, "-c", *argv)
    assert done.returncode == 0, done.stderr
    code, rss = map(int, done.stdout.split())
    assert code == 0
    return rss


def test_table_memory_above_import_stays_within_budget(tmp_path) -> None:
    # Holding all 20,000 row dicts and one text buffer took 12.6-13.2 MiB
    # above import; rendering by block takes 4.4-4.8 MiB (CPython 3.11.7,
    # numpy 2.4.6, x86-64 Linux).
    base = _max_rss_kib("import arecorr.cli")
    run = _max_rss_kib(
        "import sys, arecorr.cli; sys.exit(arecorr.cli.main(sys.argv[1:]))",
        *("table", "--grid", "20000", "--out", str(tmp_path / "table.csv")),
    )
    assert (tmp_path / "table.csv").stat().st_size > 0
    assert run - base < 8 * 1024
