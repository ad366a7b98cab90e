"""Command-line front end: efficiency tables, bound coefficients,
invariant verification, Monte Carlo reports, and reduction diagnostics.

Output is CSV (default), JSON mirroring the CSV fields, or, for
`verify`, line-oriented text.  All output is locale-independent with
'.' decimals and LF line endings; identical flags and seed give
byte-identical output.  Exit codes: 0 success, 1 verification failure
or any other error the package, the file system or the memory
allocator reports, 2 usage error; errors print one `arecorr: ...` line
to stderr and nothing to stdout.

`mc` draws each replicate once for all its rhos and evaluates R, S and
T on it at each rho.  `reduce` evaluates the chain only by passes of
its last node: per anchor, one array pass on the grid, one at 1e-6 for
rho_tilde and one per step of the anchor's one lockstep bisection.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from .are_bounds import PAIR_TAGS, are, crossover, quad_bounds, ratio_slope
from .errors import ArecorrError, DomainError, Indeterminate
from .reduction import build_chain_rt, interior_grid, scan_signs, sign_patterns, stage_rho_tilde
from .reduction import classify_sign  # noqa: F401  bench/layertrace.py patches it here
from .stats_mc import _SIZE_LIMIT, DEFAULT_SEED, _mc_key, mc_moments, mc_replicates
from .verify import MIN_GRID, run_checks

__all__ = ["main", "run"]

_PAIR_CHOICES = ("rt", "ts", "rs", "all")
_ANCHOR_CHOICES = ("0", "1", "both")

# `table` builds its rows in blocks of abscissae that fit in the sigma_s2
# memo, each block's columns from one array call of `are` per pair; the
# TS call fills the memo that the RS call reads.  `_render` keeps only
# each block's text, so one block of row dicts is live at a time.  Small
# blocks keep the array temporaries small: with 4096, `table --grid
# 4999` peaked about 0.1 MiB higher in RSS than with 256.
_TABLE_BLOCK = 256

# `mc` reports its rhos in blocks that fit in the replicate memo, each
# block after one mc_replicates call that draws the block's replicates
# once for all its rhos.
_MC_BLOCK = 8


class _UsageError(Exception):
    pass


def _parse_rho_list(text: str) -> list[float]:
    out = []
    for tokraw in text.split(","):
        tok = tokraw.strip()
        if not tok:
            raise _UsageError(f"empty entry in --rho list {text!r}")
        try:
            v = float(tok)
        except ValueError:
            raise _UsageError(f"--rho entry {tok!r} is not a number") from None
        if not abs(v) < 1.0:
            raise _UsageError(f"--rho entry {v!r} must satisfy |rho| < 1")
        out.append(v)
    return out


def _selected_pairs(flag: str) -> list[str]:
    return list(PAIR_TAGS) if flag == "all" else [flag.upper()]


def _selected_anchors(flag: str) -> list[int]:
    return [0, 1] if flag == "both" else [int(flag)]


def _render(blocks, fmt: str) -> list[str]:
    """Blocks of rows as the parts of one JSON or CSV text; every command
    emits at least one row, and the first row's keys are the CSV
    columns.  Only each block's text is kept, not its rows."""
    if fmt == "json":
        # Each block's items, as json.dumps of all rows would write them.
        items = [json.dumps(block, indent=2)[2:-2] for block in blocks]
        return ["[\n", ",\n".join(items), "\n]\n"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    parts = []
    for block in blocks:
        if not parts:
            writer.writerow(block[0])
        writer.writerows(map(dict.values, block))
        parts.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return parts


def _write_out(parts: list[str], out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(parts)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)


def _table_blocks(xs: list[float]):
    """The rows of `table`, one block of _TABLE_BLOCK abscissae at a time."""
    for i in range(0, len(xs), _TABLE_BLOCK):
        block = xs[i : i + _TABLE_BLOCK]
        x = np.array(block)
        cols = [are(tag, x).tolist() for tag in PAIR_TAGS]
        yield [
            {"x": v, "are_rt": rt, "are_ts": ts, "are_rs": rs}
            for v, rt, ts, rs in zip(block, *cols)
        ]


def _check_grid_size(grid: int) -> None:
    # interior_grid builds a list of `grid` floats: refuse one that could
    # never be held before it starts allocating.
    if grid >= _SIZE_LIMIT:
        raise _UsageError(f"--grid must be < 2**55, got {grid!r}")


def _cmd_table(args) -> int:
    if args.grid < 2:
        raise _UsageError(f"--grid must be >= 2, got {args.grid}")
    _check_grid_size(args.grid)
    xs = interior_grid(0.0, 1.0, args.grid)
    _write_out(_render(_table_blocks(xs), args.format), args.out)
    return 0


def _cmd_bounds(args) -> int:
    rows = []
    for tag in _selected_pairs(args.pair):
        cross_l = crossover(tag, "L")
        cross_u = crossover(tag, "U")
        for a in _selected_anchors(args.anchor):
            lower, upper = quad_bounds(tag, a)
            rows.append(
                {
                    "pair": tag,
                    "anchor": a,
                    "b": lower.b,
                    "c": lower.c,
                    "q_low": lower.q,
                    "q_high": upper.q,
                    "crossover_l": cross_l,
                    "crossover_u": cross_u,
                }
            )
    _write_out(_render([rows], args.format), args.out)
    return 0


def _check_sign_grid(grid: int) -> None:
    if grid < MIN_GRID:
        raise _UsageError(
            f"--grid {grid} is too coarse for sign refinement; need >= {MIN_GRID}"
        )
    _check_grid_size(grid)


def _cmd_verify(args) -> int:
    _check_sign_grid(args.grid)
    if not (args.tol > 0.0 and math.isfinite(args.tol)):
        raise _UsageError(f"--tol must be finite and > 0, got {args.tol}")
    results = run_checks(grid=args.grid, tol=args.tol)
    if args.format == "text":
        lines = [
            f"{r.name}: {'pass' if r.passed else 'FAIL'}  margin={r.margin!r}"
            for r in results
        ]
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        parts = ["\n".join(lines) + "\n"]
    else:
        parts = _render([[dataclasses.asdict(r) for r in results]], args.format)
    _write_out(parts, args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_mc(args) -> int:
    try:
        _mc_key(args.n, args.reps, args.seed)
    except DomainError as exc:
        raise _UsageError(f"--{exc}") from None
    rhos = _parse_rho_list(args.rho)
    # rho outermost, so the three statistics of one rho read one memo
    # entry; the stable sort restores one block of rows per statistic.
    reports = []
    for i in range(0, len(rhos), _MC_BLOCK):
        block = rhos[i : i + _MC_BLOCK]
        mc_replicates(block, args.n, args.reps, args.seed)
        reports += [
            mc_moments(stat, rho, n=args.n, reps=args.reps, seed=args.seed)
            for rho in block
            for stat in "RST"
        ]
    reports.sort(key=lambda rep: "RST".index(rep.stat))
    _write_out(_render([[dataclasses.asdict(rep) for rep in reports]], args.format), args.out)
    return 0


def _arrows(symbols: str) -> str:
    """The monotonicity pattern of a function from the sign pattern of its slope."""
    return symbols.replace("+", "↗").replace("-", "↘")


@np.errstate(divide="ignore", invalid="ignore")
def _chain_values(node, x) -> list:
    """f_k, g_k and r_k' for k = 0..i from one order-1 pass of node i at x;
    r_k' is inf or nan where g_k is 0, with no warning."""
    return [v for f, g in node.stages(x, 1) for v in (f.value, g.value, ratio_slope(f, g))]


def _cmd_reduce(args) -> int:
    if args.pair != "rt":
        raise _UsageError(
            "only --pair rt is supported: published multiplier chains for the "
            "other pairs are not available"
        )
    _check_sign_grid(args.grid)
    rows = []
    xs = interior_grid(0.0, 1.0, args.grid)
    for a in _selected_anchors(args.anchor):
        # Every f_i, g_i and r_i' from passes of the last node alone.
        last = build_chain_rt(a)[-1]
        values = _chain_values(last, np.array(xs))
        scans = []
        for k, v in enumerate(values):
            try:
                scans.append(scan_signs(xs, v))
            except Indeterminate:
                if k % 3 < 2:  # f_i or g_i
                    raise
                scans.append(("", []))  # r_i' has no sign: its columns stay blank
        patterns = sign_patterns(lambda m, at: np.choose(at, _chain_values(last, m)), xs, scans)
        for i, stage in enumerate(last.stages(1e-6, 1)):
            f_sp, g_sp, r_sp = patterns[3 * i : 3 * i + 3]
            try:
                rt0 = repr(stage_rho_tilde(i, *stage))
            except DomainError:
                rt0 = ""
            rows.append(
                {
                    "anchor": a,
                    "node": i,
                    "f_pattern": f_sp.symbols,
                    "f_breakpoints": ";".join(map(repr, f_sp.breakpoints)),
                    "g_pattern": g_sp.symbols,
                    "g_breakpoints": ";".join(map(repr, g_sp.breakpoints)),
                    "r_pattern": _arrows(r_sp.symbols),
                    "r_breakpoints": ";".join(map(repr, r_sp.breakpoints)),
                    "min_abs_f": min(map(abs, values[3 * i].tolist())),
                    "min_abs_g": min(map(abs, values[3 * i + 1].tolist())),
                    "rho_tilde_0": rt0,
                }
            )
    _write_out(_render([rows], args.format), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arecorr",
        description="Efficiency curves, quadratic bounds, and Monte Carlo "
        "checks for the three classical correlation statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, formats=("csv", "json")) -> None:
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=formats, default=formats[0])

    sp = sub.add_parser("table", help="efficiency curves on an interior grid")
    sp.add_argument("--grid", type=int, default=999)
    add_io(sp)
    sp.set_defaults(fn=_cmd_table)

    sp = sub.add_parser("bounds", help="quadratic bound coefficients + crossovers")
    sp.add_argument("--pair", choices=_PAIR_CHOICES, default="all")
    sp.add_argument("--anchor", choices=_ANCHOR_CHOICES, default="both")
    add_io(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("verify", help="run the named invariant suites")
    sp.add_argument("--grid", type=int, default=999)
    sp.add_argument("--tol", type=float, default=1e-10)
    add_io(sp, formats=("text", "csv", "json"))
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("mc", help="Monte Carlo moment and normality report")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--reps", type=int, default=4000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--rho", default="0.0,0.5,0.9", help="comma-separated values")
    add_io(sp)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("reduce", help="reduction-chain diagnostics (RT only)")
    sp.add_argument("--pair", choices=_PAIR_CHOICES, default="rt")
    sp.add_argument("--anchor", choices=_ANCHOR_CHOICES, default="both")
    sp.add_argument("--grid", type=int, default=999)
    add_io(sp)
    sp.set_defaults(fn=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"arecorr: error: {exc}", file=sys.stderr)
        return 2
    except ArecorrError as exc:
        print(f"arecorr: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"arecorr: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("arecorr: error: out of memory:", str(exc) or "allocation failed", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
