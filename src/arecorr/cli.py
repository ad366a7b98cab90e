"""Command-line front end: efficiency tables, bound coefficients,
invariant verification, Monte Carlo reports, and reduction diagnostics.

Output is CSV (default), JSON mirroring the CSV fields, or, for
`verify`, line-oriented text.  All output is locale-independent with
'.' decimals and LF line endings; identical flags and seed give
byte-identical output.  Exit codes: 0 success, 1 verification failure
or any other error the package, the file system or the memory
allocator reports, 2 usage error; errors print one `arecorr: ...` line
to stderr and nothing to stdout.  Each flag is checked once: the grid
by `reduction.sign_grid` and `interior_grid`, --tol by `run_checks`,
--n, --reps and --seed by `mc_reports`, and only table's grid >= 2,
--rho and reduce's --pair here.  A bad one raises `errors.BadArgument`,
which `main` prints as `arecorr: error: --<message>`, with exit code 2.

`mc` is one `mc_reports` call, which draws each replicate once per
block of rhos and evaluates R, S and T on it at each of them.  `reduce`
reads the chain only from passes of its last node: per anchor, one
`scan_chain` pass on the grid and 1e-6 (for rho_tilde), and one per
step of the anchor's one lockstep bisection.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from itertools import chain

import numpy as np

from .are_bounds import PAIR_TAGS, are, crossover, quad_bounds
from .errors import ArecorrError, BadArgument, DomainError, Indeterminate
from .reduction import build_chain_rt, chain_values, interior_grid, scan_chain, sign_grid
from .reduction import sign_patterns, stage_rho_tilde
from .reduction import classify_sign  # noqa: F401  bench/layertrace.py patches it here
from .stats_mc import DEFAULT_SEED, mc_reports
from .stats_mc import mc_moments  # noqa: F401  bench/layertrace.py patches it here
from .verify import run_checks

__all__ = ["main", "run"]

_PAIR_CHOICES = ("rt", "ts", "rs", "all")
_ANCHOR_CHOICES = ("0", "1", "both")

# `table` builds its rows in blocks of abscissae, each block's columns
# from one array call of `are` per pair; the TS call leaves the block's
# sigma_s2 values in the memo, where the RS call reads them.  `_render`
# keeps only each block's text, so one block of row dicts is live at a
# time.  Small blocks keep the array temporaries small: with 4096,
# `table --grid 4999` peaked about 0.1 MiB higher in RSS than with 256.
_TABLE_BLOCK = 256


def _parse_rho_list(text: str) -> list[float]:
    out = []
    for tokraw in text.split(","):
        tok = tokraw.strip()
        if not tok:
            raise BadArgument(f"rho list {text!r} has an empty entry")
        try:
            v = float(tok)
        except ValueError:
            raise BadArgument(f"rho entry {tok!r} is not a number") from None
        if not abs(v) < 1.0:
            raise BadArgument(f"rho entry {v!r} must satisfy |rho| < 1")
        out.append(v)
    return out


def _selected_pairs(flag: str) -> list[str]:
    return list(PAIR_TAGS) if flag == "all" else [flag.upper()]


def _selected_anchors(flag: str) -> list[int]:
    return [0, 1] if flag == "both" else [int(flag)]


def _render(blocks, fmt: str) -> list[str]:
    """Blocks of rows as the parts of one JSON or CSV text; every command
    emits at least one row, and the first row's keys are the CSV
    columns.  Only each block's text is kept, not its rows.

    A CSV block whose every cell is a float is one `%r` format of all
    its cells, kept as formatted: csv.writer writes a float as its repr,
    which never needs quoting."""
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
        cells = tuple(chain.from_iterable(map(dict.values, block)))
        if {*map(type, cells)} == {float}:
            line = ",".join(["%r"] * len(block[0])) + "\n"
            parts += [buf.getvalue(), line * len(block) % cells]
        else:
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


def _cmd_table(args) -> int:
    if args.grid < 2:
        raise BadArgument(f"grid must be >= 2, got {args.grid}")
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


def _cmd_verify(args) -> int:
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
    reports = mc_reports(_parse_rho_list(args.rho), args.n, args.reps, args.seed)
    _write_out(_render([[dataclasses.asdict(rep) for rep in reports]], args.format), args.out)
    return 0


def _arrows(symbols: str) -> str:
    """The monotonicity pattern of a function from the sign pattern of its slope."""
    return symbols.replace("+", "↗").replace("-", "↘")


def _cmd_reduce(args) -> int:
    if args.pair != "rt":
        raise BadArgument(
            f"pair must be rt, got {args.pair!r}: published multiplier chains for "
            "the other pairs are not available"
        )
    xs = sign_grid(args.grid)
    rows = []
    for a in _selected_anchors(args.anchor):
        # Every f_i, g_i and r_i' from passes of the last node alone.
        last = build_chain_rt(a)[-1]
        values, scans, probed = scan_chain(last, xs, (1e-6,))
        for k, scan in enumerate(scans):
            if isinstance(scan, Indeterminate):
                if k % 3 < 2:  # f_i or g_i
                    raise scan
                scans[k] = ("", [])  # r_i' has no sign: its columns stay blank
        patterns = sign_patterns(
            lambda m, at: np.choose(at, chain_values(last.stages(m, 1))), xs, scans
        )
        for i, stage in enumerate(probed[1e-6]):
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
    except BadArgument as exc:
        print(f"arecorr: error: --{exc}", file=sys.stderr)
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
