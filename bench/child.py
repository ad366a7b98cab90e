"""One measured arecorr CLI call in a fresh interpreter.

usage: python3 bench/child.py RESULT_JSON TRACED [CLI ARGS...]

Times the import of `arecorr.cli` (set-up) and one `cli.main(argv)` call
with its final stdout flush (run), and writes both to RESULT_JSON.  With
TRACED = 1 the call runs under the layer trace of `layertrace.py`, which
is installed after the import and before the run clock starts; the spans
are written to RESULT_JSON after the run.  With no CLI arguments the
child only imports, which compiles bytecode and warms the file cache.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import arecorr.cli as cli

    record: dict = {"setup_s": time.perf_counter() - t0, "module": cli.__file__, "rc": 0}
    if argv:
        entry = cli.main
        if traced:
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
            entry = tracer.wrap("cli.main", cli.main)
        t1 = time.perf_counter()
        record["rc"] = entry(argv)
        sys.stdout.flush()
        record["run_s"] = time.perf_counter() - t1
        if traced:
            record["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
