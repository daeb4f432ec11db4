"""Traced stand-in for `python -m singtrace.cli ARGS`.

Usage: [BENCH_TRACE_OUT=counts.json] python bench/cli_child.py ARGS

Runs singtrace.cli.main(ARGS).  With BENCH_TRACE_OUT set, the benchmark's
tracer is installed and the aggregated spans are written there; without
it the run is the untraced reference for the tracing overhead.  The
report on stdout and the exit code are those of the CLI.
"""

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import singtrace.cli as cli

    import_s = time.perf_counter() - t0
    out_path = os.environ.get("BENCH_TRACE_OUT")
    if out_path is None:
        return cli.main(sys.argv[1:])
    tracer = tr.Tracer()
    tracer.record_spans = True
    tracer.install()
    code = 1
    try:
        code = tracer.job(lambda: cli.main(sys.argv[1:]), name="cli.main")
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "stats": tracer.to_dict(),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
