"""Run one circulant-ilc command under the benchmark's tracer.

Usage: python benchmarks/cli_child.py SPANS_JSON CLI_ARGS...

Records the import of circulant_ilc as a span, wraps the package's public
functions, runs the CLI's main on CLI_ARGS and writes the spans and counts to
SPANS_JSON, exiting with main's exit code.
"""

import json
import sys
import time

import bench_env
from tracing import IMPORT_SPAN, Tracer


def main():
    tracer = Tracer(active=True)
    start = time.perf_counter()
    bench_env.use_checkout_src()
    import circulant_ilc.cli

    tracer.record(IMPORT_SPAN, start, time.perf_counter())
    try:
        with tracer.installed():
            return circulant_ilc.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
