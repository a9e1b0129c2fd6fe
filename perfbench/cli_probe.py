"""Traced stand-in for ``python -m coda_atlas.cli``.

usage: python perfbench/cli_probe.py SPANS_JSON SUBCOMMAND [ARGS...]

Times the import of ``coda_atlas.cli``, traces every package function the
CLI module imported by name, runs ``cli.main`` on the remaining arguments,
writes the spans to SPANS_JSON and exits with the CLI's exit code. The
package must be importable (PYTHONPATH pointing at the checkout's src/).
"""

import json
import sys
import time

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    start = time.perf_counter()
    import coda_atlas.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.patch_imports(cli)
    try:
        code = tracer.call("cli.main", cli.main, sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    raise SystemExit(code)
