"""Run one traced CLI request in a fresh interpreter.

Usage: python -X importtime bench/trace_child.py TRACE_OUT ARGV...

Equivalent to `python -m twosheet.cli ARGV...` with the layers wrapped; the
spans, the per-function counts and the monotonic time at which this file
started are written to TRACE_OUT as JSON when the request ends.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.install()["cli"]
    tracer.begin(0)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.finish()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.spans(), "started_ns": STARTED_NS,
                       "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
