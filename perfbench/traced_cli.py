"""Run one seqeffects command under the tracer; used by the benchmark's traced runs.

Usage: python3 perfbench/traced_cli.py TRACE_OUT [seqeffects arguments...]

Times the import of ``seqeffects.cli`` (and the ``scipy.stats`` part of it),
wraps the package's public functions, runs ``seqeffects.cli.main`` with the
given arguments and writes the operation's self times, counts and spans to
TRACE_OUT as JSON. With no seqeffects arguments it only times the import.
The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imported first so the scipy share is its own)
    t1 = time.perf_counter()
    import scipy.stats  # noqa: F401
    t2 = time.perf_counter()
    import seqeffects.cli as cli
    t3 = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer()
    tracer.begin_op(0)
    tracer.add_time("cli.import_s", t3 - t0)
    tracer.add_part("cli.import_scipy_s", t2 - t1)
    rc = 0
    if argv:
        tracer.install()
        try:
            rc = cli.main(argv)
        finally:
            tracer.uninstall()
    op = tracer.end_op()
    out.write_text(json.dumps({"rc": rc, "op": op.to_dict(), "spans": tracer.spans}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
