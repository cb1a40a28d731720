"""Run in-process operations of one workload in a fresh process.

Usage: python3 perfbench/inproc_worker.py OUT WORKLOAD SCALE SEED R0 BUDGET_S TRACE

perfbench/run.py spreads the timed loop of an in-process workload over a
few of these in turn. The speed of a process on the benchmark's shared
machine varies by about 15% from one process to the next, so a run that
timed every operation in one process would carry one such draw. The worker
sets the workload up (untimed), runs operations R0, R0+1, ... until the
next would overrun BUDGET_S, traced when TRACE is 1, and writes each
outcome and its own peak resident memory to OUT as JSON.
"""

import json
import logging
import sys
from pathlib import Path


def main() -> None:
    out, name, scale, seed, r0, budget, trace = sys.argv[1:8]
    import seqeffects as se

    from run import timed_loop
    from tracer import Tracer
    from workloads import WORKLOADS, Context, peak_rss_mb

    logging.getLogger("seqeffects").setLevel(logging.ERROR)
    out = Path(out)
    wl = WORKLOADS[name](scale)
    ctx = Context(Path.cwd(), int(seed), out.parent)
    state = wl.setup(se, ctx, out.parent)
    ctx.tracer = Tracer()
    if trace == "1":
        ctx.traced = True
        ctx.tracer.install()
    try:
        outcomes = timed_loop(se, wl, ctx, state, float(budget), int(r0))
    finally:
        ctx.tracer.uninstall()
    rows = [
        {"r": r, "wall_s": o.wall_s, "error": o.error, "value": o.value,
         "trace": o.trace.to_dict() if o.trace is not None else None}
        for r, o in outcomes
    ]
    out.write_text(json.dumps({"outcomes": rows, "spans": ctx.tracer.spans, "peak_mb": peak_rss_mb()}))


if __name__ == "__main__":
    main()
