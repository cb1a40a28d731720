"""seqeffects benchmark: end-to-end timings per workload, per-layer numbers when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pooled-mc-t8 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1 --out results.json

Inputs are generated from --seed into .perfbench_work/ and removed at the
end. The timed loop runs operations one after another for --seconds and
checks every output; a wrong output counts as a failed operation. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 untraced and traced quarters of the window
alternate, and the last line holds the per-layer metrics. Lines before it,
starting with '#', are for people. `--workload all` runs every workload in
its own process and, with --trace 1, both an untraced and a traced run of
each. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracer import OpTrace, Tracer
from workloads import CHILD_TIMEOUT_S, WORKLOADS, Context, OpOutcome

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
WORKER_S = 7.0  # seconds of timed loop per worker process of an in-process workload
SETUP_BLOCK_S = 0.3  # each set-up block repeats set-up for at least this long; setup_s is the median
PROBES = 3  # import and support probes per traced run

# Per-layer metrics that the traced operations give. Times are the median
# over traced operations of the layer's self time in one operation; counts
# come from the first traced operation, whose inputs depend on --seed alone.
LAYER_TIMES = [
    "cli.report_s",
    "dataset.load_s",
    "dataset.save_s",
    "tables.build_s",
    "tables.levels_s",
    "strata.targets_s",
    "patterns.parse_s",
    "patterns.constraints_s",
    "net_effects.recursion_s",
    "net_effects.verify_s",
    "estimation.solve_s",
    "estimation.expected_cov_s",
    "estimation.resampling_s",
    "simulator.simulate_s",
    "simulator.truth_s",
    "simulator.parse_dgp_s",
]
LAYER_COUNTS = [
    "cli.report_bytes",
    "dataset.rows",
    "dataset.csv_bytes",
    "tables.nodes",
    "strata.targets",
    "strata.skipped",
    "patterns.feature_evals",
    "patterns.rows",
    "patterns.dropped",
    "exprlang.evals",
    "keys.stratum_keys",
    "net_effects.downstream_walks",
    "estimation.flagged_pairs",
    "estimation.cov_bytes",
]
WORKLOAD_NAMES = list(WORKLOADS)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_root() -> Path:
    """The current directory, which must hold the seqeffects sources."""
    root = Path.cwd()
    if not (root / "src" / "seqeffects" / "__init__.py").is_file():
        fail(f"no src/seqeffects under {root}; run from the root of a seqeffects checkout")
    return root


def metric_units(root: Path) -> dict[str, dict[str, str]]:
    """Metric names and units by kind ("end_to_end", "per_layer"), from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its C API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[:3]
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "cpu_model": cpu_model,
        "loadavg_at_start": [float(v) for v in loadavg],
    }


def tail_of(walls: list[float]) -> float:
    """The 90th percentile of the operation times, interpolated between order statistics.

    A run gives 4 to 30 operations, too few for a percentile with ten
    samples beyond it to lie above the median, so op_tail_s is p90 at every
    sample count: statistics.quantiles(method="inclusive"), which reads the
    maximum for one operation.
    """
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


def timed_loop(se, wl, ctx, state, budget_s: float, r0: int = 0, between=None) -> list:
    """Run operations r0, r0 + 1, ... in this process until the next would overrun the budget.

    ``between``, if given, runs after each operation; its time does not
    count against the budget.
    """
    outcomes = []
    start = time.perf_counter()
    paused = 0.0
    r = r0
    while True:
        if outcomes:
            typical = statistics.median(o.wall_s for _, o in outcomes)
            if time.perf_counter() - start - paused + typical > budget_s:
                break
        ctx.op_id = r
        in_process_trace = ctx.traced and not wl.cli
        if in_process_trace:
            ctx.tracer.begin_op(r)
        op_start = time.perf_counter()
        try:
            outcome = wl.op(se, ctx, state, r)
        except subprocess.TimeoutExpired:
            outcomes.append((r, OpOutcome(CHILD_TIMEOUT_S, "child timed out")))
            break
        except Exception as exc:  # an operation that raises is a failed operation
            outcome = OpOutcome(time.perf_counter() - op_start, f"{type(exc).__name__}: {exc}")
        if in_process_trace:
            outcome.trace = ctx.tracer.end_op()
        outcomes.append((r, outcome))
        r += 1
        if between is not None:
            pause_start = time.perf_counter()
            between()
            paused += time.perf_counter() - pause_start
    return outcomes


def run_phase(se, wl, ctx, state, budget_s: float, r0: int = 0, between=None) -> list:
    """The timed loop of one phase, from operation r0.

    CLI workloads start a process per operation already. In-process
    workloads run in fresh worker processes in turn, one per WORKER_S of
    budget, so that one run averages over several processes. ``between``
    runs after each operation of a CLI workload, and after each worker.
    """
    if wl.cli:
        return timed_loop(se, wl, ctx, state, budget_s, r0, between)
    workers = max(1, round(budget_s / WORKER_S))
    outcomes = []
    for k in range(workers):
        out = ctx.work / f"worker{k}.json"
        subprocess.run(
            [sys.executable, str(HERE / "inproc_worker.py"), str(out), wl.name, wl.scale,
             str(ctx.seed), str(r0 + len(outcomes)), str(budget_s / workers), str(int(ctx.traced))],
            env=ctx.child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        )
        data = json.loads(out.read_text())
        for row in data["outcomes"]:
            trace = OpTrace.from_dict(row["trace"]) if row["trace"] is not None else None
            outcomes.append((row["r"], OpOutcome(row["wall_s"], row["error"], trace, row["value"],
                                                 data["peak_mb"])))
        if ctx.traced:
            ctx.tracer.absorb(data["spans"])
        if between is not None:
            between()
    return outcomes


def set_up_block(se, wl, ctx, work: Path, times: list[float]) -> None:
    """Set up again, at least once and for at least SETUP_BLOCK_S; append each set-up's time.

    Each set-up writes into a fresh directory, removed once it is timed, as
    the run's first set-up did. Writing over an earlier set-up's files would
    make the file system flush them first, which costs more, and more
    erratically, than writing them.
    """
    block_start = time.perf_counter()
    while True:
        where = work / "setup-again"
        where.mkdir()
        start = time.perf_counter()
        wl.setup(se, ctx, where)
        end = time.perf_counter()
        shutil.rmtree(where)
        times.append(end - start)
        if end - block_start >= SETUP_BLOCK_S:
            return


def count_failures(wl, outcomes: list) -> tuple[int, list[str]]:
    """Failed operations and the first few reasons; a failed run check fails every op."""
    errors = [f"op {r}: {o.error}" for r, o in outcomes if o.error is not None]
    run_error = wl.run_check(outcomes)
    if run_error is not None:
        return len(outcomes), [f"run check: {run_error}"] + errors[:4]
    return len(errors), errors[:5]


def run_workload(se, wl, root: Path, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns (metrics, detail)."""
    units = metric_units(root)["per_layer" if trace else "end_to_end"]
    work = root / WORK_DIR / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(root, seed, work)
        if wl.cli:
            # Fill the bytecode cache before timing; users have it warm too.
            subprocess.run([sys.executable, "-c", "import seqeffects.cli"], env=ctx.child_env(),
                           check=True, timeout=120)
        where = work / "inputs"
        where.mkdir()

        if not trace:
            # The operations use the first set-up. More set-ups run in
            # blocks: one before the timed loop and one after each operation
            # (each worker, in-process), outside the loop's clock. Spread
            # over the run, set-up meets the machine at the same mix of
            # speeds as the operations do.
            start = time.perf_counter()
            state = wl.setup(se, ctx, where)
            setup_times = [time.perf_counter() - start]
            set_up_block(se, wl, ctx, work, setup_times)
            outcomes = run_phase(se, wl, ctx, state, seconds,
                                 between=lambda: set_up_block(se, wl, ctx, work, setup_times))
            failed, errors = count_failures(wl, outcomes)
            walls = [o.wall_s for _, o in outcomes]
            values = {
                "setup_s": statistics.median(setup_times),
                "op_p50_s": statistics.median(walls),
                "op_tail_s": tail_of(walls),
                "ops_per_s": len(walls) / sum(walls),
                "peak_rss_mb": max((o.peak_mb for _, o in outcomes if o.peak_mb is not None),
                                   default=0.0),
            }
            detail = {"ops": len(walls), "setups": len(setup_times), "op_walls_s": walls}
        else:
            state = wl.setup(se, ctx, where)
            import_probes = []
            for k in range(PROBES):
                probe = work / f"import{k}.json"
                subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(probe)],
                               env=ctx.child_env(), check=True, timeout=120)
                import_probes.append(json.loads(probe.read_text())["op"])
            support_probes = []
            for k in range(PROBES):
                law = wl.law(se)
                start = time.perf_counter()
                se.enumerate_support(law)
                support_probes.append(time.perf_counter() - start)

            # Untraced and traced quarters alternate, so that a drift in
            # machine speed does not land on one side of the overhead.
            untraced, traced = [], []
            ctx.tracer = Tracer()
            for quarter in range(4):
                ctx.traced = quarter % 2 == 1
                done = traced if ctx.traced else untraced
                done += run_phase(se, wl, ctx, state, seconds / 4, r0=len(done))
            ctx.tracer.write_spans(root / WORK_DIR / f"spans-{wl.name}-seed{seed}.json")
            outcomes = untraced + traced
            failed, errors = count_failures(wl, outcomes)
            values = layer_metrics(traced, untraced, import_probes, support_probes)
            detail = {"ops": len(outcomes), "untraced_ops": len(untraced), "traced_ops": len(traced)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update(workload=wl.name, seed=seed, seconds=seconds, trace=int(trace), scale=wl.scale,
                  n=wl.n, horizon=wl.horizon,
                  fail_ratio=failed / len(outcomes), errors=errors)
    return result, detail


def layer_metrics(traced: list, untraced: list, import_probes: list, support_probes: list) -> dict:
    ops = [(o.wall_s, o.trace) for _, o in traced if o.trace is not None]
    if not ops:
        fail("no traced operation returned a trace")
    values = {
        "cli.import_s": statistics.median(p["self_s"]["cli.import_s"] for p in import_probes),
        "cli.import_scipy_s": statistics.median(p["parts_s"]["cli.import_scipy_s"] for p in import_probes),
        "simulator.support_s": statistics.median(support_probes),
    }
    for name in LAYER_TIMES:
        values[name] = statistics.median(t.self_s.get(name, 0.0) for _, t in ops)
    first = ops[0][1].counts
    for name in LAYER_COUNTS:
        values[name] = first.get(name, 0)
    candidates = values["strata.targets"] + values["strata.skipped"]
    values["strata.candidates"] = candidates
    values["strata.skipped_share"] = values["strata.skipped"] / candidates if candidates else 0.0
    untraced_p50 = statistics.median(o.wall_s for _, o in untraced)
    traced_p50 = statistics.median(w for w, _ in ops)
    values["trace.ops"] = len(ops)
    values["trace.untraced_op_p50_s"] = untraced_p50
    values["trace.traced_op_p50_s"] = traced_p50
    values["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    values["trace.coverage_share"] = statistics.median(t.covered_s / w for w, t in ops)
    return values


def print_human(result: dict, detail: dict) -> None:
    print(f"# {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"fail_ratio {detail['fail_ratio']:.3f}")
    for name, m in result["metrics"].items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = ""
        if name == "op_tail_s":
            note = f"  (p90 of {detail['ops']} ops)"
        elif name == "setup_s":
            note = f"  (median of {detail['setups']} set-ups)"
        print(f"#   {name:32s} {text:>14s} {m['unit']}{note}")
    for error in detail["errors"]:
        print(f"#   failure: {error}")


def run_all(args) -> None:
    """Every workload in its own process, so peak RSS and caches do not mix."""
    env = environment()
    print("# env " + json.dumps(env))
    runs = {}
    modes = [0, 1] if args.trace else [0]
    for name in WORKLOAD_NAMES:
        for mode in modes:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(mode), "--scale", args.scale]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} (trace {mode}) exited {proc.returncode}")
            for line in lines[:-1]:
                if not line.startswith("# env"):
                    print(line)
            detail = json.loads(next(l for l in lines if l.startswith("# detail "))[len("# detail "):])
            runs.setdefault(name, {})["traced" if mode else "untraced"] = {
                "result": json.loads(lines[-1]), "detail": detail}
    summary = {
        "correct": all(r["result"]["correct"] for w in runs.values() for r in w.values()),
        "attempted": sum(r["result"]["attempted"] for w in runs.values() for r in w.values()),
        "failed": sum(r["result"]["failed"] for w in runs.values() for r in w.values()),
        "metrics": {f"{name}/{metric}": m for name, w in runs.items()
                    for metric, m in w["untraced"]["result"]["metrics"].items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "workloads": runs}, indent=2) + "\n")
    print(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "issue"), default="bench",
                        help="input sizes: the benchmark's, or the larger ones in perfbench/README.md")
    parser.add_argument("--out", help="with --workload all: write every result here as JSON")
    args = parser.parse_args()

    root = checkout_root()
    sys.path.insert(0, str(root / "src"))
    if args.workload == "all":
        run_all(args)
        return

    import logging

    import seqeffects as se

    if Path(se.__file__).resolve().parent != (root / "src" / "seqeffects").resolve():
        fail(f"imported seqeffects from {se.__file__}, not from this checkout")
    # Pooled fits log one warning each; keep stderr readable.
    logging.getLogger("seqeffects").setLevel(logging.ERROR)
    env = environment()
    wl = WORKLOADS[args.workload](args.scale)
    result, detail = run_workload(se, wl, root, args.seed, args.seconds, bool(args.trace))
    detail["env"] = env
    print_human(result, detail)
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
