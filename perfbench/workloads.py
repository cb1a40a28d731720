"""The four benchmark workloads: inputs from a seed, one operation, checks.

Every workload is a closed loop with one caller. ``setup`` writes the
inputs into a fresh directory and returns the state the operation needs;
``op`` runs operation ``r`` and returns an ``OpOutcome`` whose ``error`` is
None when the output passed its check. CLI operations run the real
``seqeffects`` entry point in a child process, one at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import OpTrace

HERE = Path(__file__).resolve().parent

# What the `seqeffects` console script runs, then the process's peak
# resident memory (VmHWM) as the last line of stderr. The child reads it
# itself: resource.getrusage's maxrss carries the parent's peak into a child
# across exec, so the parent cannot tell a child's own peak from its own.
ENTRY = """import sys
from seqeffects.cli import main
try:
    rc = main()
finally:
    with open("/proc/self/status") as fh:
        print("perfbench " + next(l for l in fh if l.startswith("VmHWM:")).strip(), file=sys.stderr)
sys.exit(rc)
"""
PEAK_MARK = "perfbench VmHWM:"
CHILD_TIMEOUT_S = 150

TWO_GROUPS = "group early: when t == 1\ngroup late: when t >= 2\n"
FULL_PATTERN = (
    "group first: when t == 1\n"
    "group mid: when t >= 2 and t <= 6\n"
    "group tail: when t >= 7\n"
    "term carry: z[t-1]\n"
    "term cov: x[t-1][1]\n"
)
# make_markov_dgp written as a rule file at horizon 3.
MARKOV3_RULES = (
    "horizon: 3\n"
    "base: 50\n"
    "sigma: 1\n"
    "assign when t == 1: 0.5\n"
    "assign: 0.7 - 0.25 * z[t-1] - 0.15 * x[t-1][1]\n"
    "covariate: 0.6 - 0.2 * z[t]\n"
    "effect when t == 1: 25\n"
    "effect: 10\n"
)


def balanced_rules(horizon: int) -> str:
    return (
        f"horizon: {horizon}\nbase: 50\nsigma: 1\nassign: 0.5\ncovariate: 0.5\n"
        "effect when t == 1: 25\neffect: 10\n"
    )


def peak_rss_mb() -> float:
    """This process's peak resident memory in MiB, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        return int(next(l for l in fh if l.startswith("VmHWM:")).split()[1]) / 1024.0


@dataclass
class OpOutcome:
    wall_s: float
    error: str | None = None
    trace: OpTrace | None = None
    value: object = None  # what a run-level check needs from this op
    peak_mb: float | None = None  # peak RSS of the process(es) that ran it, when known


@dataclass
class Context:
    root: Path
    seed: int
    work: Path
    traced: bool = False
    tracer: object = None  # Tracer that collects spans during traced phases
    op_id: int = 0

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class CliRun:
    wall_s: float
    rc: int
    err: str  # tail of stderr
    trace: OpTrace | None
    peak_mb: float | None  # the child's VmHWM; untraced runs only


def run_cli(ctx: Context, args: list[str], writes: list[Path]) -> CliRun:
    """Run one seqeffects command.

    ``writes`` are the files the command writes. They are removed first, so
    that a check never reads an earlier operation's output.
    """
    for path in writes:
        path.unlink(missing_ok=True)
    trace_file = ctx.work / "child-trace.json"
    if ctx.traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args]
    else:
        cmd = [sys.executable, "-c", ENTRY, *args]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd,
        env=ctx.child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    trace = None
    if ctx.traced and trace_file.exists():
        data = json.loads(trace_file.read_text())
        trace_file.unlink()
        trace = OpTrace.from_dict(data["op"])
        ctx.tracer.absorb(data["spans"], ctx.op_id)
    lines = proc.stderr.splitlines()
    peak = None
    if lines and lines[-1].startswith(PEAK_MARK):
        peak = int(lines.pop().split()[2]) / 1024.0
    return CliRun(wall, proc.returncode, "\n".join(lines)[-300:].strip(), trace, peak)


def _se_check(names, params, cov, expected: dict, k: float) -> str | None:
    if list(names) != list(expected):
        return f"parameters {list(names)} != {list(expected)}"
    for i, name in enumerate(names):
        p = params[i]
        se = math.sqrt(cov[i][i]) if cov[i][i] >= 0 else math.nan
        if not (math.isfinite(p) and math.isfinite(se) and se > 0):
            return f"{name}: estimate {p!r} with se {se!r} is not finite"
        if abs(p - expected[name]) > k * se:
            return f"{name} = {p:.6g}, more than {k} se ({se:.3g}) from {expected[name]}"
    return None


def check_fit_report(path: Path, expected: dict, k: float = 5.0) -> str | None:
    """An `estimate` report parses and each parameter lies within k SEs."""
    try:
        fit = json.loads(Path(path).read_text())["fit"]
        return _se_check(fit["param_names"], fit["params"], fit["covariance"], expected, k)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed estimate report: {exc!r}"


def check_diagnose_report(path: Path, rc: int, targets: int) -> str | None:
    """Check one `diagnose` report.

    Exit 2 is a valid result when only resampling flags caused it. A
    flagged decomposition, a malformed report, a wrong target count or an
    implausible number of flags (over 1% of checked pairs) is a failure.
    """
    try:
        rep = json.loads(Path(path).read_text())
        res, dec = rep["resampling"], rep["decomposition"]
        flagged_pairs = len(res["flagged_variances"]) + len(res["flagged_covariances"])
        if dec["flagged"] or not dec["max_deviation"] <= dec["tolerance"]:
            return f"decomposition flagged (max deviation {dec['max_deviation']!r})"
        if len(res["targets"]) != targets or len(res["expected_covariance"]) != targets:
            return f"{len(res['targets'])} targets in the report, expected {targets}"
        if len(res["empirical_covariance"]) != targets:
            return "empirical covariance has the wrong size"
        if res["consistent"] != (flagged_pairs == 0) or rep["flagged"] != (not res["consistent"]):
            return "flags disagree with the flagged pair lists"
        if rc != (2 if rep["flagged"] else 0):
            return f"exit code {rc} with flagged={rep['flagged']}"
        if flagged_pairs > 0.01 * targets * (targets + 1) / 2:
            return f"{flagged_pairs} flagged pairs is far above chance"
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"malformed diagnose report: {exc!r}"


def check_truth_file(path: Path, horizon: int) -> str | None:
    """Net effects are 25 at t=1 and 10 after, one per reachable stratum."""
    try:
        effects = json.loads(Path(path).read_text())["net_effects"]
    except (OSError, ValueError, KeyError) as exc:
        return f"malformed truth file: {exc!r}"
    expected_n = sum(4 ** (t - 1) for t in range(1, horizon + 1))
    if len(effects) != expected_n:
        return f"{len(effects)} true effects, expected {expected_n}"
    for e in effects:
        t = e["key"].count("z")
        want = 25.0 if t == 1 else 10.0
        if abs(e["value"] - want) > 1e-9:
            return f"true effect at {e['key']} is {e['value']!r}, expected {want}"
    return None


class Workload:
    """One workload at one scale: `n` records per panel, `horizon` periods."""

    name = ""
    cli = True

    def __init__(self, scale: str = "bench"):
        self.scale = scale

    def law(self, se):
        """A fresh DgpSpec of the workload's law, for the support probe."""
        raise NotImplementedError

    def setup(self, se, ctx: Context, where: Path):
        raise NotImplementedError

    def op(self, se, ctx: Context, state, r: int) -> OpOutcome:
        raise NotImplementedError

    def run_check(self, outcomes: list[tuple[int, OpOutcome]]) -> str | None:
        """A check over the whole run; None when it passes or does not apply."""
        return None


class PooledMonteCarlo(Workload):
    name = "pooled-mc-t8"
    cli = False
    truth = (25.0, 10.0)

    def __init__(self, scale: str = "bench"):
        super().__init__(scale)
        self.n, self.horizon = 4000, 8

    def law(self, se):
        return se.make_markov_dgp(8)

    def setup(self, se, ctx, where):
        dgp = self.law(se)
        se.enumerate_support(dgp)
        return {"dgp": dgp, "spec": se.parse_pattern(TWO_GROUPS), "mode": se.VarianceMode.known(1.0)}

    def op(self, se, ctx, state, r):
        start = time.perf_counter()
        d = se.simulate(state["dgp"], self.n, ctx.seed + r)
        fit = se.fit_net_effects(state["spec"], d, state["mode"], markov=True)
        wall = time.perf_counter() - start
        params = [float(v) for v in fit.params]
        # Pooled-mode fit SEs understate the spread several-fold, so the
        # per-fit check is a gross-error band (over 12 Monte Carlo sd);
        # the run check below is the statistical one.
        error = None
        if list(fit.param_names) != ["early", "late"]:
            error = f"parameters {fit.param_names}"
        elif not all(abs(p - t) < band for p, t, band in zip(params, self.truth, (1.0, 2.0))):
            error = f"estimate {params} far from {self.truth}"
        return OpOutcome(wall, error, value=params)

    def run_check(self, outcomes):
        draws = {r: o.value for r, o in outcomes if o.error is None and o.value is not None}
        if len(draws) < 2:
            return None
        arr = np.array(list(draws.values()))
        mc_se = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
        bias = np.abs(arr.mean(axis=0) - np.array(self.truth))
        if not (bias <= 4 * mc_se).all():
            return f"mean {arr.mean(axis=0).tolist()} over {len(arr)} fits is more than 4 MC se from {self.truth}"
        return None


class EstimateFull(Workload):
    name = "estimate-full-t8"
    expected = {"first": 25.0, "mid": 10.0, "tail": 10.0, "carry": 0.0, "cov": 0.0}

    def __init__(self, scale="bench"):
        super().__init__(scale)
        self.n = 5000 if scale == "bench" else 50000
        self.horizon = 8

    def law(self, se):
        return se.make_markov_dgp(8)

    def setup(self, se, ctx, where):
        d = se.simulate(self.law(se), self.n, ctx.seed)
        se.save_dataset(d, where / "panel.csv")
        (where / "pattern.txt").write_text(FULL_PATTERN)
        return {"panel": where / "panel.csv", "pattern": where / "pattern.txt", "digest": None}

    def op(self, se, ctx, state, r):
        out = ctx.work / "fit.json"
        run = run_cli(ctx, [
            "estimate", "--data", str(state["panel"]), "--pattern", str(state["pattern"]),
            "--variance-mode", "known:1", "--out", str(out),
        ], writes=[out])
        if run.rc != 0:
            return OpOutcome(run.wall_s, f"exit {run.rc}: {run.err}", run.trace, peak_mb=run.peak_mb)
        error = check_fit_report(out, self.expected)
        if error is None:
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if state["digest"] is None:
                state["digest"] = digest
            elif digest != state["digest"]:
                error = "report bytes differ from the run's first report"
        return OpOutcome(run.wall_s, error, run.trace, peak_mb=run.peak_mb)


class Diagnose(Workload):
    name = "diagnose-t5"

    def __init__(self, scale="bench"):
        super().__init__(scale)
        self.horizon = 5 if scale == "bench" else 6
        self.n = 10000 if scale == "bench" else 40000

    @property
    def targets(self) -> int:
        return sum(4 ** (t - 1) for t in range(1, self.horizon + 1))

    def law(self, se):
        return se.parse_dgp(balanced_rules(self.horizon))

    def setup(self, se, ctx, where):
        d = se.simulate(self.law(se), self.n, ctx.seed)
        histories = np.unique(np.column_stack([d.z, d.x.reshape(d.n_records, -1)]), axis=0)
        if len(histories) != 2 ** (2 * self.horizon - 1):
            raise RuntimeError(f"seed {ctx.seed} gave an incomplete panel; the workload needs every history")
        se.save_dataset(d, where / "panel.csv")
        return {"panel": where / "panel.csv"}

    def op(self, se, ctx, state, r):
        out = ctx.work / "diagnose.json"
        run = run_cli(ctx, [
            "diagnose", "--data", str(state["panel"]), "--reps", "100",
            "--variance-mode", "known:1", "--out", str(out),
        ], writes=[out])
        error = (f"exit {run.rc}: {run.err}" if run.rc not in (0, 2)
                 else check_diagnose_report(out, run.rc, self.targets))
        return OpOutcome(run.wall_s, error, run.trace, peak_mb=run.peak_mb)


class Roundtrip(Workload):
    name = "roundtrip-wide-t3"
    expected = {"early": 25.0, "late": 10.0}

    def __init__(self, scale="bench"):
        super().__init__(scale)
        self.n = 50000 if scale == "bench" else 500000
        self.horizon = 3

    def law(self, se):
        return se.parse_dgp(MARKOV3_RULES)

    def setup(self, se, ctx, where):
        (where / "rules.txt").write_text(MARKOV3_RULES)
        (where / "pattern.txt").write_text(TWO_GROUPS)
        se.parse_dgp((where / "rules.txt").read_text())
        return {"rules": where / "rules.txt", "pattern": where / "pattern.txt"}

    def op(self, se, ctx, state, r):
        panel = ctx.work / "panel.csv"
        truth = Path(str(panel) + ".truth.json")
        out = ctx.work / "fit.json"
        sim = run_cli(ctx, [
            "simulate", "--dgp", str(state["rules"]), "--n", str(self.n),
            "--seed", str(ctx.seed + r), "--out", str(panel),
        ], writes=[panel, truth])
        if sim.rc != 0:
            return OpOutcome(sim.wall_s, f"simulate exit {sim.rc}: {sim.err}", sim.trace,
                             peak_mb=sim.peak_mb)
        error = check_truth_file(truth, self.horizon)
        with open(panel, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.n:
            error = error or f"{rows} rows written, expected {self.n}"
        est = run_cli(ctx, [
            "estimate", "--data", str(panel), "--pattern", str(state["pattern"]),
            "--variance-mode", "estimated", "--out", str(out),
        ], writes=[out])
        trace = sim.trace
        if trace is not None and est.trace is not None:
            trace.merge(est.trace)
        peaks = [p for p in (sim.peak_mb, est.peak_mb) if p is not None]
        peak = max(peaks) if peaks else None
        if est.rc != 0:
            return OpOutcome(sim.wall_s + est.wall_s, f"estimate exit {est.rc}: {est.err}", trace,
                             peak_mb=peak)
        error = error or check_fit_report(out, self.expected)
        return OpOutcome(sim.wall_s + est.wall_s, error, trace, peak_mb=peak)


WORKLOADS = {w.name: w for w in (PooledMonteCarlo, EstimateFull, Diagnose, Roundtrip)}
