"""Spans and counts around the public functions of each seqeffects module.

The tracer wraps functions and methods from the outside: it replaces every
reference to a wrapped function in the loaded ``seqeffects`` modules (so
``from .x import f`` bindings are caught too) and restores them on
``uninstall``. Nothing under ``src/`` changes.

A span belongs to one layer metric. Its self time is its duration minus the
time covered by the spans it caused, so the self times of one operation add
up to at most the operation's wall time; what is left is unattributed.
Counters are cheap wrappers that only count calls, or add a value computed
from a call's arguments and result.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

def _count_nodes(table) -> int:
    n = 0
    stack = [table.root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children.values())
    return n


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


def _after_load(args, result):
    return {"dataset.rows": result.n_records, "dataset.csv_bytes": _file_bytes(args[0])}


def _after_save(args, result):
    return {"dataset.rows": args[0].n_records, "dataset.csv_bytes": _file_bytes(args[1])}


def _after_targets(args, result):
    targets, skipped = result
    return {"strata.targets": len(targets), "strata.skipped": len(skipped)}


def _after_constraints(args, result):
    return {"patterns.rows": len(result.rows), "patterns.dropped": len(result.dropped)}


def _after_expected_cov(args, result):
    m = len(result[0])
    return {"estimation.cov_bytes": m * m * 8}


def _after_resampling(args, result):
    flagged = len(result.flagged_variances) + len(result.flagged_covariances)
    return {"estimation.flagged_pairs": flagged}


def _after_report_text(args, result):
    return {"cli.report_bytes": len(result)}


# Span targets: (module, attribute path, layer metric, post-call counter).
# A post-call counter maps (args, result) to {count metric: increment}.
SPANS = [
    ("seqeffects.dataset", "load_dataset", "dataset.load_s", _after_load),
    ("seqeffects.dataset", "save_dataset", "dataset.save_s", _after_save),
    ("seqeffects.tables", "MeanTable.from_arrays", "tables.build_s",
     lambda args, result: {"tables.nodes": _count_nodes(result)}),
    ("seqeffects.tables", "MeanTable.levels", "tables.levels_s", None),
    ("seqeffects.strata", "point_effect_targets", "strata.targets_s", _after_targets),
    ("seqeffects.patterns", "parse_pattern", "patterns.parse_s", None),
    ("seqeffects.patterns", "build_constraints", "patterns.constraints_s", _after_constraints),
    ("seqeffects.net_effects", "compute_net_effects", "net_effects.recursion_s", None),
    ("seqeffects.net_effects", "verify_decomposition", "net_effects.verify_s", None),
    ("seqeffects.estimation", "fit_net_effects", "estimation.solve_s", None),
    ("seqeffects.estimation", "expected_target_covariance", "estimation.expected_cov_s",
     _after_expected_cov),
    ("seqeffects.estimation", "resampling_diagnostic", "estimation.resampling_s",
     _after_resampling),
    ("seqeffects.simulator", "simulate", "simulator.simulate_s", None),
    ("seqeffects.simulator", "causal_net_effects", "simulator.truth_s", None),
    ("seqeffects.simulator", "parse_dgp", "simulator.parse_dgp_s", None),
    ("seqeffects.estimation", "NetEffectFit.to_dict", "cli.report_s", None),
    ("seqeffects.estimation", "ResamplingReport.to_dict", "cli.report_s", None),
    ("seqeffects.net_effects", "DecompositionReport.to_dict", "cli.report_s", None),
]

# Call counters: (module, attribute path, count metric).
COUNTERS = [
    ("seqeffects.patterns", "PatternSpec.feature_row", "patterns.feature_evals"),
    ("seqeffects.exprlang", "CompiledExpr.eval", "exprlang.evals"),
    ("seqeffects.keys", "StratumKey.__post_init__", "keys.stratum_keys"),
    ("seqeffects.net_effects", "downstream_weighted_sum", "net_effects.downstream_walks"),
]


@dataclass
class OpTrace:
    """Self time per layer metric and counts for one operation.

    ``parts_s`` holds breakdowns of a self time (the scipy share of an
    import), which coverage must not count twice.
    """

    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    parts_s: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "OpTrace") -> None:
        for mine, theirs in ((self.self_s, other.self_s), (self.counts, other.counts),
                             (self.parts_s, other.parts_s)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v

    @property
    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def to_dict(self) -> dict:
        return {"self_s": self.self_s, "counts": self.counts, "parts_s": self.parts_s}

    @classmethod
    def from_dict(cls, data: dict) -> "OpTrace":
        return cls(dict(data["self_s"]), dict(data["counts"]), dict(data["parts_s"]))


class Tracer:
    """Records spans into the current operation and restores what it wraps.

    Spans are kept in memory as (op, id, parent, name, start, end) tuples;
    ``spans`` holds them until the caller writes them out.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = OpTrace()
        self._op_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._undo: list = []

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.op = OpTrace()

    def end_op(self) -> OpTrace:
        op, self.op = self.op, OpTrace()
        return op

    def add_time(self, metric: str, seconds: float) -> None:
        self.op.self_s[metric] = self.op.self_s.get(metric, 0.0) + seconds

    def add_part(self, metric: str, seconds: float) -> None:
        self.op.parts_s[metric] = self.op.parts_s.get(metric, 0.0) + seconds

    def count(self, metric: str, n: int = 1) -> None:
        self.op.counts[metric] = self.op.counts.get(metric, 0) + n

    # -- wrapping -------------------------------------------------------

    def _span_wrapper(self, fn, metric, after):
        tracer = self

        def wrapped(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.add_time(metric, duration - frame[1])
                tracer.spans.append((tracer._op_id, span_id, parent, metric, start, end))
            if after is not None:
                for k, v in after(args, result).items():
                    tracer.count(k, v)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, fn, metric):
        tracer = self

        def wrapped(*args, **kwargs):
            c = tracer.op.counts
            c[metric] = c.get(metric, 0) + 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Wrap every target; seqeffects must already be imported."""
        for module, path, metric, after in SPANS:
            self._replace(module, path, lambda fn, m=metric, a=after: self._span_wrapper(fn, m, a))
        for module, path, metric in COUNTERS:
            self._replace(module, path, lambda fn, m=metric: self._count_wrapper(fn, m))
        cli = sys.modules.get("seqeffects.cli")
        if cli is not None:
            self._undo.append((cli, "json", cli.json))
            cli.json = _JsonProxy(self._span_wrapper(json.dumps, "cli.report_s", _after_report_text))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, module_name: str, path: str, make) -> None:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, path)
        new = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "seqeffects" or name.startswith("seqeffects.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def absorb(self, spans: list, op_id: int | None = None) -> None:
        """Take spans recorded by a child process, shifting its span ids past ours."""
        base = len(self.spans)
        self.spans.extend(
            (o if op_id is None else op_id, base + i, base + p if p >= 0 else -1, name, t0, t1)
            for o, i, p, name, t0, t1 in spans
        )

    def write_spans(self, path: Path) -> None:
        rows = [
            {"op": o, "id": i, "parent": p, "name": n, "start": s, "end": e}
            for o, i, p, n, s, e in self.spans
        ]
        Path(path).write_text(json.dumps(rows) + "\n")


class _JsonProxy:
    """Stands in for the json module inside seqeffects.cli with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)
