"""Command-line front end.

Five subcommands: estimate (pooled fit of a pattern to a dataset),
oracle (exact net effects of the empirical table), simulate (draw a
dataset from a rule file, with the ground truth beside it), diagnose
(covariance resampling check plus the decomposition identity), and
suggest-pattern (merge indistinguishable groups of a fitted pattern).

Reports are JSON on stdout or --out, the text of json.dumps(report,
indent=2). An output path that names an input of the command, or
simulate's --out and --truth as one file, is refused before any work.
Exit codes: 0 on success, 1 for input or parse problems, 2 for
statistical ones (empty strata, ranks, flagged diagnostics). The same
inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import _decode, load_dataset, save_dataset
from .errors import (
    DgpError,
    DomainError,
    EstimabilityError,
    IdentifiabilityError,
    ParseError,
    SeqEffectsError,
    UsageError,
)
from .estimation import (
    _Records,
    discover_pattern,
    fit_net_effects,
    pooled_outcome_variance,
    resampling_diagnostic,
)
from .net_effects import compute_net_effects, verify_decomposition
from .patterns import build_constraints, parse_pattern, saturated_pattern
from .simulator import causal_net_effects, parse_dgp, simulate
from .strata import VarianceMode

log = logging.getLogger(__name__)

# Exact types that the C encoder writes as the indenting encoder does.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})
_INDENT = "  "
# Kinds of ndarray a report may hold: bool, int, uint and float, whose
# tolist() holds only bool, int and float.
_ARRAY_KINDS = frozenset("biuf")
# Characters per write of a report: each write encodes one slice.
_WRITE_SLICE = 2**20


def _floatstr(v, _repr=float.__repr__, _finite=math.isfinite) -> str:
    if _finite(v):
        return _repr(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


def _number(v) -> str:
    return "null" if v is None else _floatstr(v)


def _finite(column, _isfinite=math.isfinite) -> bool:
    """Whether every entry is an int or a finite float, which `%r` writes
    as JSON does."""
    try:
        return all(map(_isfinite, column))
    except TypeError:  # a None
        return False


def _report_array(v) -> bool:
    return isinstance(v, np.ndarray) and v.dtype.kind in _ARRAY_KINDS


def _flat_dict(v) -> bool:
    if type(v) is not dict or not v:
        return False
    return _SCALARS.issuperset(map(type, v.values())) and _STR.issuperset(map(type, v))


class _ReportEncoder(JSONEncoder):
    """The text of `json.dumps(tree, indent=2)`, byte for byte, for report
    trees: str keys, and lists, tuples, dicts, str, int, float (subclasses
    included), bool and None. A bool, int, uint or float `numpy.ndarray`
    is written as the stock text of its `tolist()`; any other value, or a
    key that is not a str, raises TypeError. The encoder's options are not
    read.

    With `indent` set, Python's encoder falls back to nested generators
    that yield one fragment at a time. This one appends the fragments to
    one list. It writes str and float members itself; each list or dict
    that holds only scalars of exact type, each list of such dicts, and
    each other scalar take one call of the C encoder, whose item
    separator carries the newline and indent of that depth. An ndarray is
    listed one leading-axis row at a time, so a matrix never exists as
    one nested list of Python floats, and each container below depth 1
    is joined into one string when it closes. A fit's record list, held
    as columns (`estimation._Records`), is written from its columns: each
    record is one `%` of a template fixed for its depth, and the list is
    one string. Without the C encoder it is the stock encoder, which
    lists an ndarray and writes a record list as its dicts through
    `default`.
    """

    def default(self, o):
        if _report_array(o):
            return o.tolist()
        if isinstance(o, _Records):
            return o.dicts()
        return super().default(o)

    def encode(self, o):
        if c_make_encoder is None:
            return super().encode(o)
        string = encode_basestring_ascii
        out: list[str] = []
        append = out.append

        @functools.cache
        def c_encoder(level):
            # The newline of `level`, and a C encoder whose item separator
            # starts a line at `level + 1`.
            closing = "\n" + _INDENT * level
            item_sep = "," + closing + _INDENT
            return closing, c_make_encoder(
                None, None, string, None, ": ", item_sep, False, False, True
            )

        def value(v, level):
            if isinstance(v, (list, tuple)):
                if not v:
                    append("[]")
                elif _SCALARS.issuperset(map(type, v)):
                    flat(v, level)
                elif all(map(_flat_dict, v)):
                    flat_dicts(v, level)
                else:
                    members(v, level, False)
            elif isinstance(v, dict):
                if not v:
                    append("{}")
                elif _flat_dict(v):
                    flat(v, level)
                else:
                    members(v, level, True)
            elif v is None or isinstance(v, (str, int, float)):
                append("".join(c_encoder(level)[1](v, 0)))
            elif _report_array(v):
                if v.ndim < 2:
                    value(v.tolist(), level)
                elif not len(v):
                    append("[]")
                else:  # an ndarray iterates over its rows
                    members(v, level, False)
            elif isinstance(v, _Records):
                records(v, level)
            else:
                raise TypeError(
                    f"Object of type {v.__class__.__name__} is not JSON serializable"
                )

        def flat(container, level):
            # The C encoder writes "[a,<sep>b]"; the indented form also
            # breaks the line after "[" and before "]".
            closing, encoder = c_encoder(level)
            text = "".join(encoder(container, 0))
            append(text[0] + closing + _INDENT + text[1:-1] + closing + text[-1])

        def flat_dicts(lst, level):
            # One C call with the dicts' item separator. No JSON string holds
            # its newline, so "}<sep>{" only ever joins two dicts: it becomes
            # the list's separator, with line breaks inside the braces.
            inner, encoder = c_encoder(level + 1)
            text = "".join(encoder(lst, 0))
            joint = "}," + inner + _INDENT + "{"
            body = text[2:-2].replace(joint, inner + "}," + inner + "{" + inner + _INDENT)
            closing = "\n" + _INDENT * level
            append("[" + inner + "{" + inner + _INDENT + body + inner + "}" + closing + "]")

        def members(container, level, is_dict):
            start = len(out)
            closing = "\n" + _INDENT * level
            sep = "," + closing + _INDENT
            append(("{" if is_dict else "[") + closing + _INDENT)
            for key, v in container.items() if is_dict else enumerate(container):
                if is_dict:  # the C string encoder raises TypeError on other keys
                    append(string(key) + ": ")
                # str and float first: they are most of a report's leaves.
                if isinstance(v, str):
                    append(string(v))
                elif isinstance(v, float):
                    append(_floatstr(v))
                else:
                    value(v, level + 1)
                append(sep)
            out[-1] = closing + ("}" if is_dict else "]")
            if level >= 2:  # a few large strings, not many small ones
                out[start:] = ["".join(out[start:])]

        def text(v):
            return "null" if v is None else string(v)

        def records(r, level):
            # One % of a fixed template per record: the template holds the
            # field names and the indents of this depth. A number column
            # takes %r when every entry is an int or a finite float, and
            # otherwise the JSON text of each entry.
            if not len(r):
                append("[]")
                return
            line = "\n" + _INDENT * (level + 1)
            entry = ",\n" + _INDENT * (level + 3)
            fields, columns = [], []

            def number(column):
                if _finite(column):
                    columns.append(column)
                    return "%r"
                columns.append(map(_number, column))
                return "%s"

            for name, kind, column in r.fields:
                if kind == "label":
                    columns.append(column)
                    slot = '"%s"'
                elif kind == "text":
                    columns.append(map(text, column))
                    slot = "%s"
                elif kind == "numbers":
                    slots = entry.join(map(number, column))
                    slot = "[" + entry[1:] + slots + line + _INDENT + "]"
                else:
                    slot = number(column)
                fields.append(string(name) + ": " + slot)
            sep = "," + line
            template = "{" + line + _INDENT + (sep + _INDENT).join(fields) + line + "}"
            append("[" + line)
            # One string for the list, not one per record, when the
            # report's fragments are joined.
            append(sep.join([template % row for row in zip(*columns)]))
            append("\n" + _INDENT * level + "]")

        value(o, 0)
        report = "".join(out)
        # The nested functions refer to each other, so `out` would live
        # on with them until the cycle collector runs.
        out.clear()
        return report


def _emit(payload: dict, out: str | None) -> None:
    """Write the report and a newline to `out`, or to stdout without one.

    The text is written in slices, so neither the text with its newline
    nor the whole report's bytes ever exist beside it.
    """
    text = json.dumps(payload, indent=2, cls=_ReportEncoder)
    if out:
        with open(out, "w") as stream:
            _write(stream, text)
    else:
        _write(sys.stdout, text)


def _write(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        stream.write(text[start : start + _WRITE_SLICE])
    stream.write("\n")


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # a file not there yet
        return Path(a).resolve() == Path(b).resolve()


def _truth_path(args) -> str:
    return args.truth or args.out + ".truth.json"


def _refuse_overwrites(args) -> None:
    """UsageError when an output path names an input of the command, or
    simulate's dataset and truth file are one file."""
    named = [(f, getattr(args, f, None)) for f in ("data", "pattern", "dgp")]
    named = [(f, path) for f, path in named if path is not None]
    outputs = [("out", args.out)]
    if args.command == "simulate":
        outputs.append(("truth", _truth_path(args)))
    for flag, path in outputs:
        if not path:
            continue
        for other, known in named:
            if _same_file(path, known):
                raise UsageError(f"--{flag} {path} and --{other} {known} name the same file")
        named.append((flag, path))


def _read_text(path: str) -> str:
    """A pattern or rule file as UTF-8 text, BOM dropped; ParseError names a bad byte."""
    return _decode(Path(path).read_bytes())


def cmd_estimate(args) -> int:
    d = load_dataset(args.data)
    spec = parse_pattern(_read_text(args.pattern))
    mode = VarianceMode.parse(args.variance_mode)
    fit = fit_net_effects(spec, d, mode, markov=args.markov)
    _emit(
        {
            "schema_version": 1,
            "command": "estimate",
            "data": args.data,
            "n_records": d.n_records,
            "horizon": d.horizon,
            "fit": fit._report(),
        },
        args.out,
    )
    return 0


def cmd_oracle(args) -> int:
    d = load_dataset(args.data)
    net = compute_net_effects(d.table)
    _emit(
        {
            "schema_version": 1,
            "command": "oracle",
            "data": args.data,
            "n_records": d.n_records,
            "net_effects": net.to_dict(),
        },
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    dgp = parse_dgp(_read_text(args.dgp))
    d = simulate(dgp, args.n, args.seed)
    save_dataset(d, args.out)
    truth_path = _truth_path(args)
    effects = causal_net_effects(dgp)
    _emit(
        {
            "schema_version": 1,
            "command": "simulate",
            "dgp": args.dgp,
            "n": args.n,
            "seed": args.seed,
            "net_effects": [{"key": k.label(), "value": v} for k, v in effects.items()],
        },
        truth_path,
    )
    return 0


def cmd_diagnose(args) -> int:
    d = load_dataset(args.data)
    mode = VarianceMode.parse(args.variance_mode)
    if mode.kind == "known":
        sigma2 = mode.sigma2
    else:
        sigma2 = pooled_outcome_variance(d)
    resampling = resampling_diagnostic(d, reps=args.reps, seed=args.seed, sigma2=sigma2)
    decomposition = verify_decomposition(d.table)
    flagged = (not resampling.consistent) or decomposition.flagged
    _emit(
        {
            "schema_version": 1,
            "command": "diagnose",
            "data": args.data,
            "flagged": flagged,
            "resampling": resampling.to_dict(),
            "decomposition": decomposition.to_dict(),
        },
        args.out,
    )
    return 2 if flagged else 0


def cmd_suggest_pattern(args) -> int:
    d = load_dataset(args.data)
    if args.pattern is None:
        spec = saturated_pattern(d, markov=args.markov)
    else:
        spec = parse_pattern(_read_text(args.pattern))
    mode = VarianceMode.parse(args.variance_mode)
    try:
        fit = fit_net_effects(spec, d, mode, markov=args.markov)
    except IdentifiabilityError:
        if args.pattern is None:
            _refuse_dropped_targets(build_constraints(spec, d, mode, markov=args.markov))
        raise
    report = discover_pattern(fit, alpha=args.alpha)
    _emit(
        {
            "schema_version": 1,
            "command": "suggest-pattern",
            "data": args.data,
            "params": dict(zip(fit.param_names, fit.params.tolist())),
            "discovery": report.to_dict(),
        },
        args.out,
    )
    return 0


def _refuse_dropped_targets(system) -> None:
    """EstimabilityError naming the zero-weight targets of a saturated
    system, which has one group per target and so cannot spare one."""
    dropped = system.dropped.tolist()
    if not dropped:
        return
    named = "; ".join(f"{system.keys[i].label()}: {system.notes[i]}" for i in dropped[:5])
    more = f"; and {len(dropped) - 5} more" if len(dropped) > 5 else ""
    raise EstimabilityError(
        f"{len(dropped)} of {len(system.notes)} targets have zero weight, and the "
        f"default pattern (one group per target) needs them all: {named}{more}; "
        "pass --pattern with a pattern that pools them, or --variance-mode known:<sigma2>"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqeffects",
        description="Net effects of sequential treatments from panel CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pattern=False, variance=False, markov=False):
        p.add_argument("--data", required=True, help="dataset CSV path")
        if pattern == "optional":
            p.add_argument(
                "--pattern",
                help="starting pattern file (default: one group per target)",
            )
        elif pattern:
            p.add_argument("--pattern", required=True, help="pattern file path")
        if variance:
            p.add_argument(
                "--variance-mode",
                default="known:1",
                help="known:<sigma2> or estimated (default known:1)",
            )
        if markov:
            p.add_argument(
                "--markov",
                action="store_true",
                help="pool strata over all but the previous step",
            )
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("estimate", help="fit a pattern of net effects")
    common(p, pattern=True, variance=True, markov=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="exact net effects of the empirical table")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="draw a dataset from a rule file")
    p.add_argument("--dgp", required=True, help="generative rule file path")
    p.add_argument("--n", required=True, type=int, help="number of records")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument(
        "--truth",
        help="ground-truth JSON path (default: <out>.truth.json)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="covariance and decomposition checks")
    common(p, variance=True)
    p.add_argument("--reps", type=int, default=500, help="replications (default 500)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "suggest-pattern", help="merge indistinguishable pattern groups"
    )
    common(p, pattern="optional", variance=True, markov=True)
    p.add_argument(
        "--alpha", type=float, default=0.05, help="merge test level (default 0.05)"
    )
    p.set_defaults(func=cmd_suggest_pattern)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _refuse_overwrites(args)
        return args.func(args)
    except (ParseError, DomainError, DgpError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SeqEffectsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
