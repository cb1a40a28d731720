"""Command-line front end.

Five subcommands: estimate (pooled fit of a pattern to a dataset),
oracle (exact net effects of the empirical table), simulate (draw a
dataset from a rule file, with the ground truth beside it), diagnose
(covariance resampling check plus the decomposition identity), and
suggest-pattern (merge indistinguishable groups of a fitted pattern).

Reports are JSON on stdout or --out, the text of json.dumps(report,
indent=2). Exit codes: 0 on success, 1 for input or parse problems, 2
for statistical ones (empty strata, ranks, flagged diagnostics). The
same inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from json.encoder import (
    JSONEncoder,
    c_make_encoder,
    encode_basestring,
    encode_basestring_ascii,
)
from pathlib import Path
from typing import Sequence

from .dataset import Dataset, load_dataset, save_dataset
from .errors import (
    DgpError,
    DomainError,
    ParseError,
    SeqEffectsError,
    UsageError,
)
from .estimation import (
    discover_pattern,
    fit_net_effects,
    pooled_outcome_variance,
    resampling_diagnostic,
)
from .net_effects import compute_net_effects, verify_decomposition
from .patterns import parse_pattern, saturated_pattern
from .simulator import causal_net_effects, parse_dgp, simulate
from .strata import VarianceMode

log = logging.getLogger(__name__)

# Exact types that the C encoder writes as the indenting encoder does.
_SCALARS = frozenset({str, int, float, bool, type(None)})


class _ReportEncoder(JSONEncoder):
    """Indented JSON text equal to the stock encoder's, byte for byte.

    With `indent` set, Python's encoder falls back to nested generators
    that yield one fragment at a time. This one appends the fragments to
    one list, and writes each list or dict that holds only scalars, and
    each list of such dicts, with one call of the C encoder, whose item
    separator carries the newline and indent of that depth. With
    `sort_keys` or `skipkeys` it is the stock encoder; without the C
    encoder, or with `allow_nan` off, it writes everything in Python.
    """

    def encode(self, o):
        if self.indent is None or self.sort_keys or self.skipkeys or isinstance(o, str):
            return super().encode(o)
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        string = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        item_sep, key_sep = self.item_separator, self.key_separator
        allow_nan, default = self.allow_nan, self.default
        use_c = c_make_encoder is not None and allow_nan
        markers = {} if self.check_circular else None
        flat_encoders: dict[int, tuple] = {}
        out: list[str] = []
        append = out.append

        def floatstr(v, _repr=float.__repr__, _inf=math.inf):
            if v != v:
                text = "NaN"
            elif v == _inf:
                text = "Infinity"
            elif v == -_inf:
                text = "-Infinity"
            else:
                return _repr(v)
            if not allow_nan:
                raise ValueError(
                    "Out of range float values are not JSON compliant: " + repr(v)
                )
            return text

        def keystr(key):
            if isinstance(key, float):
                return floatstr(key)
            if key is True:
                return "true"
            if key is False:
                return "false"
            if key is None:
                return "null"
            if isinstance(key, int):
                return int.__repr__(key)
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )

        def mark(container):
            if markers is not None:
                if id(container) in markers:
                    raise ValueError("Circular reference detected")
                markers[id(container)] = container

        def unmark(container):
            if markers is not None:
                del markers[id(container)]

        def value(v, level):
            if isinstance(v, str):
                append(string(v))
            elif v is None:
                append("null")
            elif v is True:
                append("true")
            elif v is False:
                append("false")
            elif isinstance(v, int):
                append(int.__repr__(v))
            elif isinstance(v, float):
                append(floatstr(v))
            elif isinstance(v, (list, tuple)):
                array(v, level)
            elif isinstance(v, dict):
                obj(v, level)
            else:
                mark(v)
                value(default(v), level)
                unmark(v)

        def scalar_dict(v):
            return (
                type(v) is dict
                and len(v) > 0
                and _SCALARS.issuperset(map(type, v.values()))
                and _SCALARS.issuperset(map(type, v))
            )

        def c_encoder(level):
            """The newline of `level`, and a C encoder whose item separator
            starts a line at `level + 1`."""
            if level not in flat_encoders:
                closing = "\n" + indent * level
                flat_encoders[level] = closing, c_make_encoder(
                    None, default, string, None, key_sep, item_sep + closing + indent,
                    False, False, True,
                )
            return flat_encoders[level]

        def flat(container, level):
            # The C encoder writes "[a,<sep>b]"; the indented form also
            # breaks the line after the opening and before the closing
            # bracket. Scalars hold no container, so no cycle either.
            closing, encoder = c_encoder(level)
            text = "".join(encoder(container, 0))
            append(text[0] + closing + indent + text[1:-1] + closing + text[-1])

        def flat_dicts(lst, level):
            # One C call with the separator of the dicts' items. It holds a
            # newline, which no JSON string holds, so "}<sep>{" only ever
            # joins two dicts: it becomes the list's separator, with the
            # line breaks inside the dicts' braces.
            inner, encoder = c_encoder(level + 1)
            text = "".join(encoder(lst, 0))
            body = text[2:-2].replace(
                "}" + item_sep + inner + indent + "{",
                inner + "}" + item_sep + inner + "{" + inner + indent,
            )
            closing = "\n" + indent * level
            append("[" + inner + "{" + inner + indent + body + inner + "}" + closing + "]")

        def array(lst, level):
            if not lst:
                append("[]")
                return
            if use_c and _SCALARS.issuperset(map(type, lst)):
                flat(lst, level)
                return
            if use_c and all(map(scalar_dict, lst)):
                flat_dicts(lst, level)
                return
            mark(lst)
            closing = "\n" + indent * level
            sep = item_sep + closing + indent
            append("[" + closing + indent)
            for v in lst:
                if isinstance(v, str):
                    append(string(v))
                elif isinstance(v, float):
                    append(floatstr(v))
                else:
                    value(v, level + 1)
                append(sep)
            out[-1] = closing + "]"
            unmark(lst)

        def obj(dct, level):
            if not dct:
                append("{}")
                return
            if use_c and scalar_dict(dct):
                flat(dct, level)
                return
            mark(dct)
            closing = "\n" + indent * level
            sep = item_sep + closing + indent
            append("{" + closing + indent)
            for key, v in dct.items():
                append(string(key if isinstance(key, str) else keystr(key)) + key_sep)
                if isinstance(v, str):
                    append(string(v))
                elif isinstance(v, float):
                    append(floatstr(v))
                else:
                    value(v, level + 1)
                append(sep)
            out[-1] = closing + "}"
            unmark(dct)

        value(o, 0)
        return "".join(out)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, cls=_ReportEncoder)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load(path: str) -> Dataset:
    return load_dataset(path)


def cmd_estimate(args) -> int:
    d = _load(args.data)
    spec = parse_pattern(Path(args.pattern).read_text())
    mode = VarianceMode.parse(args.variance_mode)
    fit = fit_net_effects(spec, d, mode, markov=args.markov)
    _emit(
        {
            "schema_version": 1,
            "command": "estimate",
            "data": args.data,
            "n_records": d.n_records,
            "horizon": d.horizon,
            "fit": fit.to_dict(),
        },
        args.out,
    )
    return 0


def cmd_oracle(args) -> int:
    d = _load(args.data)
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
    dgp = parse_dgp(Path(args.dgp).read_text())
    d = simulate(dgp, args.n, args.seed)
    save_dataset(d, args.out)
    truth_path = args.truth or args.out + ".truth.json"
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
    d = _load(args.data)
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
    d = _load(args.data)
    if args.pattern is None:
        spec = saturated_pattern(d, markov=args.markov)
    else:
        spec = parse_pattern(Path(args.pattern).read_text())
    mode = VarianceMode.parse(args.variance_mode)
    fit = fit_net_effects(spec, d, mode, markov=args.markov)
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
        return args.func(args)
    except (ParseError, DomainError, DgpError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SeqEffectsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
