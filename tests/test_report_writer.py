"""The report writer: `_ReportEncoder` text is stock `json.dumps` text.

Every report goes through `json.dumps(payload, indent=2,
cls=_ReportEncoder)`, so the encoder must give the stock indented text
byte for byte, on any JSON tree, and fail the same way on what JSON
cannot hold.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqeffects.cli as cli
from seqeffects import make_markov_dgp, make_reference_fixture, save_dataset, simulate
from seqeffects.cli import _ReportEncoder, main

TRICKY_TEXT = st.text(
    st.sampled_from(list('"\\/[]{},: \n\t\r\x00\x1f\x7fazé€😀 ')) | st.characters(),
    max_size=12,
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.nan, math.inf, -math.inf]
)
# Scalars of the exact types the C encoder takes; np.float64 is a float
# subclass, so a container holding one is written in Python.
EXACT_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | FLOATS | TRICKY_TEXT
SCALARS = EXACT_SCALARS | FLOATS.map(np.float64)
KEYS = (
    TRICKY_TEXT
    | st.integers(-(2**70), 2**70)
    | FLOATS
    | st.booleans()
    | st.none()
)
FLAT_DICTS = st.dictionaries(KEYS, EXACT_SCALARS, min_size=1, max_size=4)


def trees(leaves=SCALARS):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(EXACT_SCALARS, max_size=30)  # written by one C call
        | st.lists(FLAT_DICTS, min_size=1, max_size=6)  # so is a list of these
        | st.lists(FLAT_DICTS | st.just({}) | EXACT_SCALARS, min_size=1, max_size=6)
        | st.dictionaries(KEYS, inner, max_size=5),
        max_leaves=40,
    )


def stock(obj, **kwargs):
    return json.dumps(obj, indent=2, **kwargs)


def ours(obj, **kwargs):
    return json.dumps(obj, indent=2, cls=_ReportEncoder, **kwargs)


@settings(max_examples=150, deadline=None)
@given(obj=trees())
def test_text_equals_the_stock_encoder(obj):
    assert ours(obj) == stock(obj)


@settings(max_examples=100, deadline=None)
@given(
    obj=trees(),
    options=st.sampled_from(
        [
            {"indent": 0},
            {"indent": 4},
            {"indent": "\t"},
            {"ensure_ascii": False},
            {"separators": (",", ":")},
            {"check_circular": False},
            {"sort_keys": True},
        ]
    ),
)
def test_text_equals_the_stock_encoder_under_other_options(obj, options):
    if options.get("sort_keys"):
        obj = json.loads(json.dumps(obj))  # keys that sort
    indent = options.pop("indent", 2)
    assert json.dumps(obj, indent=indent, cls=_ReportEncoder, **options) == json.dumps(
        obj, indent=indent, **options
    )


@settings(max_examples=50, deadline=None)
@given(obj=trees())
def test_text_without_the_c_encoder_is_the_same(obj):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "c_make_encoder", None)
        assert ours(obj) == stock(obj)


def test_flat_containers_take_one_c_call_each(monkeypatch):
    made, written = [], []

    def counting(*args):
        made.append(args[5])  # the item separator
        encoder = json.encoder.c_make_encoder(*args)

        def call(obj, level):
            written.append(obj)
            return encoder(obj, level)

        return call

    monkeypatch.setattr(cli, "c_make_encoder", counting)
    rows = [[0.5] * 16, [1.5, 2]]
    flat = [{"a": 1, "b": "x"}] * 3
    obj = {
        "rows": rows,
        "flat": flat,
        "empty": [[], {}],
        "mixed": [1.0, [2.0]],
        "subclass": [1.0, np.float64(2.0)],
    }
    assert ours(obj) == stock(obj)
    assert made == [",\n      "]  # one encoder per depth, all at depth 2 here
    assert written == rows + [flat, [2.0]]  # a list of flat dicts in one call


def outcome(dumps, obj, **kwargs):
    try:
        return dumps(obj, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


BAD = [
    {"a": [1, 2, object()]},
    [1.0] * 20 + [np.int64(3)],
    {"a": 1, "b": np.int64(2)},
    {(1, 2): "tuple key"},
    {np.int64(1): "numpy key"},
    {"ok": [0.5] * 16, "bad": {1j: 2}},
    [float("nan")] * 17,
    {"x": math.inf},
    {1.5: [{"deep": set()}]},
]


@pytest.mark.parametrize("obj", BAD, ids=range(len(BAD)))
@pytest.mark.parametrize("allow_nan", [True, False])
def test_unsupported_values_raise_the_stock_error(obj, allow_nan):
    want = outcome(stock, obj, allow_nan=allow_nan)
    assert isinstance(want, tuple) or allow_nan  # only NaN and inf pass, and only with allow_nan
    assert outcome(ours, obj, allow_nan=allow_nan) == want


def test_circular_references_raise_the_stock_error():
    loop = [1, 2]
    loop.append(loop)
    nested = {"a": {}}
    nested["a"]["b"] = nested
    for obj in (loop, nested):
        assert outcome(ours, obj) == outcome(stock, obj) == (
            ValueError,
            "Circular reference detected",
        )


def test_default_hook_output_is_encoded_in_place():
    class Enc(_ReportEncoder):
        def default(self, o):
            if isinstance(o, set):
                return sorted(o)
            return super().default(o)

    obj = {"s": {3, 1, 2}, "deep": [[{"t": set(range(20))}]]}
    assert json.dumps(obj, indent=2, cls=Enc) == json.dumps(
        obj, indent=2, default=lambda o: sorted(o)
    )


def test_brackets_and_separators_inside_strings_stay_put():
    tricky = ['}', '{', '},\n  {', '"},\n    {"', "}\n{", "\\", "]", "[{"]
    obj = [[{t: t, "n": 1} for t in tricky], [{"a": t} for t in tricky], tricky]
    for indent in (2, 0, "{}"):
        for separators in (None, ("}", "{"), (",", ":")):
            assert json.dumps(
                obj, indent=indent, separators=separators, cls=_ReportEncoder
            ) == json.dumps(obj, indent=indent, separators=separators)


def test_a_bare_string_or_scalar_is_the_stock_text():
    for obj in ("a\"b\n", 3, -0.0, math.nan, None, True, [], {}):
        assert ours(obj) == stock(obj)


# -- every report the CLI writes is stock json.dumps(indent=2) text -------


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    where = tmp_path_factory.mktemp("reports")
    ref = where / "ref.csv"
    save_dataset(make_reference_fixture(), ref)
    markov = where / "markov4.csv"
    save_dataset(simulate(make_markov_dgp(4), 800, 3), markov)
    (where / "three.txt").write_text(
        "group first: when t == 1\n"
        "group mid: when t == 2 and not (z[1] == 1 and x[1][1] == 1)\n"
        "group last: when t == 2 and z[1] == 1 and x[1][1] == 1\n"
    )
    (where / "two.txt").write_text("group early: when t == 1\ngroup late: when t >= 2\n")
    (where / "law.dgp").write_text(
        "horizon: 2\nsigma: 2.0\nbase: 100\nassign: 0.5\ncovariate: 0.4\neffect: 20\n"
    )
    return where


COMMANDS = {
    "estimate": ["estimate", "--data", "ref.csv", "--pattern", "three.txt"],
    "estimate-estimated": [
        "estimate", "--data", "ref.csv", "--pattern", "three.txt",
        "--variance-mode", "estimated",
    ],
    "estimate-markov": [
        "estimate", "--data", "markov4.csv", "--pattern", "two.txt", "--markov",
    ],
    "oracle": ["oracle", "--data", "ref.csv"],
    "diagnose": ["diagnose", "--data", "ref.csv", "--reps", "40", "--variance-mode", "known:25"],
    "suggest-pattern": ["suggest-pattern", "--data", "ref.csv", "--variance-mode", "estimated"],
}


def is_stock_text(text):
    return json.dumps(json.loads(text), indent=2) + "\n" == text


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_reports_are_stock_indented_text(panels, monkeypatch, name):
    monkeypatch.chdir(panels)
    out = panels / f"{name}.json"
    assert main(COMMANDS[name] + ["--out", str(out)]) in (0, 2)
    assert is_stock_text(out.read_text())


def test_cli_stdout_report_is_stock_indented_text(panels, monkeypatch, capsys):
    monkeypatch.chdir(panels)
    assert main(COMMANDS["oracle"]) == 0
    assert is_stock_text(capsys.readouterr().out)


def test_simulate_truth_file_is_stock_indented_text(panels, monkeypatch):
    monkeypatch.chdir(panels)
    code = main(
        ["simulate", "--dgp", "law.dgp", "--n", "100", "--seed", "2", "--out", "sim.csv"]
    )
    assert code == 0
    assert is_stock_text((panels / "sim.csv.truth.json").read_text())


def test_emit_writes_through_the_modules_json_dumps(panels, monkeypatch):
    # Profilers hook the report writer by swapping `cli.json`.
    calls = []

    class Proxy:
        def __getattr__(self, name):
            return getattr(json, name)

        def dumps(self, obj, **kwargs):
            calls.append(kwargs)
            return json.dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "json", Proxy())
    monkeypatch.chdir(panels)
    assert main(COMMANDS["estimate"] + ["--out", "hooked.json"]) == 0
    assert calls == [{"indent": 2, "cls": _ReportEncoder}]
    assert "seqeffects.cli" in sys.modules
