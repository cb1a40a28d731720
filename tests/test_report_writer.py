"""The report writer: `_ReportEncoder` text is stock `json.dumps` text.

Every report goes through `json.dumps(payload, indent=2,
cls=_ReportEncoder)`, so the encoder must give the stock indented text
byte for byte on any report tree (str keys; lists, tuples, dicts,
scalars, and bool, int or float ndarrays as their `tolist()`), and fail
with a TypeError on what a report tree cannot hold.
"""

import json
import math
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from helpers import fit_report_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seqeffects.cli as cli
from seqeffects import (
    Dataset,
    SeqEffectsError,
    VarianceMode,
    fit_net_effects,
    make_markov_dgp,
    make_reference_fixture,
    parse_dgp,
    parse_pattern,
    resampling_diagnostic,
    save_dataset,
    simulate,
)
from seqeffects.cli import _ReportEncoder, _emit, main

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
KEYS = TRICKY_TEXT
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


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
ARRAY_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e-310, math.nan, math.inf, -math.inf]
)
ARRAYS = (
    hnp.arrays(np.float64, SHAPES, elements=ARRAY_FLOATS)
    | hnp.arrays(np.int64, SHAPES)
    | hnp.arrays(np.bool_, SHAPES)
)


def tolisted(obj):
    """The tree with every ndarray replaced by its `tolist()`."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: tolisted(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [tolisted(v) for v in obj]
    return obj


def stock(obj, **kwargs):
    return json.dumps(obj, indent=2, **kwargs)


def ours(obj, **kwargs):
    return json.dumps(obj, indent=2, cls=_ReportEncoder, **kwargs)


@settings(max_examples=150, deadline=None)
@given(obj=trees())
def test_text_equals_the_stock_encoder(obj):
    assert ours(obj) == stock(obj)


@settings(max_examples=50, deadline=None)
@given(obj=trees())
def test_text_without_the_c_encoder_is_the_same(obj):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "c_make_encoder", None)
        assert ours(obj) == stock(obj)


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(max_examples=100, deadline=None)
@given(obj=trees(SCALARS | ARRAYS))
def test_ndarrays_are_written_as_their_lists(c_encoder, obj):
    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            mp.setattr(cli, "c_make_encoder", None)
        assert ours(obj) == stock(tolisted(obj))


def test_a_matrix_is_never_one_nested_list(monkeypatch):
    listed = []

    class Rows(np.ndarray):
        def tolist(self):
            listed.append(self.shape)
            return super().tolist()

    matrix = np.arange(12.0).reshape(3, 4).view(Rows)
    cube = np.zeros((2, 0, 3)).view(Rows)
    obj = {"m": matrix, "c": cube, "v": [matrix[0]]}
    want = stock(tolisted(obj))
    listed.clear()
    assert ours(obj) == want
    assert listed == [(4,)] * 4  # each row once, the empty cube not at all


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


def outcome(dumps, obj):
    try:
        return dumps(obj)
    except TypeError as exc:
        return type(exc), str(exc)


# Values a report tree cannot hold, alone or among ones it can.
BAD = [
    {"a": [1, 2, object()]},
    [1.0] * 20 + [np.int64(3)],
    {"a": 1, "b": np.int64(2)},
    {"ok": [0.5] * 16, "bad": {"x": 1j}},
    {"x": [{"deep": set()}]},
    [{"a": 1}, {"b": b"bytes"}],
    (1.5, "two", frozenset()),
    {"a": {"b": [[Decimal("1")]]}},
    object(),
    {"a": [1.0, np.array([1 + 2j, 3])]},
    {"a": {"b": np.array([[1.0, "x"]], dtype=object)}},
    [np.array([0.5]), np.array(["s"])],
]


@pytest.mark.parametrize("obj", BAD, ids=range(len(BAD)))
@pytest.mark.parametrize("nested", [True, False])
def test_unsupported_values_raise_the_stock_error(obj, nested):
    if nested:
        obj = {"fit": {"rows": [[0.5, 1], obj], "n": 3}}
    want = outcome(stock, obj)
    assert want[0] is TypeError and want[1].endswith("is not JSON serializable")
    assert outcome(ours, obj) == want


@pytest.mark.parametrize("obj", BAD, ids=range(len(BAD)))
def test_unsupported_values_raise_the_stock_error_without_the_c_encoder(obj, monkeypatch):
    obj = {"fit": {"rows": [[0.5, 1], obj], "n": 3}}
    want = outcome(stock, obj)
    monkeypatch.setattr(cli, "c_make_encoder", None)
    assert outcome(ours, obj) == want


NON_STR_KEYS = [
    {1: 2},  # depth 0, flat
    {(1, 2): [1, [2]]},  # depth 0, nested
    {"a": {None: "x", "b": 1}},  # a flat dict inside a tree
    {"a": [{"b": 1}, {"c": 2, 1.5: 3}]},  # a list of flat dicts
    {"a": {True: {"b": [1]}}},
    {"a": {np.str_("b"): 1, np.int64(2): 3}},  # a str subclass passes, int64 not
]


@pytest.mark.parametrize("obj", NON_STR_KEYS, ids=range(len(NON_STR_KEYS)))
def test_a_key_that_is_not_a_str_raises_type_error(obj):
    with pytest.raises(TypeError):
        ours(obj)


def test_brackets_and_separators_inside_strings_stay_put():
    tricky = ['}', '{', '},\n  {', '"},\n    {"', "}\n{", "\\", "]", "[{"]
    obj = [[{t: t, "n": 1} for t in tricky], [{"a": t} for t in tricky], tricky]
    assert ours(obj) == stock(obj)
    assert ours([obj, {"deep": obj}]) == stock([obj, {"deep": obj}])


def test_a_bare_string_or_scalar_is_the_stock_text():
    for obj in ("a\"b\n", 3, -0.0, math.nan, -math.inf, np.float64(0.1), None, True, [], {}):
        assert ours(obj) == stock(obj)


# -- a fit's record lists are written from its columns ---------------------

FIT_PATTERNS = [
    "group a: when t == 1\ngroup b: when t >= 2\nterm c: z[t - 1] * 0.37 - x[t - 1][1]\n",
    "group a: when z[t] == 1\ngroup b: when z[t] >= 2\nterm c: t\n",
    "group g: when t >= 1\n",
    # Covers no period-1 arm: with no control there, those arms get nulls.
    "group late: when t >= 2\n",
]
# Entries planted in a fit's arrays, so every number column meets None,
# NaN, infinities, -0.0 and extreme floats: NaN or infinite params and
# covariances give NaN or infinite fitted values and SEs, and a non-finite
# variance is written as null.
PLANTED = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
FIT_ARRAYS = ["params", "covariance", "fitted", "residuals", "standardized_residuals"]
SYSTEM_ARRAYS = ["estimates", "variances", "weights", "coefficients"]


@st.composite
def fits(draw):
    """Fits of random panels: both fit modes, known and estimated variances
    (dropped targets with both notes), skipped arms that no group covers,
    patterns with terms, and planted non-finite entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon, width = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    n, levels = draw(st.integers(6, 60)), draw(st.sampled_from([2, 3]))
    z = rng.integers(0, levels, size=(n, horizon))
    if draw(st.booleans()):
        z[:, 0] = np.maximum(z[:, 0], 1)  # no control arm at period 1
    x = rng.integers(0, 2, size=(n, horizon - 1, width))
    # Few outcome values give arms with no spread.
    y = rng.integers(0, draw(st.sampled_from([2, 1000])), size=n) * 0.75
    d = Dataset(z, x, y, [f"r{i}" for i in range(n)])
    spec = parse_pattern(draw(st.sampled_from(FIT_PATTERNS)))
    mode = draw(st.sampled_from([VarianceMode.known(2.5), VarianceMode.estimated()]))
    try:
        fit = fit_net_effects(spec, d, mode, markov=draw(st.booleans()))
    except SeqEffectsError:
        assume(False)
    owners = [(fit, name) for name in FIT_ARRAYS] + [(fit.system, n) for n in SYSTEM_ARRAYS]
    for owner, i, value in draw(
        st.lists(st.tuples(st.sampled_from(owners), st.integers(0, 10**6), PLANTED), max_size=4)
    ):
        array = getattr(*owner)
        if array.size:
            array.flat[i % array.size] = value
    return fit


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(max_examples=150, deadline=None)
@given(fit=fits(), depth=st.integers(0, 2))
def test_fit_records_are_the_stock_text_of_their_dicts(c_encoder, fit, depth):
    with np.errstate(invalid="ignore"):  # planted NaNs meet the products
        want = fit_report_reference(fit)
        assert stock(fit.to_dict()) == stock(want)
        tree = fit._report()
    for _ in range(depth):  # the CLI writes the fit at depth 1
        tree, want = {"fit": tree}, {"fit": want}
    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            mp.setattr(cli, "c_make_encoder", None)
        assert ours(tree) == stock(want)


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


# -- what writing a report costs in memory ---------------------------------


def test_a_diagnose_report_costs_about_two_copies_of_its_text(tmp_path):
    # The benchmark's complete T=5 panel: 341 targets, a 5 MB report.
    rules = (
        "horizon: 5\nbase: 50\nsigma: 1\nassign: 0.5\ncovariate: 0.5\n"
        "effect when t == 1: 25\neffect: 10\n"
    )
    d = simulate(parse_dgp(rules), 10_000, 11)
    report = resampling_diagnostic(d, reps=100, seed=0, sigma2=1.0)
    assert len(report.target_labels) == 341
    out = tmp_path / "diagnose.json"
    tracemalloc.start()
    try:
        _emit({"resampling": report.to_dict()}, str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_text() == json.dumps({"resampling": json.loads(report.to_json())}, indent=2) + "\n"
    assert peak <= 3 * size, f"peak {peak} B for a {size} B report"


def test_an_estimate_report_costs_under_three_copies_of_its_text(tmp_path):
    # The benchmark's estimate-full-t8 panel and pattern: a 2.7 MB report.
    pattern = parse_pattern(
        "group first: when t == 1\n"
        "group mid: when t >= 2 and t <= 6\n"
        "group tail: when t >= 7\n"
        "term carry: z[t-1]\n"
        "term cov: x[t-1][1]\n"
    )
    fit = fit_net_effects(pattern, simulate(make_markov_dgp(8), 5000, 1), VarianceMode.known(1.0))
    assert len(fit.system.rows) > 2000
    out = tmp_path / "estimate.json"
    tracemalloc.start()
    try:
        _emit({"fit": fit._report()}, str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_text() == json.dumps({"fit": fit.to_dict()}, indent=2) + "\n"
    assert peak <= 3 * size, f"peak {peak} B for a {size} B report"
