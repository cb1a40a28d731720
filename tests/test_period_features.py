"""A pattern evaluated once per period, against the per-key loop.

`PatternSpec.feature_row(period, horizon)` runs each group predicate and
each term once over the columns of a period's arm rows. Every row it
gives must be, bit for bit, the row `feature_row(key, horizon)` gives at
that arm's key, and a row it leaves NaN is one the fit evaluates through
the key. So a fit must build the constraint system of the per-key loop
(`helpers.constraint_rows_reference`), raise what that loop raises, and
report fitted values and standard errors equal to the per-row
f @ params and f @ cov @ f.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import constant_arm_panel, constraint_rows_reference, random_panel
from seqeffects import (
    CoverageError,
    Dataset,
    VarianceMode,
    build_constraints,
    fit_net_effects,
    make_markov_dgp,
    parse_pattern,
    simulate,
)

POSITIONS = ["t", "t - 1", "t - 2", "t + 1", "0", "1", "2", "3", "T", "z[t]", "1.0", "t == 1"]
NUMBERS = ["t", "T", "0", "1", "2", "3", "0.5", "1.5", "-1.25", "1e308",
           "9007199254740993", "3037000500"]


@st.composite
def lookups(draw):
    s = draw(st.sampled_from(POSITIONS))
    if draw(st.booleans()):
        return f"z[{s}]"
    return f"x[{s}][{draw(st.integers(0, 3))}]"


def _compare(parts):
    ops = ["==", "!=", "<", "<=", ">", ">="]
    return lambda draw: " ".join(
        p if i == 0 else f"{draw(st.sampled_from(ops))} {p}" for i, p in enumerate(parts)
    )


@st.composite
def expressions(draw, depth=3):
    """Expressions of the pattern grammar: t, T, numbers, z[s] and
    x[s][i] at any position, and/or/not, chained comparisons, +, - and *."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.sampled_from(NUMBERS), lookups()))
    kind = draw(st.sampled_from(["arith", "bool", "not", "neg", "compare"]))
    sub = expressions(depth - 1)
    if kind == "arith":
        return f"({draw(sub)} {draw(st.sampled_from('+-*'))} {draw(sub)})"
    if kind == "bool":
        parts = draw(st.lists(sub, min_size=2, max_size=3))
        return "(" + f" {draw(st.sampled_from(['and', 'or']))} ".join(parts) + ")"
    if kind == "not":
        return f"(not {draw(sub)})"
    if kind == "neg":
        return f"(-{draw(sub)})"
    parts = draw(st.lists(sub, min_size=2, max_size=3))
    return "(" + _compare(parts)(draw) + ")"


@st.composite
def patterns(draw):
    groups = draw(st.lists(expressions(), max_size=3))
    terms = draw(st.lists(expressions(), min_size=0 if groups else 1, max_size=2))
    lines = [f"group g{i}: when {e}" for i, e in enumerate(groups)]
    lines += [f"term u{i}: {e}" for i, e in enumerate(terms)]
    return parse_pattern("\n".join(lines) + "\n")


panels = st.builds(
    random_panel,
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 60),
    levels=st.sampled_from([2, 3]),
)

BENCH_PATTERN = (
    "group first: when t == 1\n"
    "group mid: when t >= 2 and t <= 6\n"
    "group tail: when t >= 7\n"
    "term carry: z[t-1]\n"
    "term cov: x[t-1][1]\n"
)


def outcome(call):
    """(result, None) or (None, the exception raised)."""
    try:
        return call(), None
    except Exception as exc:  # the comparison covers every exception
        return None, exc


def same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


@settings(max_examples=300, deadline=None)
@given(d=panels, markov=st.booleans(), spec=patterns())
@example(
    d=random_panel(3, 3, 2, 40, 3),
    markov=False,
    spec=parse_pattern("group a: when z[t] == 1 or z[t + 1] == 1\nterm b: x[t - 1][2] * 1.5\n"),
)
def test_every_block_row_is_its_keys_row(d, markov, spec):
    for period in d.periods(markov):
        block = spec.feature_row(period, d.horizon)
        assert block.shape == (len(period.arms), spec.size)
        for g in range(len(period.arms)):
            key = period.key(g)
            row, error = outcome(lambda: spec.feature_row(key, d.horizon))
            if error is not None:
                assert np.isnan(block[g]).all(), key.label()
            elif not np.isnan(block[g, 0]):
                assert block[g].tobytes() == row.tobytes(), key.label()
            else:
                assert np.isnan(block[g]).all(), key.label()


@pytest.mark.parametrize("markov", [False, True])
def test_the_benchmark_pattern_needs_no_key(markov):
    d = simulate(make_markov_dgp(8), 1500, 2)
    spec = parse_pattern(BENCH_PATTERN)
    for period in d.periods(markov):
        block = spec.feature_row(period, d.horizon)
        assert not np.isnan(block).any()
        for g in range(0, len(period.arms), 7):
            assert block[g].tobytes() == spec.feature_row(period.key(g), d.horizon).tobytes()


def fitted_reference(fit, features, d):
    """(label, time, value, se, note) per observed point, one key at a time."""
    system = fit.system
    points = [(k, o, n) for k, o, n in zip(system.keys, system.estimates.tolist(), system.notes)]
    points += [(k, None, reason) for k, reason in system.skipped]
    out = []
    for key, observed, note in points:
        f = features.get(key)
        if f is None:
            try:
                f = fit.pattern.feature_row(key, d.horizon)
            except CoverageError:
                out.append((key.label(), key.time, None, None, observed,
                            f"{note}; no pattern group covers it"))
                continue
        value = float(f @ fit.params)
        se = float(math.sqrt(max(f @ fit.covariance @ f, 0.0)))
        out.append((key.label(), key.time, value, se, observed, note))
    return sorted(out, key=lambda r: (r[1], r[0]))


def bits(v):
    return None if v is None else np.float64(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    d=panels,
    markov=st.booleans(),
    spec=patterns(),
    mode=st.sampled_from([VarianceMode.known(1.0), VarianceMode.estimated()]),
)
@example(
    d=constant_arm_panel(0.3),
    markov=False,
    spec=parse_pattern("group a: when t == 1\nterm b: z[t - 1] * 0.37 - x[t - 1][1]\n"),
    mode=VarianceMode.estimated(),
)
def test_fits_raise_and_report_what_the_per_key_loop_does(d, markov, spec, mode):
    system, error = outcome(lambda: build_constraints(spec, d, mode, markov=markov))
    reference, ref_error = outcome(lambda: constraint_rows_reference(spec, d, mode, markov))
    assert same_error(error, ref_error), (error, ref_error)
    if error is not None:
        return
    rows, features = reference
    want = np.array([r[2] for r in rows]).reshape(len(rows), spec.size)
    assert system.coefficients.tobytes() == want.tobytes()
    fit, fit_error = outcome(lambda: fit_net_effects(spec, d, mode, markov=markov))
    if fit_error is not None:
        return
    got, got_error = outcome(fit.net_effect_estimates)
    want, want_error = outcome(lambda: fitted_reference(fit, features, d))
    assert same_error(got_error, want_error), (got_error, want_error)
    if got_error is not None:
        return
    assert [(f.key.label(), f.time, f.observed_estimate, f.note) for f in got] == [
        (w[0], w[1], w[4], w[5]) for w in want
    ]
    assert [(bits(f.value), bits(f.se)) for f in got] == [(bits(w[2]), bits(w[3])) for w in want]
    report = fit.to_dict()["fitted_net_effects"]
    assert [(r["key"], bits(r["value"]), bits(r["se"])) for r in report] == [
        (w[0], bits(w[2]), bits(w[3])) for w in want
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.one_of(st.integers(1, 40), st.integers(1, 20000)),
    scale=st.sampled_from([1e-3, 1.0, 50.0, 1e12]),
)
def test_an_arm_mean_is_ndarray_mean(seed, size, scale):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale, scale, size)

    def arm_means(z):
        d = Dataset(z.reshape(-1, 1), None, values, [f"u{i}" for i in range(size)])
        return d.periods(False)[0].means

    assert arm_means(np.zeros(size)).tobytes() == np.float64(values.mean()).tobytes()
    tail = values[size // 3 :]  # a slice that starts inside the array, as an arm does
    if tail.size:
        means = arm_means(np.arange(size) >= size // 3)
        assert np.float64(means[-1]).tobytes() == np.float64(tail.mean()).tobytes()
