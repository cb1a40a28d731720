import ast
import builtins

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqeffects import PatternError
from seqeffects.exprlang import CovariateView, InexactArrays, TreatmentView, compile_expr


def env(z=(), x=(), **scalars):
    e = dict(scalars)
    e["z"] = TreatmentView(1, z, PatternError, lambda s: f"z[{s}] is not determined here")
    e["x"] = CovariateView(1, x, PatternError, lambda s: f"x[{s}] is not determined here")
    return e


def test_arithmetic_and_names():
    expr = compile_expr("2 + 3 * t - T")
    assert expr.eval_number(env(t=4, T=5)) == pytest.approx(9.0)
    assert expr.uses == {"t", "T"}


def test_comparisons_and_chains():
    assert compile_expr("1 <= t < 3").eval_predicate(env(t=2, T=3))
    assert not compile_expr("1 <= t < 3").eval_predicate(env(t=3, T=3))
    assert compile_expr("t != 2 or T == 2").eval_predicate(env(t=1, T=3))


def test_boolean_operators():
    e = env(t=2, T=3, z=(1, 0), x=((1,),))
    assert compile_expr("not z[2] and z[1] == 1").eval_predicate(e)
    assert compile_expr("z[1] == 1 and x[1][1] == 1").eval_predicate(e)


def test_history_lookups():
    e = env(t=2, T=2, z=(1, 0), x=((3, 7),))
    assert compile_expr("z[1]").eval_number(e) == 1.0
    assert compile_expr("z[2]").eval_number(e) == 0.0
    assert compile_expr("x[1][2]").eval_number(e) == 7.0


def test_positions_below_one_read_as_reference():
    e = env(t=1, T=2, z=(1,), x=())
    assert compile_expr("z[0]").eval_number(e) == 0.0
    assert compile_expr("z[t - 1]").eval_number(e) == 0.0
    assert compile_expr("x[0][1]").eval_number(e) == 0.0


def test_positions_beyond_the_prefix_error():
    e = env(t=1, T=2, z=(1,), x=())
    with pytest.raises(PatternError, match="not determined"):
        compile_expr("z[2]").eval_number(e)
    with pytest.raises(PatternError, match="not determined"):
        compile_expr("x[1][1]").eval_number(e)


def test_covariate_component_bounds():
    e = env(t=2, T=2, z=(1, 0), x=((3, 7),))
    with pytest.raises(PatternError, match="outside 1..2"):
        compile_expr("x[1][3]").eval_number(e)
    with pytest.raises(PatternError, match="outside 1..2"):
        compile_expr("x[1][0]").eval_number(e)


def test_non_integer_position_rejected_at_eval():
    e = env(t=1, T=1, z=(1,), x=())
    with pytest.raises(PatternError, match="position must be an integer"):
        compile_expr("z[1 < 2]").eval_number(e)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "t.denominator",
        "min(t, T)",
        "[t for t in (1,)]",
        "z",
        "x",
        "x[1]",
        "z[1][1]",
        "t / 2",
        "t ** 2",
        "lambda: 1",
        "q + 1",
        "(1, 2)",
        "\"s\"",
    ],
)
def test_rejected_sources(bad):
    with pytest.raises(PatternError):
        compile_expr(bad)


def test_bare_history_names_get_helpful_messages():
    with pytest.raises(PatternError, match=r"z must be indexed, like z\[1\]"):
        compile_expr("z + 1")
    with pytest.raises(PatternError, match=r"x must be indexed twice, like x\[1\]\[1\]"):
        compile_expr("x + 1")
    with pytest.raises(PatternError, match=r"needs a component index"):
        compile_expr("x[2] > 0")


def test_custom_name_set():
    expr = compile_expr("u * 2", allowed_names={"t", "T", "u"})
    assert expr.eval_number(env(t=1, T=1, u=3)) == 6.0
    with pytest.raises(PatternError):
        compile_expr("u * 2")


def test_view_from_a_later_position_reports_why_a_position_is_gone():
    view = TreatmentView(3, (1,), PatternError, lambda s: f"z[{s}] was pooled away")
    assert view[3] == 1
    assert view[0] == 0
    with pytest.raises(PatternError, match=r"z\[1\] was pooled away"):
        view[1]
    with pytest.raises(PatternError, match=r"z\[4\] was pooled away"):
        view[4]
    xs = CovariateView(2, ((5, 6),), PatternError, lambda s: f"x[{s}] was pooled away")
    assert xs[2][2] == 6
    assert xs[-1][1] == 0
    with pytest.raises(PatternError, match=r"x\[1\] was pooled away"):
        xs[1]
    with pytest.raises(PatternError, match=r"x\[3\] was pooled away"):
        xs[3]


def test_empty_and_malformed_sources():
    with pytest.raises(PatternError):
        compile_expr("")
    with pytest.raises(PatternError):
        compile_expr("t +")


def column_env(z, x, **scalars):
    """env over points: z a list of per-point treatment tuples, x of
    per-point covariate vector tuples; views hold one column per position."""
    zs = np.array(z).T
    xs = np.array(x).transpose(1, 2, 0) if x else []
    e = dict(scalars)
    e["z"] = TreatmentView(1, zs, PatternError, lambda s: f"z[{s}] is not determined here")
    e["x"] = CovariateView(1, xs, PatternError, lambda s: f"x[{s}] is not determined here")
    return e


POINTS_Z = [(0, 0), (1, 0), (2, 1), (1, 2)]
POINTS_X = [((0, 3),), ((1, 0),), ((1, 1),), ((0, 2),)]


@pytest.mark.parametrize(
    "text",
    [
        "z[1] and x[1][2]",
        "z[2] or 2",
        "not z[1] or x[1][1] == 1",
        "0 < z[1] <= x[1][2] < 3",
        "z[1] * 1.5 - x[1][2] * z[2]",
        "-z[1] * 0.0",
        "(z[1] == 1) + (z[2] == 1) * 2",
        "t == 2 and z[2] == 1",
        "t == 1 and z[2] == 1",
        "z[0] + x[0][5]",
    ],
)
def test_array_evaluation_gives_each_point_its_value(text):
    expr = compile_expr(text)
    value = expr.eval_arrays(column_env(POINTS_Z, POINTS_X, t=2, T=2))
    for i, (z, x) in enumerate(zip(POINTS_Z, POINTS_X)):
        want = expr.eval_number(env(z, x, t=2, T=2))
        got = float(value[i] if isinstance(value, np.ndarray) else value)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (text, i)


@pytest.mark.parametrize(
    "text",
    [
        "z[1] == 1 and 2.5",  # an int at some points, a float at others
        "z[1] * 3037000500 * 3037000500",  # beyond 2**53
        "z[1] == 9007199254740993",
        "z[z[1] + 1]",  # a position that differs between points
    ],
)
def test_array_evaluation_refuses_what_it_cannot_do_exactly(text):
    with pytest.raises((InexactArrays, PatternError)):
        compile_expr(text).eval_arrays(column_env(POINTS_Z, POINTS_X, t=2, T=2))


def test_two_compilations_of_one_text_are_one_value():
    a, b = compile_expr("z[1] == 1 and t < T"), compile_expr("z[1] == 1 and t < T")
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"CompiledExpr(text={a.text!r}, code={a.code!r}, uses={a.uses!r})"


def test_evaluation_never_parses_or_compiles(monkeypatch):
    expr = compile_expr("0 < z[1] <= x[1][2] < 3 or not t - 1")

    def forbidden(*args, **kwargs):
        raise AssertionError("parsed or compiled after compile_expr")

    with monkeypatch.context() as m:  # undone before pytest reads a failure's source
        m.setattr(builtins, "compile", forbidden)
        m.setattr(ast, "parse", forbidden)
        each = [expr.eval(env(z, x, t=2, T=2)) for z, x in zip(POINTS_Z, POINTS_X)]
        points = expr.eval_arrays(column_env(POINTS_Z, POINTS_X, t=2, T=2))
    assert each == points.tolist() == [False, False, False, True]


# -- the array walk against CPython's code, on random expressions ---------


class LookupRead(Exception):
    """A lookup beyond the evaluation point was read."""


def _poisoned(s):
    raise LookupRead(f"position {s} was read")


def _views(zs, xs):
    return {
        "z": TreatmentView(1, zs, PatternError, _poisoned),
        "x": CovariateView(1, xs, PatternError, _poisoned),
    }


_NUMBERS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([2**53, 2**53 + 1, 3037000500, 2**63]),
    st.sampled_from([0.0, 0.5, 1.5, 2.0, 1e300, 2.0**53 + 2]),
).map(repr)
_POSITIONS = st.one_of(
    st.integers(-1, 4).map(str), st.sampled_from(["t", "t - 1", "T + 1", "z[1]", "x[1][1] + 1"])
)
_LEAVES = st.one_of(
    _NUMBERS,
    st.sampled_from(["t", "T"]),
    st.builds("z[{}]".format, _POSITIONS),
    st.builds("x[{}][{}]".format, _POSITIONS, st.integers(0, 3)),
    st.sampled_from(["z[T + 1]", "x[t][1]"]),  # beyond every point
)


@st.composite
def _chains(draw, operands):
    parts = draw(st.lists(operands, min_size=2, max_size=4))
    ops = draw(st.lists(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                        min_size=len(parts) - 1, max_size=len(parts) - 1))
    return "(" + parts[0] + "".join(f" {op} {part}" for op, part in zip(ops, parts[1:])) + ")"


def _extend(operands):
    return st.one_of(
        st.builds("({} {} {})".format, operands, st.sampled_from("+-*"), operands),
        st.builds("({}{})".format, st.sampled_from(["not ", "-", "+"]), operands),
        st.builds(
            lambda parts, op: "(" + f" {op} ".join(parts) + ")",
            st.lists(operands, min_size=2, max_size=3),
            st.sampled_from(["and", "or"]),
        ),
        _chains(operands),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=10)


@st.composite
def _batches(draw):
    """t, T and the (z, x) histories of 1-6 points: z known at 1..t, x at
    1..t-1 with two components, a few values past 2**53."""
    T = draw(st.integers(1, 3))
    t = draw(st.integers(1, T))
    values = st.sampled_from([0, 1, 2, 3, 2**53 + 1])
    n = draw(st.integers(1, 6))
    z = draw(st.lists(st.lists(values, min_size=t, max_size=t), min_size=n, max_size=n))
    x = draw(st.lists(
        st.lists(st.lists(values, min_size=2, max_size=2), min_size=t - 1, max_size=t - 1),
        min_size=n, max_size=n,
    ))
    return t, T, z, x


def _outcome(evaluate):
    try:
        return evaluate()
    except (PatternError, LookupRead) as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(text=_EXPRESSIONS, batch=_batches())
@example(text="(1 > z[1] < z[T + 1])", batch=(1, 1, [[2], [3]], [[], []]))
@example(text="(z[1] > 3 and x[t][1])", batch=(2, 2, [[2, 0], [3, 1]], [[[0, 0]], [[1, 1]]]))
@example(text="(z[1] < 4 or z[T + 1] or x[t][1])", batch=(1, 2, [[2], [3]], [[], []]))
def test_the_array_walk_gives_each_point_what_cpython_does(text, batch):
    t, T, z, x = batch
    expr = compile_expr(text)
    wants = [
        _outcome(lambda: expr.eval({"t": t, "T": T, **_views(zi, xi)}))
        for zi, xi in zip(z, x)
    ]
    columns = np.array(z, dtype=np.int64).T
    xs = np.array(x, dtype=np.int64).reshape(len(x), t - 1, 2).transpose(1, 2, 0)
    try:
        got = expr.eval_arrays({"t": t, "T": T, **_views(columns, xs)})
    except (InexactArrays, PatternError):
        return  # a refusal: the caller evaluates these points one at a time
    except LookupRead:
        # Read only when some point reads it: an and, an or or a
        # comparison chain that has stopped at every point reads no further.
        assert any(isinstance(w, LookupRead) for w in wants), text
        return
    assert not any(isinstance(w, Exception) for w in wants), (text, wants)
    for i, want in enumerate(wants):
        value = got[i] if isinstance(got, np.ndarray) else got
        floating = value.dtype.kind == "f" if isinstance(value, np.generic) else isinstance(value, float)
        assert floating == isinstance(want, float), (text, i, value, want)
        if floating:
            assert np.float64(value).tobytes() == np.float64(want).tobytes(), (text, i, value, want)
        else:
            assert int(value) == int(want), (text, i, value, want)
