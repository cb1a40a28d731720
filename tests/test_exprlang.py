import numpy as np
import pytest

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
