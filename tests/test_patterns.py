import numpy as np
import pytest

from seqeffects import (
    CoverageError,
    MarkovKey,
    ParseError,
    PatternError,
    StratumKey,
    VarianceMode,
    build_constraints,
    parse_pattern,
    saturated_pattern,
)

THREE_GROUPS = """\
group first: when t == 1
group mid: when t == 2 and not (z[1] == 1 and x[1][1] == 1)
group last: when t == 2 and z[1] == 1 and x[1][1] == 1
"""


def test_parse_groups_and_terms():
    spec = parse_pattern("group a: when t == 1\nterm lin: t - 1\n")
    assert spec.param_names == ("a", "lin")
    assert spec.size == 2


def test_comments_and_blank_lines_ignored():
    spec = parse_pattern("# header\n\ngroup a: when t >= 1\n  # trailing\n")
    assert spec.param_names == ("a",)


def test_source_round_trips():
    spec = parse_pattern(THREE_GROUPS)
    assert parse_pattern(spec.to_text()).param_names == spec.param_names


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_pattern("group a: when t == 1\ngroup b when t == 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_pattern("group t: when t == 1\n")  # reserved name
    with pytest.raises(ParseError, match="line 2"):
        parse_pattern("group a: when t == 1\ngroup a: when t == 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_pattern("group a: when q == 1\n")


def test_empty_pattern_rejected():
    with pytest.raises((ParseError, PatternError)):
        parse_pattern("# nothing here\n")


def test_first_matching_group_wins():
    spec = parse_pattern("group a: when t >= 1\ngroup b: when t == 2\n")
    row = spec.feature_row(StratumKey((1, 1), ((0,),)), 2)
    np.testing.assert_allclose(row, [1.0, 0.0])


def test_group_only_patterns_must_cover():
    spec = parse_pattern("group first: when t == 1\n")
    with pytest.raises(CoverageError, match="z1=1 x1=0 z2=1"):
        spec.feature_row(StratumKey((1, 1), ((0,),)), 2)


def test_terms_make_a_pattern_total():
    spec = parse_pattern("group first: when t == 1\nterm lin: t\n")
    row = spec.feature_row(StratumKey((1, 1), ((0,),)), 2)
    np.testing.assert_allclose(row, [0.0, 2.0])


def test_history_predicates_see_the_key():
    spec = parse_pattern(THREE_GROUPS)
    np.testing.assert_allclose(
        spec.feature_row(StratumKey((1, 1), ((1,),)), 2), [0.0, 0.0, 1.0]
    )
    np.testing.assert_allclose(
        spec.feature_row(StratumKey((0, 1), ((1,),)), 2), [0.0, 1.0, 0.0]
    )


def test_pooled_key_predicates_use_retained_positions():
    spec = parse_pattern(
        "group early: when t == 1\ngroup late: when t >= 2 and z[t - 1] == 1\n"
        "group other: when t >= 2 and z[t - 1] == 0\n"
    )
    row = spec.feature_row(MarkovKey(3, 1, (0,), 1), 8)
    np.testing.assert_allclose(row, [0.0, 1.0, 0.0])


def test_pooled_key_rejects_pooled_away_references():
    spec = parse_pattern("group a: when t == 1\ngroup b: when t >= 2 and z[1] == 1\n")
    with pytest.raises(PatternError, match="pooled"):
        spec.feature_row(MarkovKey(3, 1, (0,), 1), 8)


def test_constraint_rows_on_the_small_fixture(d16):
    spec = parse_pattern(THREE_GROUPS)
    system = build_constraints(spec, d16, VarianceMode.known(1.0))
    assert system.rows.tolist() == [0, 1, 2, 3, 4]
    assert system.dropped.size == 0
    row = {key.label(): i for i, key in enumerate(system.keys)}
    first = row["z1=1"]
    # direct hit on group 1, then downstream share shifts:
    # arm side 3/8 into mid (x=0) and 3/8 into last (x=1),
    # control side 4/8 into mid, nothing into last
    np.testing.assert_allclose(system.coefficients[first], [1.0, -0.125, 0.375])
    assert system.estimates[first] == pytest.approx(16.25)
    assert system.weights[first] == pytest.approx(1.0 / system.variances[first])
    np.testing.assert_allclose(system.coefficients[row["z1=0 x1=0 z2=1"]], [0, 1, 0])
    np.testing.assert_allclose(system.coefficients[row["z1=1 x1=1 z2=1"]], [0, 0, 1])
    assert system.coefficients.shape == (5, 3)
    assert system.notes == [None] * 5
    assert not system.markov


def test_constraints_drop_inestimable_rows_in_estimated_mode():
    import io

    from seqeffects import load_dataset

    # single-record arms at t=2 leave the variance inestimable
    rows = ["unit_id,z1,z2,x1_1,y"]
    cells = [
        (0, 0, 0, [10.0, 11.0]),
        (0, 1, 0, [12.0, 13.5]),
        (1, 0, 0, [20.0, 21.0]),
        (1, 1, 0, [30.0]),
    ]
    i = 0
    for z1, z2, x1, ys in cells:
        for y in ys:
            rows.append(f"u{i},{z1},{z2},{x1},{y}")
            i += 1
    d = load_dataset(io.StringIO("\n".join(rows) + "\n"))
    spec = parse_pattern("group a: when t == 1\ngroup b: when t == 2\n")
    system = build_constraints(spec, d, VarianceMode.estimated())
    dropped = {system.keys[i].label(): i for i in system.dropped}
    assert "z1=1 x1=0 z2=1" in dropped
    i = dropped["z1=1 x1=0 z2=1"]
    assert "at least 2 records" in system.notes[i]
    assert system.weights[i] == 0.0
    assert system.variances[i] == np.inf


def test_saturated_pattern_reproduces_targets(d16):
    spec = saturated_pattern(d16)
    assert spec.size == 5
    system = build_constraints(spec, d16, VarianceMode.known(1.0))
    # square system, one indicator per row after the downstream adjustment
    assert system.coefficients[system.rows].shape == (5, 5)
    for i in system.rows:
        matched = spec.feature_row(system.keys[i], d16.horizon)
        assert matched.max() == 1.0


def test_markov_system_pools_strata(d16):
    spec = parse_pattern("group a: when t == 1\ngroup b: when t == 2\n")
    system = build_constraints(spec, d16, VarianceMode.known(1.0), markov=True)
    assert system.markov
    keys = [system.keys[i] for i in system.rows]
    pooled = [key for key in keys if isinstance(key, MarkovKey)]
    assert len(pooled) == 4
    for key in pooled:
        assert key.label().endswith("pooled")
