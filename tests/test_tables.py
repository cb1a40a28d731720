import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqeffects import (
    DomainError,
    EstimabilityError,
    MeanTable,
    StratumKey,
    UsageError,
    make_confounded_dgp,
    make_dyadic_markov_dgp,
    make_markov_dgp,
    make_null_proxy_dgp,
    make_pattern_dgp,
    make_sequential_dgp,
    population_table,
)
from helpers import (
    assert_close_trie,
    assert_same_trie,
    law_table,
    levels_reference,
    merge_law_rows_reference,
    population_table_reference,
    random_complete_table,
    random_law_rows,
    random_law_table,
    random_panel,
    table_from_arrays_reference,
    table_from_entries_reference,
)

SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    levels=st.sampled_from([2, 3]),
)


def test_from_arrays_aggregates_counts_and_means(d16):
    t = d16.table
    root = t.root
    assert root.mass == 16
    k = StratumKey((0,), ())
    assert t.require(k).mass == 8
    arm = StratumKey((0, 0), ((0,),))
    assert t.require(arm).mass == 2
    assert t.mean(arm) == pytest.approx(100.0)


def test_level_enumeration_counts(d16):
    levels = d16.table.levels()
    # depth 0 is the root, then z1, (z1,x1), (z1,x1,z2)
    assert [len(lv) for lv in levels] == [1, 2, 4, 8]
    total = sum(node.mass for _, node in levels[-1])
    assert total == 16


def test_require_raises_on_absent_stratum(d16):
    with pytest.raises(EstimabilityError, match="z1=3"):
        d16.table.require(StratumKey((3,), ()))
    assert d16.table.node(StratumKey((3,), ())) is None


def test_perturb_mean_shifts_only_that_stratum(d16):
    t = d16.table
    key = StratumKey((1, 1), ((1,),))
    before = t.mean(key)
    sib = t.mean(key.sibling(0))
    t.perturb_mean(key, 2.0)
    assert t.mean(key) == pytest.approx(before + 2.0)
    assert t.mean(key.sibling(0)) == pytest.approx(sib)


ONE_PERIOD = (np.array([[0], [1]]), np.zeros((2, 0, 0), dtype=np.int64), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "weights, error, message",
    [
        ([0.0, 1.0], DomainError, "positive"),
        ([-0.5, 1.5], DomainError, "positive"),
        ([np.nan, 1.0], DomainError, "finite"),
        ([np.inf, 1.0], DomainError, "finite"),
        ([0.4, 0.5], DomainError, "sum to 0.9"),
        ([1.0], UsageError, r"weights must be \(2,\), not \(1,\)"),
        ([[0.5, 0.5]], UsageError, r"weights must be \(2,\), not \(1, 2\)"),
    ],
    ids=["zero", "negative", "nan", "inf", "sum", "short", "two-dimensional"],
)
def test_weights_must_be_a_law(weights, error, message):
    with pytest.raises(error, match=message):
        MeanTable.from_arrays(*ONE_PERIOD, np.array(weights))


def test_a_law_needs_finite_outcomes():
    z, x, _ = ONE_PERIOD
    with pytest.raises(DomainError, match="finite"):
        MeanTable.from_arrays(z, x, np.array([1.0, np.nan]), np.array([0.5, 0.5]))


def test_a_sample_counts_its_records_in_ints(d16):
    for level in d16.table.levels():
        assert all(type(node.mass) is int for _, node in level)


def test_a_column_of_outcomes_does_not_broadcast_against_the_weights(d16):
    column = MeanTable.from_arrays(d16.z, d16.x, d16.y[:, None])
    assert_same_trie(column.root, d16.table.root)


def test_a_complete_law_table_has_every_leaf():
    rng = np.random.default_rng(5)
    table = random_complete_table(rng, 2)
    leaves = table.level(3)
    assert len(leaves) == 8
    assert sum(node.mass for _, node in leaves) == pytest.approx(1.0)


def test_interior_mean_is_mass_weighted():
    entries = {
        ((0, 0), ((0,),)): (0.25, 10.0),
        ((0, 1), ((0,),)): (0.25, 30.0),
        ((1, 0), ((0,),)): (0.25, 50.0),
        ((1, 1), ((0,),)): (0.25, 70.0),
    }
    t = law_table(2, 1, entries)
    assert t.mean(StratumKey((0,), ((0,),))) == pytest.approx(20.0)
    assert t.mean(StratumKey((1,), ())) == pytest.approx(60.0)
    assert t.root.mean == pytest.approx(40.0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 400), **SHAPES)
def test_level_wise_build_matches_the_recursive_builder(seed, horizon, width, levels, n):
    d = random_panel(seed, horizon, width, n, levels)
    table = MeanTable.from_arrays(d.z, d.x, d.y)
    assert (table.horizon, table.covariate_width) == (horizon, width if horizon > 1 else 0)
    assert_same_trie(table.root, table_from_arrays_reference(d.z, d.x, d.y).root)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), drop=st.sampled_from([0.0, 0.3, 0.7]), **SHAPES)
def test_levels_equal_the_sorted_depth_first_listing(seed, horizon, width, levels, n, drop):
    panel = random_panel(seed, horizon, width, n, levels).table
    law = random_law_table(seed, horizon, width, levels, drop)
    for table in (panel, law):
        assert table.levels() == levels_reference(table)


@settings(max_examples=80, deadline=None)
@given(drop=st.sampled_from([0.0, 0.3, 0.7]), dyadic=st.booleans(), **SHAPES)
def test_weighted_rows_build_the_reference_law_table(seed, horizon, width, levels, drop, dyadic):
    rows = random_law_rows(seed, horizon, width, levels, drop, dyadic)
    w = width if horizon > 1 else 0
    table = law_table(horizon, w, rows)
    reference = table_from_entries_reference(horizon, w, merge_law_rows_reference(rows))
    assert (table.horizon, table.covariate_width) == (horizon, w)
    if dyadic:
        assert_same_trie(table.root, reference.root)
    else:
        assert_close_trie(table.root, reference.root)


FACTORY_LAWS = {
    "pattern": make_pattern_dgp,
    "confounded": make_confounded_dgp,
    "sequential": make_sequential_dgp,
    "markov": lambda: make_markov_dgp(4),
    "dyadic": lambda: make_dyadic_markov_dgp(3),
    "null-proxy": make_null_proxy_dgp,
}


@pytest.mark.parametrize("name", FACTORY_LAWS)
def test_population_tables_match_the_merged_reference(name):
    dgp = FACTORY_LAWS[name]()
    table, reference = population_table(dgp), population_table_reference(dgp)
    assert (table.horizon, table.covariate_width) == (reference.horizon, reference.covariate_width)
    if name == "dyadic":
        assert_same_trie(table.root, reference.root)
    else:
        assert_close_trie(table.root, reference.root)
