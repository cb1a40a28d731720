import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqeffects import DomainError, EstimabilityError, MeanTable, StratumKey
from helpers import (
    assert_same_trie,
    levels_reference,
    random_complete_table,
    random_law_table,
    random_panel,
    table_from_arrays_reference,
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
    assert t.mass(k) == 8
    arm = StratumKey((0, 0), ((0,),))
    assert t.mass(arm) == 2
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


def test_from_entries_requires_unit_mass():
    entries = {((0,), ()): (0.4, 1.0), ((1,), ()): (0.5, 2.0)}
    with pytest.raises(DomainError):
        MeanTable.from_entries(1, 0, entries)


def test_from_entries_rejects_zero_mass_cells():
    entries = {((0,), ()): (0.0, 1.0), ((1,), ()): (1.0, 2.0)}
    with pytest.raises(DomainError):
        MeanTable.from_entries(1, 0, entries)


def test_from_entries_leaf_means_exact():
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
    t = MeanTable.from_entries(2, 1, entries)
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
