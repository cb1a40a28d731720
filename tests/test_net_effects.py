import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqeffects import (
    IncompletenessError,
    MeanTable,
    StratumKey,
    compute_net_effects,
    decompose_point_effect,
    downstream_weighted_sum,
    make_markov_dgp,
    missing_controls,
    simulate,
    verify_decomposition,
)
from helpers import (
    downstream_walk,
    net_effects_reference,
    random_complete_table,
    random_law_table,
    random_panel,
    walk_decomposition_gap,
)
from seqeffects.net_effects import _net_effects


def test_small_fixture_effects(d16):
    net = compute_net_effects(d16.table)
    eff = {k.label(): v for k, v in net.effects.items()}
    assert eff["z1=1"] == pytest.approx(22.5)
    assert eff["z1=0 x1=0 z2=1"] == pytest.approx(20.0)
    assert eff["z1=0 x1=1 z2=1"] == pytest.approx(20.0)
    assert eff["z1=1 x1=0 z2=1"] == pytest.approx(20.0)
    assert eff["z1=1 x1=1 z2=1"] == pytest.approx(-10.0)


def test_reference_fixture_effects(dref):
    net = compute_net_effects(dref.table)
    eff = {k.label(): v for k, v in net.effects.items()}
    assert eff["z1=1"] == pytest.approx(30.0)
    assert eff["z1=0 x1=0 z2=1"] == pytest.approx(20.0)
    assert eff["z1=0 x1=1 z2=1"] == pytest.approx(20.0)
    assert eff["z1=1 x1=0 z2=1"] == pytest.approx(20.0)
    assert eff["z1=1 x1=1 z2=1"] == pytest.approx(-20.0)


def test_single_period_effects_are_plain_contrasts():
    entries = {
        ((0,), ()): (0.5, 10.0),
        ((1,), ()): (0.3, 25.0),
        ((2,), ()): (0.2, 40.0),
    }
    net = compute_net_effects(MeanTable.from_entries(1, 0, entries))
    eff = {k.label(): v for k, v in net.effects.items()}
    assert eff == {"z1=1": pytest.approx(15.0), "z1=2": pytest.approx(30.0)}


def test_downstream_weighted_sum_by_hand(d16):
    net = compute_net_effects(d16.table)
    load = downstream_weighted_sum(d16.table, net.effects.__getitem__)
    # three of eight continue into z2=1 under each x cell: (3*20 + 3*(-10)) / 8
    assert load(StratumKey((1,), ())) == pytest.approx(3.75)
    assert load(StratumKey((0,), ())) == pytest.approx(10.0)
    # the last period has nothing downstream
    assert load(StratumKey((1, 1), ((0,),))) == 0.0


def test_decompose_matches_direct_contrast(d16):
    net = compute_net_effects(d16.table)
    theta = decompose_point_effect(net, d16.table, StratumKey((1,), ()))
    # 22.5 + 3.75 - 10.0
    assert theta == pytest.approx(16.25)


def test_vector_valued_downstream_sum(d16):
    net = compute_net_effects(d16.table)

    def two_copies(key):
        return np.array([net.effects[key], 2.0 * net.effects[key]])

    load = downstream_weighted_sum(d16.table, two_copies)
    np.testing.assert_allclose(load(StratumKey((1,), ())), [3.75, 7.5])
    np.testing.assert_allclose(load(StratumKey((0,), ())), [10.0, 20.0])


def test_kernel_visits_only_what_a_load_needs(d16):
    net = compute_net_effects(d16.table)
    calls = []

    def value(key):
        calls.append(key.label())
        return net.effects[key]

    load = downstream_weighted_sum(d16.table, value)
    load(StratumKey((0,), ()))
    assert sorted(calls) == ["z1=0 x1=0 z2=1", "z1=0 x1=1 z2=1"]
    load(StratumKey((0,), ()))
    load(StratumKey((0, 1), ((1,),)))
    assert len(calls) == 2


def arm_values(table, rng, size):
    """A fixed random value (scalar or size-vector) per active arm."""
    out = {}
    for depth in range(1, 2 * table.horizon, 2):
        for key, _ in table.level(depth):
            if key.arm() > 0:
                out[key] = rng.uniform(-50.0, 50.0, size) if size else rng.uniform(-50.0, 50.0)
    return out


def assert_kernel_matches_walk(table, seed, size):
    values = arm_values(table, np.random.default_rng(seed), size)
    load = downstream_weighted_sum(table, values.__getitem__)
    for depth in range(1, 2 * table.horizon, 2):
        for key, node in table.level(depth):
            want = downstream_walk(table, node, key, values.__getitem__)
            got = load(key, node)
            scale = max(1.0, np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 3),
    width=st.integers(1, 2),
    size=st.sampled_from([0, 1, 3]),
)
def test_kernel_matches_the_walk_on_complete_tables(seed, horizon, width, size):
    table = random_complete_table(np.random.default_rng(seed), horizon, width)
    assert_kernel_matches_walk(table, seed + 1, size)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(2, 5),
    n=st.integers(10, 300),
    size=st.sampled_from([0, 1, 3]),
)
def test_kernel_matches_the_walk_on_incomplete_panels(seed, horizon, n, size):
    table = simulate(make_markov_dgp(horizon), n, seed).table
    assert_kernel_matches_walk(table, seed + 1, size)


def test_verify_clean_table(d16):
    report = verify_decomposition(d16.table)
    assert not report.flagged
    assert report.max_deviation < 1e-12
    assert len(report.entries) == 5


def test_verify_flags_a_corrupt_leaf(d16):
    key = StratumKey((1, 1), ((1,),))
    d16.table.perturb_mean(key, 1.0)
    report = verify_decomposition(d16.table)
    assert report.flagged
    bad = {e.key.label(): e.deviation for e in report.entries if e.deviation > 1e-9}
    assert bad == {"z1=1 x1=1 z2=1": pytest.approx(1.0)}


def test_verify_flags_a_corrupt_internal_mean(d16):
    d16.table.perturb_mean(StratumKey((1,), ()), 1.0)
    report = verify_decomposition(d16.table)
    assert report.flagged
    bad = {e.key.label(): e.deviation for e in report.entries if e.deviation > 1e-9}
    assert bad == {"z1=1": pytest.approx(1.0)}
    blob = report.to_dict()
    assert blob["flagged"] is True
    assert blob["max_deviation"] == pytest.approx(1.0)


def test_decomposition_identity_on_random_tables():
    rng = np.random.default_rng(7)
    for horizon in (1, 2, 3):
        table = random_complete_table(rng, horizon)
        report = verify_decomposition(table)
        assert report.max_deviation < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 3),
    width=st.integers(1, 2),
)
def test_decomposition_identity_on_random_complete_tables(seed, horizon, width):
    table = random_complete_table(np.random.default_rng(seed), horizon, width)
    assert walk_decomposition_gap(table, compute_net_effects(table).effects) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(2, 4),
    per_cell=st.integers(20, 200),
)
def test_decomposition_identity_on_simulated_panels(seed, horizon, per_cell):
    # Panels miss histories, but every stratum with an active arm needs
    # its control for the net effects to exist at all.
    table = simulate(make_markov_dgp(horizon), per_cell * 5 ** (horizon - 1), seed).table
    assume(not missing_controls(table))
    assert walk_decomposition_gap(table, compute_net_effects(table).effects) < 1e-12


def active_arms(table):
    return [
        key
        for depth in range(1, 2 * table.horizon, 2)
        for key, _ in table.level(depth)
        if key.arm() > 0
    ]


def test_verify_skips_arms_with_a_control_less_stratum_below():
    entries = {
        ((0, 0), ((0,),)): (0.15, 10.0),
        ((0, 1), ((0,),)): (0.15, 20.0),
        ((0, 1), ((1,),)): (0.1, 25.0),  # no (0, x=1, z2=0) cell
        ((1, 0), ((0,),)): (0.2, 30.0),
        ((1, 1), ((0,),)): (0.2, 50.0),
        ((2, 1), ((0,),)): (0.2, 70.0),  # no (2, x=0, z2=0) cell
    }
    table = MeanTable.from_entries(2, 1, entries)
    with pytest.raises(IncompletenessError):
        compute_net_effects(table)
    report = verify_decomposition(table)
    assert [e.key.label() for e in report.entries] == ["z1=0 x1=0 z2=1", "z1=1 x1=0 z2=1"]
    assert report.max_deviation < 1e-12
    assert [(k.label(), why) for k, why in report.skipped] == [
        ("z1=1", "control arm unobserved below its control"),
        ("z1=2", "control arm unobserved below the arm"),
        ("z1=0 x1=1 z2=1", "control arm unobserved"),
        ("z1=2 x1=0 z2=1", "control arm unobserved"),
    ]
    blob = report.to_dict()
    assert blob["schema_version"] == 2
    assert blob["skipped"][0] == {
        "key": "z1=1",
        "reason": "control arm unobserved below its control",
    }


def test_verify_runs_on_a_panel_with_control_less_arms():
    table = simulate(make_markov_dgp(6), 3000, 4).table
    assert missing_controls(table)
    with pytest.raises(IncompletenessError):
        compute_net_effects(table)
    report = verify_decomposition(table)
    assert not report.flagged
    assert report.entries and report.skipped
    checked = [e.key for e in report.entries] + [k for k, _ in report.skipped]
    assert sorted(k.label() for k in checked) == sorted(k.label() for k in active_arms(table))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 80),
    levels=st.sampled_from([2, 3]),
)
def test_partial_net_effects_keep_the_identity_on_incomplete_panels(
    seed, horizon, width, n, levels
):
    table = random_panel(seed, horizon, width, n, levels).table
    report = verify_decomposition(table)
    checked = [e.key for e in report.entries] + [k for k, _ in report.skipped]
    assert sorted(k.label() for k in checked) == sorted(k.label() for k in active_arms(table))
    assert not report.skipped or missing_controls(table)
    net, _ = _net_effects(table)
    assert set(net.effects) == {e.key for e in report.entries}
    assert walk_decomposition_gap(table, net.effects) < 1e-10
    assert report.max_deviation < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 300),
    levels=st.sampled_from([2, 3]),
    drop=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_one_pass_recursion_leaves_out_what_the_separate_pass_did(
    seed, horizon, width, n, levels, drop
):
    panel = random_panel(seed, horizon, width, n, levels).table
    law = random_law_table(seed, horizon, width, levels, drop)
    for table in (panel, law):
        net, left_out = _net_effects(table)
        ref, ref_left_out = net_effects_reference(table)
        assert left_out == ref_left_out
        assert list(net.effects.items()) == list(ref.effects.items())
        assert list(net.control_means.items()) == list(ref.control_means.items())


def test_missing_control_raises_with_labels():
    entries = {
        ((0, 0), ((0,),)): (0.3, 10.0),
        ((0, 1), ((0,),)): (0.3, 20.0),
        ((1, 1), ((0,),)): (0.4, 30.0),  # no (1, x=0, z2=0) cell
    }
    table = MeanTable.from_entries(2, 1, entries)
    missing = missing_controls(table)
    assert [k.label() for k in missing] == ["z1=1 x1=0"]
    with pytest.raises(IncompletenessError, match="z1=1 x1=0"):
        compute_net_effects(table)


def test_missing_control_lists_every_stratum():
    entries = {
        ((1, 1), ((0,),)): (0.5, 30.0),
        ((1, 1), ((1,),)): (0.5, 40.0),
    }
    table = MeanTable.from_entries(2, 1, entries)
    labels = [k.label() for k in missing_controls(table)]
    # the first-period stratum and both second-period ones lack controls
    assert labels == ["(all)", "z1=1 x1=0", "z1=1 x1=1"]
    with pytest.raises(IncompletenessError) as exc:
        compute_net_effects(table)
    assert "z1=1 x1=0" in str(exc.value)
    assert "z1=1 x1=1" in str(exc.value)


def test_serialization_shape(d16):
    net = compute_net_effects(d16.table)
    blob = net.to_dict()
    assert blob["horizon"] == 2
    assert {e["key"] for e in blob["effects"]} == {k.label() for k in net.effects}
    assert any(e["key"] == "z1=0" for e in blob["control_means"])
