import numpy as np
import pytest

from seqeffects import (
    DgpError,
    StratumKey,
    causal_net_effects,
    compute_net_effects,
    dataset_from_table,
    enumerate_support,
    make_confounded_dgp,
    make_null_proxy_dgp,
    make_pattern_dgp,
    parse_dgp,
    population_table,
    simulate,
)

SIMPLE = "horizon: 1\nassign: 0.4\nbase: 100\neffect: 7\n"


def test_population_table_of_a_one_period_law():
    table = population_table(parse_dgp(SIMPLE))
    assert table.mass(StratumKey((0,), ())) == pytest.approx(0.6)
    assert table.mass(StratumKey((1,), ())) == pytest.approx(0.4)
    assert table.mean(StratumKey((0,), ())) == pytest.approx(100.0)
    assert table.mean(StratumKey((1,), ())) == pytest.approx(107.0)


def test_causal_truth_of_a_one_period_law():
    truth = causal_net_effects(parse_dgp(SIMPLE))
    assert {k.label(): v for k, v in truth.items()} == {"z1=1": pytest.approx(7.0)}


def test_latent_class_biases_the_observed_contrast():
    dgp = parse_dgp(
        "horizon: 1\nbase: 100\nlatent prob: 0.5\nlatent shift: 10\n"
        "assign: 0.3 + 0.4 * u\neffect: 7\n"
    )
    observed = compute_net_effects(population_table(dgp))
    truth = causal_net_effects(dgp)
    key = StratumKey((1,), ())
    # P(u=1 | z=1) = 0.7 against P(u=1 | z=0) = 0.3, so a +4 gap
    assert observed.effects[key] == pytest.approx(11.0)
    assert truth[key] == pytest.approx(7.0)


def test_support_enumeration_masses_sum_to_one():
    dgp = make_pattern_dgp()
    cells = enumerate_support(dgp)
    assert sum(c.prob for c in cells) == pytest.approx(1.0)
    # full binary support: 2 * 2 * 2 * 2 * 2 histories over three periods
    assert len(cells) == 32


def test_assignment_probabilities_must_be_interior():
    with pytest.raises(DgpError, match="not strictly between"):
        population_table(parse_dgp("horizon: 1\nassign: 1.0\neffect: 1\n"))


def test_covariate_probabilities_must_be_probabilities():
    bad = parse_dgp("horizon: 2\nassign: 0.5\ncovariate: 1.5\neffect: 1\n")
    with pytest.raises(DgpError, match="outside"):
        enumerate_support(bad)


def test_rule_files_reject_unreachable_and_unknown_lines():
    with pytest.raises(DgpError, match="unreachable"):
        parse_dgp("horizon: 1\nassign: 0.5\neffect: 1\neffect when t == 1: 2\n")
    with pytest.raises(DgpError, match="unknown directive"):
        parse_dgp("horizon: 1\nwavelength: 3\nassign: 0.5\neffect: 1\n")
    with pytest.raises(DgpError, match="unknown name 'u'"):
        parse_dgp("horizon: 1\nassign: 0.3 + 0.4 * u\neffect: 1\n")


def test_simulate_is_seed_deterministic():
    dgp = parse_dgp("horizon: 1\nassign: 0.5\neffect: 2\nsigma: 0.5\n")
    a = simulate(dgp, 30, seed=3)
    b = simulate(dgp, 30, seed=3)
    c = simulate(dgp, 30, seed=4)
    assert list(a.unit_ids) == [f"s{i + 1:06d}" for i in range(30)]
    assert a.y.tolist() == b.y.tolist()
    assert a.y.tolist() != c.y.tolist()


def test_simulate_rejects_a_negative_seed():
    with pytest.raises(DgpError, match="seed must be at least 0, not -1"):
        simulate(parse_dgp(SIMPLE), 30, seed=-1)


def test_simulate_draws_roughly_the_right_arm_shares():
    dgp = parse_dgp("horizon: 1\nassign: 0.3\neffect: 2\nsigma: 0.1\n")
    d = simulate(dgp, 4000, seed=11)
    share = int(d.z[:, 0].sum()) / 4000
    assert share == pytest.approx(0.3, abs=0.03)


def test_dataset_from_table_is_exact():
    entries = {
        ((0, 0), ((0,),)): (0.25, 10.0),
        ((0, 1), ((0,),)): (0.25, 30.0),
        ((1, 0), ((0,),)): (0.125, 50.0),
        ((1, 1), ((0,),)): (0.375, 70.0),
    }
    from seqeffects import MeanTable

    table = MeanTable.from_entries(2, 1, entries)
    d = dataset_from_table(table, scale=16, spread=6.0)
    assert d.n_records == 16
    for (zs, xs), (prob, mean) in entries.items():
        key = StratumKey(zs, xs)
        node = d.table.require(key)
        assert node.mass == round(prob * 16)
        assert node.mean == pytest.approx(mean, abs=1e-12)
    # spread moves individual outcomes off the cell mean without moving it
    outcomes = d.y[(d.z == (1, 1)).all(axis=1)]
    assert max(outcomes) > 70.0 > min(outcomes)


def test_dataset_from_table_rejects_fractional_counts():
    entries = {((0,), ()): (1 / 3, 1.0), ((1,), ()): (2 / 3, 2.0)}
    from seqeffects import MeanTable

    table = MeanTable.from_entries(1, 0, entries)
    with pytest.raises(DgpError, match="scale"):
        dataset_from_table(table, scale=10)


def test_pattern_dgp_truth_has_three_effect_levels():
    truth = causal_net_effects(make_pattern_dgp())
    values = sorted({round(v, 8) for v in truth.values()})
    assert values == [-20.0, 20.0, 30.0]


def test_confounded_dgp_biases_only_the_first_period():
    dgp = make_confounded_dgp()
    observed = compute_net_effects(population_table(dgp))
    truth = causal_net_effects(dgp)
    first = StratumKey((1,), ())
    assert abs(observed.effects[first] - truth[first]) > 1.0
    for key, value in truth.items():
        if key.time == 2:
            assert observed.effects[key] == pytest.approx(value, abs=1e-10)


def test_null_proxy_dgp_has_no_causal_effects():
    truth = causal_net_effects(make_null_proxy_dgp())
    assert max(abs(v) for v in truth.values()) == 0.0
