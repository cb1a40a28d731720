import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_close_trie,
    assert_same_trie,
    causal_net_effects_reference,
    causal_net_effects_support_reference,
    enumerate_support_reference,
    population_table_reference,
    rule_files,
    dataset_from_table_reference,
    law_table,
    reference_fixture_reference,
    simulate_reference,
    small_fixture_reference,
)
from seqeffects import (
    DgpError,
    DgpSpec,
    StratumKey,
    causal_net_effects,
    compute_net_effects,
    dataset_from_table,
    enumerate_support,
    make_confounded_dgp,
    make_dyadic_markov_dgp,
    make_markov_dgp,
    make_null_proxy_dgp,
    make_pattern_dgp,
    make_reference_fixture,
    make_sequential_dgp,
    make_small_fixture,
    parse_dgp,
    population_table,
    simulate,
)

SIMPLE = "horizon: 1\nassign: 0.4\nbase: 100\neffect: 7\n"


def test_population_table_of_a_one_period_law():
    table = population_table(parse_dgp(SIMPLE))
    assert table.require(StratumKey((0,), ())).mass == pytest.approx(0.6)
    assert table.require(StratumKey((1,), ())).mass == pytest.approx(0.4)
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
    support = enumerate_support(make_pattern_dgp())
    assert support.prob.sum() == pytest.approx(1.0)
    # full binary support: 2 * 2 * 2 * 2 * 2 histories over three periods
    assert support.z.shape == (32, 3) and support.x.shape == (32, 2, 1)
    assert support.u.shape == support.prob.shape == support.mean.shape == (32,)


def test_the_support_columns_are_read_only():
    support = enumerate_support(make_pattern_dgp())
    for column in support:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_assignment_probabilities_must_be_interior():
    with pytest.raises(DgpError, match="not strictly between"):
        population_table(parse_dgp("horizon: 1\nassign: 1.0\neffect: 1\n"))


def a_law(assignment=lambda t, z, x, u: 0.5, kernel=lambda t, z, x, u: {(0,): 0.5, (1,): 0.5}):
    return DgpSpec(2, assignment, kernel, lambda z, x, u: float(sum(z)))


@pytest.mark.parametrize("half", [np.float32(0.5), np.float64(0.5), Fraction(1, 2), 0.5])
def test_an_assignment_may_return_any_real_number(half):
    support = enumerate_support(a_law(lambda t, z, x, u: half))
    assert support.prob.tolist() == [0.125] * 8


@pytest.mark.parametrize(
    "value, name", [("0.5", "str"), (None, "NoneType"), (0.5j, "complex")]
)
def test_an_assignment_that_is_not_a_real_number_is_named_by_its_type(value, name):
    with pytest.raises(DgpError) as info:
        enumerate_support(a_law(lambda t, z, x, u: value))
    assert str(info.value) == (
        f"assignment probability {value!r} at time 1 given z=() x=() u=0 "
        f"is a {name}, not a real number"
    )


def test_a_covariate_vector_of_another_width_is_named():
    with pytest.raises(DgpError, match=r"^covariate value \(0, 1\) at time 1 does not fit width 1$"):
        enumerate_support(a_law(kernel=lambda t, z, x, u: {(0, 1): 1.0}))


def test_a_negative_covariate_component_gets_its_own_message():
    with pytest.raises(DgpError) as info:
        enumerate_support(a_law(kernel=lambda t, z, x, u: {(-1,): 1.0}))
    assert str(info.value) == "covariate value (-1,) at time 1 has a negative component"


def test_a_fractional_covariate_component_is_named_not_truncated():
    with pytest.raises(DgpError) as info:
        enumerate_support(a_law(kernel=lambda t, z, x, u: {(0.2,): 0.5, (0.4,): 0.5}))
    assert str(info.value) == (
        "covariate value (0.2,) at time 1 has a component that is not an integer"
    )


@pytest.mark.parametrize("numpy_int", [np.int64, np.uint8])
def test_a_covariate_component_may_be_any_integral_number(numpy_int):
    kernel = lambda t, z, x, u: {(numpy_int(0),): 0.5, (numpy_int(1),): 0.5}
    assert enumerate_support(a_law(kernel=kernel)).x.tolist() == (
        enumerate_support(a_law()).x.tolist()
    )


@pytest.mark.parametrize(
    "value, why",
    [(math.nan, "is not finite"), (math.inf, "is not finite"), ("0.5", "is a str, not a real number")],
)
def test_a_covariate_probability_that_is_not_a_finite_real_is_named(value, why):
    # Beside a branch of mass 1, a NaN once left the sum NaN, passed the
    # sum check and was dropped from the support.
    law = a_law(kernel=lambda t, z, x, u: {(0,): value, (1,): 1.0})
    for consumer in (enumerate_support, lambda dgp: simulate(dgp, 10, 0)):
        with pytest.raises(DgpError) as info:
            consumer(law)
        assert str(info.value) == (
            f"covariate probability {value!r} at time 1 given z=(0,) x=() u=0 {why}"
        )


@pytest.mark.parametrize(
    "value, why", [("3", "is a str, not a real number"), (math.nan, "is not finite")]
)
def test_an_outcome_mean_that_is_not_a_finite_real_is_named(value, why):
    law = DgpSpec(2, lambda t, z, x, u: 0.5, lambda t, z, x, u: {(0,): 1.0}, lambda z, x, u: value)
    for consumer in (enumerate_support, causal_net_effects):
        with pytest.raises(DgpError) as info:
            consumer(law)
        assert str(info.value) == (
            f"outcome mean {value!r} at time 2 given z=(0, 0) x=((0,),) u=0 {why}"
        )


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
    table = law_table(2, 1, entries)
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
    table = law_table(1, 0, entries)
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


def test_a_non_finite_sigma_is_rejected_by_name():
    for text in ("nan", "inf"):
        with pytest.raises(DgpError, match=f"^sigma must be finite, not {text}$"):
            parse_dgp(f"horizon: 1\nsigma: {text}\nassign: 0.5\neffect: 1\n")


@settings(max_examples=150, deadline=None)
@given(law=rule_files())
def test_the_truth_read_off_the_support_matches_the_forward_walk(law):
    text, latent = law
    dgp = parse_dgp(text)
    truth = causal_net_effects(dgp)
    reference = causal_net_effects_reference(dgp)
    assert list(truth) == list(reference)
    if not latent:
        assert list(truth.values()) == list(reference.values())
    scale = max(1.0, *(abs(v) for v in reference.values()))
    for key, value in reference.items():
        assert abs(truth[key] - value) <= 1e-14 * scale, key.label()


@pytest.mark.parametrize(
    "dgp",
    [
        make_pattern_dgp(),
        make_confounded_dgp(),
        make_sequential_dgp(),
        make_markov_dgp(4),
        make_dyadic_markov_dgp(3),
        make_null_proxy_dgp(),
    ],
    ids=["pattern", "confounded", "sequential", "markov", "dyadic", "null-proxy"],
)
def test_the_truth_of_every_factory_law_is_bit_equal_to_the_forward_walk(dgp):
    truth = causal_net_effects(dgp)
    reference = causal_net_effects_reference(dgp)
    assert list(truth.items()) == list(reference.items())


def assert_same_dataset(d, ref):
    for a, b in ((d.z, ref.z), (d.x, ref.x), (d.y, ref.y)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert list(d.unit_ids) == list(ref.unit_ids)


@pytest.mark.parametrize("spread", [0.0, 1.0, 6.0])
@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_the_expander_matches_the_record_loop_on_dyadic_laws(horizon, spread):
    table = population_table(make_dyadic_markov_dgp(horizon))
    scale = 2 * 4 ** (2 * (horizon - 1))
    d = dataset_from_table(table, scale, spread)
    assert_same_dataset(d, dataset_from_table_reference(table, scale, spread))


def test_the_expander_builds_a_one_period_table_without_covariates():
    entries = {((0,), ()): (0.25, 0.1), ((1,), ()): (0.75, 2 / 3)}
    table = law_table(1, 0, entries)
    d = dataset_from_table(table, scale=8, spread=1.0)
    assert d.x.shape == (8, 0, 0)
    assert_same_dataset(d, dataset_from_table_reference(table, 8, 1.0))


def test_the_fixtures_match_the_record_loop():
    assert_same_dataset(make_small_fixture(), small_fixture_reference())
    assert_same_dataset(make_reference_fixture(), reference_fixture_reference())


# Every DgpError text parse_dgp raises, each from a file with one error.
RULE_FILE_ERRORS = [
    ("horizon: 1\nassign 0.5\neffect: 1\n", "line 2: expected '<what>: <value>'"),
    ("horizon: 1\nassign:\neffect: 1\n", "line 2: expected '<what>: <value>'"),
    ("horizon: 1\nhorizon: 2\nassign: 0.5\n", "line 2: duplicate 'horizon'"),
    ("horizon: two\nassign: 0.5\n", "line 1: bad value 'two' for 'horizon'"),
    ("horizon: 1\nsigma: lots\nassign: 0.5\n", "line 2: bad value 'lots' for 'sigma'"),
    (
        "horizon: 1\nwavelength: 3\nassign: 0.5\neffect: 1\n",
        "line 2: unknown directive 'wavelength'",
    ),
    (
        "horizon: 1\nassign: 0.5\neffect: 1\neffect when t == 1: 2\n",
        "line 4: unreachable 'effect' rule after its default",
    ),
    ("assign: 0.5\neffect: 1\n", "a rule file needs a 'horizon:' line"),
    ("horizon: 1\neffect: 1\n", "a rule file needs at least one 'assign' rule"),
    (
        "horizon: 1\nlatent shift: 3\nassign: 0.5\n",
        "'latent shift' without 'latent prob' has no meaning",
    ),
    (
        "horizon: 1\nassign: 0.3 + 0.4 * u\neffect: 1\n",
        "line 2: bad expression '0.3 + 0.4 * u': unknown name 'u'",
    ),
    (
        "horizon: 2\nassign: 0.5\ncovariate when u == 1: 0.7\n",
        "line 3: bad expression 'u == 1': unknown name 'u'",
    ),
    (
        "horizon: 1\nlatent prob: 0\nassign: 0.5\neffect: 2 * u\n",
        "line 4: bad expression '2 * u': unknown name 'u'",
    ),
    ("horizon: 1\nassign: 0.5 +\n", "line 2: bad expression '0.5 +': invalid syntax"),
    (
        "horizon: 1\nassign: abs(t)\n",
        "line 2: bad expression 'abs(t)': unsupported syntax (Call)",
    ),
    ("horizon: 1\nassign: 0.5\neffect: v\n", "line 3: bad expression 'v': unknown name 'v'"),
    (
        "horizon: 1\nassign: 0.5\neffect when z: 1\n",
        "line 3: bad expression 'z': z must be indexed, like z[1]",
    ),
    (
        "horizon: 1\nassign: 0.5\neffect: x[1]\n",
        "line 3: bad expression 'x[1]': x[s] needs a component index, like x[s][1]",
    ),
    (
        "horizon: 1\nassign: 0.5\neffect: 'a'\n",
        "line 3: bad expression \"'a'\": constant 'a' is not a number",
    ),
    (
        "horizon: 1\nassign: 0.5\neffect: 2 / 3\n",
        "line 3: bad expression '2 / 3': only +, - and * are available",
    ),
    ("horizon: 0\nassign: 0.5\n", "horizon must be at least 1"),
    ("horizon: 1\nsigma: -1\nassign: 0.5\n", "sigma must be non-negative"),
    ("horizon: 1\nlatent prob: 1.5\nassign: 0.5\n", "latent probability must be in [0, 1)"),
]


@pytest.mark.parametrize("text, message", RULE_FILE_ERRORS)
def test_a_rule_file_with_one_error_gets_its_message(text, message):
    with pytest.raises(DgpError) as info:
        parse_dgp(text)
    assert str(info.value) == message


def test_a_rule_file_with_two_bad_expressions_reports_the_first():
    text = "horizon: 1\nassign: 0.5\neffect: v\nassign when t == 1: w\n"
    with pytest.raises(DgpError, match="^line 3: bad expression 'v': unknown name 'v'$"):
        parse_dgp(text)
    text = "horizon: 1\neffect: 2 * u\nassign: 0.5 + 0.1 * u\n"
    with pytest.raises(DgpError, match="^line 2: bad expression '2 \\* u': unknown name 'u'$"):
        parse_dgp(text)


def test_latent_prob_may_follow_the_rules_that_read_u():
    before = parse_dgp("horizon: 1\nlatent prob: 0.5\nassign: 0.3 + 0.4 * u\neffect: 1\n")
    after = parse_dgp("horizon: 1\nassign: 0.3 + 0.4 * u\neffect: 1\nlatent prob: 0.5\n")
    assert_same_support(enumerate_support(before), enumerate_support_reference(after))
    assert_same_support(enumerate_support(after), enumerate_support_reference(before))


def assert_same_support(support, cells):
    """The support columns hold the reference walk's cells, bit for bit,
    in its order."""
    n = len(cells)
    u, zs, xs, probs, means = zip(*cells)
    T, w = support.z.shape[1], support.x.shape[2]
    expected = (
        np.array(u, dtype=np.int64),
        np.array(zs, dtype=np.int64).reshape(n, T),
        np.array(xs, dtype=np.int64).reshape(n, T - 1, w),
        np.array(probs),
        np.array(means),
    )
    for column, want in zip(support, expected):
        assert column.dtype == want.dtype and column.shape == want.shape
        assert column.tobytes() == want.tobytes()


FACTORIES = [
    make_pattern_dgp,
    make_confounded_dgp,
    make_sequential_dgp,
    lambda: make_markov_dgp(4),
    lambda: make_dyadic_markov_dgp(3),
    make_null_proxy_dgp,
]


@st.composite
def laws(draw):
    """A rule-file law, with or without a latent class, or a factory law."""
    if draw(st.booleans()):
        return parse_dgp(draw(rule_files())[0])
    return draw(st.sampled_from(FACTORIES))()


@settings(max_examples=60, deadline=None)
@given(dgp=laws(), n=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_every_support_consumer_matches_the_per_cell_code(dgp, n, seed):
    cells = enumerate_support_reference(dgp)
    assert_same_support(enumerate_support(dgp), cells)
    assert_same_dataset(simulate(dgp, n, seed), simulate_reference(dgp, n, seed))
    truth, reference = causal_net_effects(dgp), causal_net_effects_support_reference(dgp)
    assert list(truth) == list(reference)
    assert [v.hex() for v in truth.values()] == [v.hex() for v in reference.values()]
    # Bit for bit against the records the tuples made, and to rounding
    # against the table merged history by history.
    table = population_table(dgp)
    assert_same_trie(
        table.root, law_table(dgp.horizon, dgp.covariate_width, [c[1:] for c in cells]).root
    )
    assert_close_trie(table.root, population_table_reference(dgp).root)
