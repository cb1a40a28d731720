import io
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from seqeffects import (
    Dataset,
    DiagnosticError,
    EstimabilityError,
    IdentifiabilityError,
    UsageError,
    VarianceMode,
    discover_pattern,
    expected_target_covariance,
    fit_net_effects,
    load_dataset,
    make_markov_dgp,
    net_effect_null_test,
    parse_pattern,
    point_effect_targets,
    pooled_outcome_variance,
    resampling_diagnostic,
    saturated_pattern,
    simulate,
    standard_mean_equality_test,
)
from seqeffects import estimation
from helpers import (
    complete_histories,
    expected_covariance_reference,
    null_statistic_reference,
    pooled_outcome_variance_reference,
    random_panel,
    resampling_reference,
    standard_mean_equality_reference,
)

THREE_GROUPS = """\
group first: when t == 1
group mid: when t == 2 and not (z[1] == 1 and x[1][1] == 1)
group last: when t == 2 and z[1] == 1 and x[1][1] == 1
"""


def test_saturated_fit_reproduces_every_target(dref):
    fit = fit_net_effects(saturated_pattern(dref), dref, VarianceMode.known(25.0))
    assert fit.rank == 5
    np.testing.assert_allclose(fit.params, [30, 20, 20, 20, -20], atol=1e-9)
    assert np.abs(fit.residuals).max() < 1e-9


def panel_from_histories(histories, counts, rng):
    """Records for (z, x) histories, counts[i] of them with normal outcomes."""
    z, x = [], []
    for (zs, xs), count in zip(histories, counts):
        z += [zs] * count
        x += [xs] * count
    n, horizon = len(z), len(histories[0][0])
    x = np.array(x, dtype=np.int64).reshape(n, horizon - 1, -1 if horizon > 1 else 0)
    y = rng.normal(50.0, 10.0, size=n)
    return Dataset(np.array(z), x, y, [f"r{i}" for i in range(n)])


@pytest.mark.parametrize("horizon", [2, 3])
def test_saturated_fit_skips_an_arm_no_target_needs(horizon):
    # z1 is constant, and z1=1 x1=1 has no z2=0 arm. Neither skipped arm
    # sits below a target, so the fit needs no feature at either.
    histories = [
        h
        for h in complete_histories(horizon, 1)
        if h[0][0] == 1 and not (h[1][0] == (1,) and h[0][1] == 0)
    ]
    d = panel_from_histories(histories, [2] * len(histories), np.random.default_rng(4))
    skipped = [k.label() for k, _ in point_effect_targets(d)[1]]
    assert skipped == ["z1=1", "z1=1 x1=1 z2=1"]
    fit = fit_net_effects(saturated_pattern(d), d, VarianceMode.known(1.0))
    assert np.abs(fit.residuals).max() < 1e-9
    fitted = {f["key"]: f for f in fit.to_dict()["fitted_net_effects"]}
    for label in skipped:
        assert fitted[label]["value"] is None
        assert fitted[label]["note"].endswith("no pattern group covers it")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 3),
    width=st.integers(1, 2),
    drop=st.sampled_from([0.0, 0.2]),
)
def test_saturated_fit_reproduces_every_target_on_random_panels(seed, horizon, width, drop):
    rng = np.random.default_rng(seed)
    histories = complete_histories(horizon, width if horizon > 1 else 0)
    counts = rng.integers(1, 4, size=len(histories)) * (rng.random(len(histories)) >= drop)
    if not counts.any():
        return
    d = panel_from_histories(histories, counts, rng)
    targets, skipped = point_effect_targets(d)
    if not targets:
        return
    try:
        fit = fit_net_effects(saturated_pattern(d), d, VarianceMode.known(1.0))
    except EstimabilityError as exc:
        # only a control-less arm below a target can stop a saturated fit
        assert skipped and "is not identified" in str(exc)
        return
    estimates = np.array([t.estimate for t in targets])
    assert fit.rank == len(targets)
    scale = max(1.0, np.abs(estimates).max())
    np.testing.assert_allclose(fit.fitted, estimates, rtol=0, atol=1e-9 * scale)
    assert len(fit.to_dict()["fitted_net_effects"]) == len(targets) + len(skipped)


def test_three_group_fit_on_the_reference_fixture(dref):
    fit = fit_net_effects(parse_pattern(THREE_GROUPS), dref, VarianceMode.estimated())
    assert fit.param("first") == pytest.approx(30.0, abs=1e-9)
    assert fit.param("mid") == pytest.approx(20.0, abs=1e-9)
    assert fit.param("last") == pytest.approx(-20.0, abs=1e-9)
    # this fixture is exactly consistent with the three-group structure
    assert np.abs(fit.residuals).max() < 1e-9
    assert fit.covariance.shape == (3, 3)


def test_fitted_net_effects_cover_all_targets(dref):
    fit = fit_net_effects(parse_pattern(THREE_GROUPS), dref, VarianceMode.known(25.0))
    fitted = fit.net_effect_estimates()
    assert [f.key.label() for f in fitted] == [
        "z1=1",
        "z1=0 x1=0 z2=1",
        "z1=0 x1=1 z2=1",
        "z1=1 x1=0 z2=1",
        "z1=1 x1=1 z2=1",
    ]
    by_label = {f.key.label(): f for f in fitted}
    assert by_label["z1=1"].value == pytest.approx(30.0, abs=1e-9)
    assert by_label["z1=1 x1=1 z2=1"].value == pytest.approx(-20.0, abs=1e-9)
    assert all(f.se > 0 for f in fitted)


def test_report_wire_format(dref):
    fit = fit_net_effects(parse_pattern(THREE_GROUPS), dref, VarianceMode.known(25.0))
    blob = json.loads(fit.to_json())
    assert blob["param_names"] == ["first", "mid", "last"]
    assert blob["rank"] == 3
    assert blob["variance_mode"] == "known:25.0"
    assert len(blob["targets"]) == 5
    for row in blob["targets"]:
        assert set(row) >= {
            "key",
            "time",
            "coefficients",
            "estimate",
            "variance",
            "fitted",
            "residual",
            "standardized_residual",
        }
    assert blob["dropped_targets"] == []
    assert blob["markov"] is False


def test_unmatched_group_is_unidentified(d16):
    spec = parse_pattern(
        "group a: when t >= 1\ngroup never: when t == 2 and z[2] == 9\n"
    )
    with pytest.raises(IdentifiabilityError, match="never") as exc:
        fit_net_effects(spec, d16, VarianceMode.known(1.0))
    assert exc.value.null_space.shape == (1, 2)


def test_null_space_is_complete_with_fewer_targets_than_parameters():
    d = load_dataset(io.StringIO("unit_id,z1,y\na,0,1\nb,0,2\nc,1,3\nd,1,5\n"))
    spec = parse_pattern("term a: z[t]\nterm b: 2*z[t]\nterm c: t\n")
    with pytest.raises(IdentifiabilityError) as exc:
        fit_net_effects(spec, d, VarianceMode.known(1.0))
    null = exc.value.null_space
    assert null.shape == (2, 3)
    np.testing.assert_allclose(null @ null.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(null @ [1.0, 2.0, 1.0], 0.0, atol=1e-12)
    directions = str(exc.value).split("unidentified directions span ")[1].split("; ")
    assert len(directions) == 2
    assert all(any(name in v for name in "abc") for v in directions)


@pytest.fixture(scope="module")
def markov3():
    return simulate(make_markov_dgp(3), 2000, 1)


@pytest.mark.parametrize("scale", [1e11, 1e-11])
def test_identification_does_not_depend_on_parameter_units(markov3, scale):
    mode = VarianceMode.known(1.0)
    plain = fit_net_effects(parse_pattern(UNITS.format("")), markov3, mode)
    scaled = fit_net_effects(parse_pattern(UNITS.format(f"{scale!r} * ")), markov3, mode)
    assert scaled.rank == 2
    np.testing.assert_allclose(scaled.params * [1.0, scale], plain.params, rtol=1e-9)


def test_a_null_space_over_scaled_parameters_is_in_their_units(markov3):
    spec = parse_pattern("term a: 1e11 * z[t]\nterm b: z[t]\n")
    with pytest.raises(IdentifiabilityError, match="only 1 of 2") as exc:
        fit_net_effects(spec, markov3, VarianceMode.known(1.0))
    (null,) = exc.value.null_space
    # In parameter units, so the direction is (-1e-11, 1), not (-1, 1) / sqrt(2).
    np.testing.assert_allclose(null * np.sign(null[1]), [-1e-11, 1.0], rtol=0.0, atol=1e-16)


UNITS = "group a: when t == 1\nterm big: {}z[t-1]\n"


def test_saturated_fit_names_strata_without_a_control():
    d = simulate(make_markov_dgp(6), 2000, 3)
    skipped = {k.label() for k, _ in point_effect_targets(d)[1]}
    with pytest.raises(EstimabilityError, match="is not identified") as exc:
        fit_net_effects(saturated_pattern(d), d, VarianceMode.known(1.0))
    named = str(exc.value).split("the net effect at ")[1].split(" is not identified")[0]
    assert named in skipped


def test_no_usable_rows_raises():
    d = load_dataset(io.StringIO("unit_id,z1,y\na,1,1\nb,1,2\n"))
    with pytest.raises(EstimabilityError, match="nothing to fit"):
        fit_net_effects(
            parse_pattern("group a: when t == 1\n"), d, VarianceMode.known(1.0)
        )


def test_markov_fit_warns_about_the_pooling_assumption(d16, caplog):
    spec = parse_pattern("group a: when t == 1\ngroup b: when t == 2\n")
    with caplog.at_level(logging.WARNING):
        fit_net_effects(spec, d16, VarianceMode.known(1.0), markov=True)
    assert any("last step only" in r.message for r in caplog.records)


def test_net_effect_null_test_values(d16):
    res = net_effect_null_test(d16, VarianceMode.known(1.0))
    assert res.statistic == pytest.approx(2231.25)
    assert res.df == 5
    assert res.p_value < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 3),
    n=st.integers(30, 400),
    levels=st.integers(3, 5),
    estimated=st.booleans(),
)
def test_null_statistic_whitens_targets_that_share_a_control(
    seed, horizon, n, levels, estimated
):
    d = random_panel(seed, horizon, 1, n, levels)
    mode = VarianceMode.estimated() if estimated else VarianceMode.known(4.0)
    try:
        want, df = null_statistic_reference(d, mode)
    except np.linalg.LinAlgError:
        return
    if df == 0:
        with pytest.raises(EstimabilityError, match="usable variance"):
            net_effect_null_test(d, mode)
        return
    res = net_effect_null_test(d, mode)
    assert res.df == df
    assert res.statistic == pytest.approx(want, rel=1e-9)
    assert res.p_value == float(chi2.sf(res.statistic, res.df))


def test_null_test_whitens_a_singular_block_by_its_rank():
    # Estimated variances: arms 1 and 2 have no spread, so their block's
    # covariance is the control-mean variance times 11' and has rank 1.
    rows = ["unit_id,z1,y"] + [f"c{i},0,{v}" for i, v in enumerate([1.0, 3.0, 2.0, 6.0])]
    rows += [f"a{i},1,4.0" for i in range(3)] + [f"b{i},2,7.0" for i in range(2)]
    d = load_dataset(io.StringIO("\n".join(rows) + "\n"))
    res = net_effect_null_test(d, VarianceMode.estimated())
    control = np.array([1.0, 3.0, 2.0, 6.0])
    vc = np.var(control, ddof=1) / 4
    e = np.array([4.0, 7.0]) - control.mean()
    assert res.df == 1
    assert res.statistic == pytest.approx(e.sum() ** 2 / (4 * vc), rel=1e-12)


def test_null_test_holds_its_level_when_nine_arms_share_a_control():
    # One period, nine uniform arms and no effect: eight targets per draw,
    # all contrasted against one control mean. Summing squared z-scores
    # as if they were independent rejected in about 10% of draws.
    draws, n, alpha = 2000, 1800, 0.05
    ids = [f"u{i}" for i in range(n)]
    rejects = 0
    for r in range(draws):
        rng = np.random.default_rng([2024, r])
        z = rng.integers(0, 9, size=(n, 1))
        d = Dataset(z, np.zeros((n, 0, 1), dtype=np.int64), rng.standard_normal(n), ids)
        rejects += net_effect_null_test(d, VarianceMode.known(1.0)).p_value < alpha
    se = np.sqrt(alpha * (1 - alpha) / draws)
    assert abs(rejects / draws - alpha) <= 3 * se, rejects / draws


def test_standard_equality_test_values(d16):
    res = standard_mean_equality_test(d16, VarianceMode.known(1.0))
    # between-cell sum of squares within the two covariate profiles
    assert res.statistic == pytest.approx(2287.5)
    assert res.df == 6
    assert res.p_value < 1e-12


def test_standard_equality_test_is_zero_on_flat_outcomes():
    rows = ["unit_id,z1,y"] + [f"u{i},{i % 2},5.0" for i in range(8)]
    d = load_dataset(io.StringIO("\n".join(rows) + "\n"))
    res = standard_mean_equality_test(d, VarianceMode.known(1.0))
    assert res.statistic == pytest.approx(0.0)
    assert res.df == 1
    assert res.p_value == pytest.approx(1.0)


@st.composite
def small_panels(draw, min_horizon=1):
    """Random panels with few records per cell, codes 0..2, both shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 120))
    horizon = draw(st.integers(min_horizon, 3))
    width = draw(st.integers(1, 2)) if horizon > 1 else 0
    z = rng.integers(0, draw(st.integers(2, 3)), size=(n, horizon))
    x = rng.integers(0, 2, size=(n, horizon - 1, width))
    effect = draw(st.sampled_from([0.0, 0.3, 5.0]))
    y = effect * z.sum(axis=1) + rng.normal(50.0, draw(st.sampled_from([0.5, 2.0])), n)
    return Dataset(z, x, y, [f"u{i}" for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(
    d=small_panels(),
    mode=st.sampled_from([VarianceMode.known(2.0), VarianceMode.estimated()]),
)
def test_standard_equality_test_matches_the_record_loop(d, mode):
    try:
        statistic, df = standard_mean_equality_reference(d, mode)
    except EstimabilityError as exc:
        with pytest.raises(EstimabilityError, match=str(exc)):
            standard_mean_equality_test(d, mode)
        return
    res = standard_mean_equality_test(d, mode)
    assert res.df == df
    assert res.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
    assert res.p_value == pytest.approx(float(chi2.sf(statistic, df)), rel=1e-12, abs=0.0)


def test_pooled_outcome_variance(d16):
    # leaf within-cell sum of squares 754 over 16 - 8 degrees of freedom
    assert pooled_outcome_variance(d16) == pytest.approx(94.25)


@settings(max_examples=120, deadline=None)
@given(d=small_panels())
def test_pooled_outcome_variance_matches_the_leaf_loop(d):
    try:
        want = pooled_outcome_variance_reference(d)
    except EstimabilityError as exc:
        with pytest.raises(EstimabilityError, match=str(exc)):
            pooled_outcome_variance(d)
        return
    assert pooled_outcome_variance(d) == want


def test_expected_covariance_is_diagonal_for_binary_arms(d16):
    targets, V = expected_target_covariance(d16, sigma2=1.0)
    assert len(targets) == 5
    np.testing.assert_allclose(np.diag(V), [0.25, 1.0, 1.0, 4 / 3, 4 / 3])
    off = V - np.diag(np.diag(V))
    assert np.abs(off).max() == 0.0


def test_expected_covariance_couples_arms_sharing_a_control():
    rows = ["unit_id,z1,y"]
    outcomes = {0: [1.0, 2.0, 3.0, 4.0], 1: [5.0, 6.0], 2: [7.0, 8.0]}
    i = 0
    for z, ys in outcomes.items():
        for y in ys:
            rows.append(f"u{i},{z},{y}")
            i += 1
    d = load_dataset(io.StringIO("\n".join(rows) + "\n"))
    targets, V = expected_target_covariance(d, sigma2=2.0)
    assert [t.key.label() for t in targets] == ["z1=1", "z1=2"]
    np.testing.assert_allclose(np.diag(V), [2 * (1 / 2 + 1 / 4), 2 * (1 / 2 + 1 / 4)])
    assert V[0, 1] == pytest.approx(2.0 / 4)


def test_resampling_diagnostic_consistent(dref):
    report = resampling_diagnostic(dref, reps=300, seed=3, sigma2=25.0)
    assert report.consistent
    assert report.flagged_variances == []
    assert report.flagged_covariances == []
    assert report.empirical.shape == report.expected.shape == (5, 5)
    blob = report.to_dict()
    assert blob["consistent"] is True
    assert blob["reps"] == 300


def test_resampling_diagnostic_is_seed_stable(dref):
    a = resampling_diagnostic(dref, reps=50, seed=9, sigma2=25.0)
    b = resampling_diagnostic(dref, reps=50, seed=9, sigma2=25.0)
    np.testing.assert_array_equal(a.empirical, b.empirical)
    assert any("replications" in n for n in a.notes)  # small-rep warning


def test_resampling_diagnostic_rep_bounds(dref):
    report = resampling_diagnostic(dref, reps=0, sigma2=25.0)
    assert not report.flagged_variances
    assert any("nothing was checked" in n for n in report.notes)
    with pytest.raises(DiagnosticError, match="at least 2 replications"):
        resampling_diagnostic(dref, reps=1, sigma2=25.0)


def test_negative_reps_are_a_usage_error_before_any_work(dref, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the expected covariance was computed")

    monkeypatch.setattr(estimation, "expected_target_covariance", no_work)
    with pytest.raises(UsageError, match="reps must be at least 0, not -4"):
        resampling_diagnostic(dref, reps=-4, sigma2=25.0)


def test_negative_seed_is_a_usage_error_before_any_work(dref, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the expected covariance was computed")

    monkeypatch.setattr(estimation, "expected_target_covariance", no_work)
    with pytest.raises(UsageError, match="seed must be at least 0, not -2"):
        resampling_diagnostic(dref, reps=10, seed=-2, sigma2=25.0)


def assert_same_report(report, reference):
    assert report.target_labels == reference.target_labels
    assert np.array_equal(report.expected, reference.expected)
    assert np.array_equal(report.empirical, reference.empirical)
    assert report.flagged_variances == reference.flagged_variances
    assert report.flagged_covariances == reference.flagged_covariances
    assert report.to_json() == reference.to_json()


@settings(max_examples=120, deadline=None)
@given(
    d=small_panels(min_horizon=2),
    reps=st.integers(2, 30),
    seed=st.integers(0, 2**16),
    sigma2=st.sampled_from([0.05, 1.0, 2.5, 25.0]),
)
def test_resampling_diagnostic_matches_the_pairwise_loops(d, reps, seed, sigma2):
    targets, expected = expected_target_covariance(d, sigma2)
    ref_targets, ref_expected = expected_covariance_reference(d, sigma2)
    assert [t.key for t in targets] == [t.key for t in ref_targets]
    assert np.array_equal(expected, ref_expected)
    report = resampling_diagnostic(d, reps=reps, seed=seed, sigma2=sigma2)
    if not targets:
        assert report.notes == ["no estimable targets; nothing was checked"]
        return
    reference = resampling_reference(d, reps, seed, sigma2, notes=report.notes)
    assert_same_report(report, reference)


def multi_level_panel(seed=11, n=400):
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 4, size=(n, 2))
    x = rng.integers(0, 2, size=(n, 1, 1))
    y = 3.0 * z.sum(axis=1) + rng.normal(50.0, 2.0, n)
    return Dataset(z, x, y, [f"u{i}" for i in range(n)])


def test_resampling_diagnostic_does_not_depend_on_the_block_size(monkeypatch):
    d = multi_level_panel()
    # Four replications flag pairs by chance, one of them inside a block.
    # At this sigma2 that pair's mc_se differs in the last bit when the
    # squared covariance is an array square rather than a scalar pow.
    sigma2 = 9.915
    whole = resampling_diagnostic(d, reps=4, seed=5, sigma2=sigma2)
    assert whole.flagged_variances
    assert any(f.expected != 0.0 for f in whole.flagged_covariances)
    monkeypatch.setattr(estimation, "_RESAMPLE_BLOCK_BYTES", 1)
    one_rep = resampling_diagnostic(d, reps=4, seed=5, sigma2=sigma2)
    assert_same_report(one_rep, whole)
    assert_same_report(one_rep, resampling_reference(d, 4, 5, sigma2, notes=whole.notes))


@pytest.mark.parametrize(
    "rows",
    [
        ["u0,0,1.0", "u1,0,2.0", "u2,0,3.0"],  # nothing treated
        ["u0,1,1.0", "u1,1,2.0", "u2,2,3.0"],  # no arm has a control
    ],
)
def test_resampling_diagnostic_without_targets_says_nothing_was_checked(rows, caplog):
    d = load_dataset(io.StringIO("\n".join(["unit_id,z1,y"] + rows) + "\n"))
    with caplog.at_level(logging.WARNING):
        report = resampling_diagnostic(d, reps=200, seed=1)
    assert report.target_labels == []
    assert report.notes == ["no estimable targets; nothing was checked"]
    assert report.empirical is None
    assert any("no estimable targets" in r.message for r in caplog.records)


def test_dense_covariance_size_warning(dref, caplog, monkeypatch):
    quiet = resampling_diagnostic(dref, reps=50, seed=2, sigma2=25.0)
    monkeypatch.setattr(estimation, "_DENSE_WARN_BYTES", 2 * 8 * 5 * 5 - 1)
    with caplog.at_level(logging.WARNING):
        loud = resampling_diagnostic(dref, reps=50, seed=2, sigma2=25.0)
    warned = [r.getMessage() for r in caplog.records if "dense" in r.getMessage()]
    assert warned == ["5 targets: the diagnostic's two dense 5 x 5 covariance matrices take 400 bytes"]
    assert loud.to_dict() == quiet.to_dict()
    monkeypatch.setattr(estimation, "_DENSE_WARN_BYTES", 2 * 8 * 5 * 5)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        resampling_diagnostic(dref, reps=0, sigma2=25.0)
    assert not [r for r in caplog.records if "dense" in r.getMessage()]


def test_discovery_merges_equal_groups(dref):
    fit = fit_net_effects(saturated_pattern(dref), dref, VarianceMode.estimated())
    report = discover_pattern(fit, alpha=0.05)
    merged = {frozenset(c) for c in report.components}
    assert frozenset(["g2", "g3", "g4"]) in merged
    assert frozenset(["g1"]) in merged
    assert frozenset(["g5"]) in merged
    refit = fit_net_effects(report.pattern, dref, VarianceMode.estimated())
    assert sorted(np.round(refit.params, 6)) == [-20.0, 20.0, 30.0]
    # the merged pattern also survives a text round trip
    reparsed = parse_pattern(report.pattern.to_text())
    assert reparsed.param_names == report.pattern.param_names


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, float("nan"), float("inf")])
def test_discovery_rejects_a_level_outside_the_unit_interval(dref, alpha):
    fit = fit_net_effects(saturated_pattern(dref), dref, VarianceMode.estimated())
    with pytest.raises(UsageError, match="strictly between 0 and 1"):
        discover_pattern(fit, alpha=alpha)
