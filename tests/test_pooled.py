"""Pooled-history (markov) fits: exact laws and the trie-based reference.

Pooled fits run on per-period signature arrays. The reference here is the
computation they replaced: downstream feature loads summed along every
leaf of the full-history trie, with features evaluated at full-history
keys and averaged by leaf mass over each pooled arm, and targets read
off masks over the records. For patterns that only read what a pooled
key retains, the two must agree.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import filled_load_rows, key_rows, random_panel
from seqeffects import (
    Dataset,
    EstimabilityError,
    MarkovKey,
    MeanTable,
    PatternError,
    StratumKey,
    VarianceMode,
    build_constraints,
    dataset_from_table,
    discover_pattern,
    expected_target_covariance,
    fit_net_effects,
    make_dyadic_markov_dgp,
    net_effect_null_test,
    parse_pattern,
    point_effect_targets,
    pooled_outcome_variance,
    population_table,
    resampling_diagnostic,
    saturated_pattern,
    save_dataset,
    standard_mean_equality_test,
)
from seqeffects.cli import main
from seqeffects.patterns import _downstream_loads

TWO_GROUPS = "group early: when t == 1\ngroup late: when t >= 2\n"

GROUPS = [
    "when t == 1",
    "when t >= 2 and z[t - 1] == 1",
    "when z[t] == 2",
    "when t == 2 and x[t - 1][1] == 1",
    "when t >= 3 and z[t - 1] == 0 and z[t] == 1",
]
INTEGER_TERMS = ["t", "z[t - 1]", "x[t - 1][1]", "z[t] * z[t - 1]", "T - t + x[t - 1][1]"]
REAL_TERMS = ["0.37 * t - 1.3 * z[t - 1]", "0.1 * x[t - 1][1] + 0.7 * z[t]"]


def reference_side_sums(d, spec):
    """Mean downstream feature load per pooled arm, off the leaf table."""
    table = d.table
    horizon = d.horizon
    k = spec.size
    sums, masses = {}, {}
    for leaf_key, leaf in table.level(2 * horizon - 1):
        zs = leaf_key.treatments
        xs = leaf_key.covariates
        suffix = np.zeros((horizon + 1, k))
        for s in range(horizon, 0, -1):
            row = suffix[s]
            if zs[s - 1] > 0:
                row = row + spec.feature_row(StratumKey(zs[:s], xs[: s - 1]), horizon)
            suffix[s - 1] = row
        for t in range(1, horizon + 1):
            if t == 1:
                sig = StratumKey((zs[0],), ())
            else:
                sig = MarkovKey(t, zs[t - 2], xs[t - 2], zs[t - 1])
            if sig in sums:
                sums[sig] = sums[sig] + leaf.mass * suffix[t]
                masses[sig] += leaf.mass
            else:
                sums[sig] = leaf.mass * suffix[t]
                masses[sig] = leaf.mass
    return {sig: sums[sig] / masses[sig] for sig in sums}


def reference_targets(d):
    """(key, time, arm values, control values) and skipped keys."""
    targets, skipped = [], []
    z1 = d.z[:, 0]
    for z in sorted(int(v) for v in np.unique(z1)):
        if z == 0:
            continue
        key = StratumKey((z,), ())
        if not (z1 == 0).any():
            skipped.append(key)
            continue
        targets.append((key, 1, d.y[z1 == z], d.y[z1 == 0]))
    for t in range(2, d.horizon + 1):
        zt = d.z[:, t - 1]
        stacked = np.column_stack([d.z[:, t - 2], d.x[:, t - 2, :]])
        groups, inverse = np.unique(stacked, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        for g in range(groups.shape[0]):
            mask = inverse == g
            prev_x = tuple(int(v) for v in groups[g, 1:])
            ctl = np.flatnonzero(mask & (zt == 0))
            for z in sorted(int(v) for v in np.unique(zt[mask])):
                if z == 0:
                    continue
                key = MarkovKey(t, int(groups[g, 0]), prev_x, z)
                if ctl.size == 0:
                    skipped.append(key)
                    continue
                arm = np.flatnonzero(mask & (zt == z))
                targets.append((key, t, d.y[arm], d.y[ctl]))
    return targets, skipped


panels = st.builds(
    random_panel,
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 80),
    levels=st.sampled_from([2, 3]),
)


@st.composite
def pooled_patterns(draw, terms=INTEGER_TERMS + REAL_TERMS):
    """Patterns that read only t, T, z[t-1], x[t-1] and z[t]."""
    groups = draw(st.lists(st.sampled_from(GROUPS), unique=True, max_size=3))
    chosen = draw(st.lists(st.sampled_from(terms), unique=True, max_size=2))
    if not chosen:
        groups.append("when t >= 1")  # group-only patterns must cover every arm
    lines = [f"group g{i}: {g}" for i, g in enumerate(groups)]
    lines += [f"term u{i}: {e}" for i, e in enumerate(chosen)]
    return parse_pattern("\n".join(lines) + "\n")


def side_sums(d, spec):
    """Loads of every pooled target arm and control by key, read off their
    (period, arm) index, and those keys."""
    periods = d.periods(markov=True)
    def feature(key):
        return spec.feature_row(key, d.horizon)

    loads = _downstream_loads(
        periods, lambda t, index: key_rows(periods[t - 1], index, feature, spec.size), spec.size
    )
    targets, _ = point_effect_targets(d, markov=True)
    columns = zip(targets.times.tolist(), targets.arms.tolist(), targets.controls.tolist())
    needed = {(t, g) for t, a, c in columns for g in (a, c)}
    assert filled_load_rows(loads) == needed
    got = {periods[t - 1].key(g): loads[t - 1][g] for t, g in needed}
    return got, set(targets) | {key.sibling(0) for key in targets}


@settings(max_examples=80, deadline=None)
@given(d=panels, spec=pooled_patterns())
def test_side_sums_match_the_leaf_walk(d, spec):
    got, keys = side_sums(d, spec)
    want = reference_side_sums(d, spec)
    assert got.keys() == keys
    for key in keys:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key.label())


@settings(max_examples=60, deadline=None)
@given(d=panels, spec=pooled_patterns(INTEGER_TERMS))
def test_integer_side_sums_are_bit_equal(d, spec):
    got, keys = side_sums(d, spec)
    want = reference_side_sums(d, spec)
    assert got.keys() == keys
    for key in keys:
        assert np.array_equal(got[key], want[key]), key.label()


@settings(max_examples=80, deadline=None)
@given(d=panels)
def test_targets_match_the_trie_reference(d):
    targets, skipped = point_effect_targets(d, markov=True)
    want, want_skipped = reference_targets(d)
    assert [k for k, _ in skipped] == want_skipped
    assert all(why == "control arm unobserved" for _, why in skipped)
    assert list(zip(targets, targets.times.tolist())) == [(w[0], w[1]) for w in want]
    columns = zip(
        *targets.counts(), targets.estimates(), targets.variances(VarianceMode.estimated())
    )
    for (arm_count, control_count, estimate, variance), (_, _, arm, control) in zip(
        columns, want
    ):
        assert (arm_count, control_count) == (arm.size, control.size)
        assert abs(estimate - (arm.mean() - control.mean())) <= 1e-12
        if min(arm.size, control.size) < 2:
            assert variance == np.inf
            continue
        ref_var = np.var(arm, ddof=1) / arm.size + np.var(control, ddof=1) / control.size
        assert abs(variance - ref_var) <= 1e-12 * max(1.0, ref_var)


def without_control(seed, n):
    """A T=3 panel whose pooled arm (z2=1, x2=1, z3=1) has no control.

    Both period-1 arms are observed, so every arm sits below a target.
    """
    d = random_panel(seed, 3, 1, n, 2)
    z, x, y = d.z.copy(), d.x.copy(), d.y.copy()
    z[:2, 0] = (0, 1)
    z[:2, 1:] = 1
    x[:2, 1, 0] = 1
    keep = ~((z[:, 1] == 1) & (x[:, 1, 0] == 1) & (z[:, 2] == 0))
    return Dataset(z[keep], x[keep], y[keep], [f"r{i}" for i in range(int(keep.sum()))])


SKIPPED = MarkovKey(3, 1, (1,), 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60))
def test_pooled_away_reference_at_a_downstream_only_arm_names_it(seed, n):
    d = without_control(seed, n)
    assert SKIPPED in [k for k, _ in point_effect_targets(d, markov=True)[1]]
    spec = parse_pattern(
        "group early: when t == 1\n"
        "group late: when t >= 2 and not (t == 3 and z[2] == 1 and x[2][1] == 1 and z[3] == 1)\n"
        "group odd: when t == 3 and z[t - 2] == 1\n"
    )
    with pytest.raises(PatternError, match=re.escape(SKIPPED.label())) as exc:
        build_constraints(spec, d, VarianceMode.known(1.0), markov=True)
    assert "pooled away" in str(exc.value)


def test_saturated_pooled_pattern_names_an_unidentified_arm():
    d = without_control(7, 60)
    spec = saturated_pattern(d, markov=True)
    with pytest.raises(EstimabilityError, match="not identified") as exc:
        fit_net_effects(spec, d, VarianceMode.known(1.0), markov=True)
    assert SKIPPED.label() in str(exc.value)


@pytest.mark.parametrize("horizon", [3, 4])
def test_exact_dyadic_law_gives_the_population_effects(horizon):
    table = population_table(make_dyadic_markov_dgp(horizon))
    d = dataset_from_table(table, 2 * 4 ** (2 * (horizon - 1)), spread=1.0)
    fit = fit_net_effects(parse_pattern(TWO_GROUPS), d, VarianceMode.known(1.0), markov=True)
    np.testing.assert_allclose(fit.params, [25.0, 10.0], rtol=0, atol=1e-12)


def test_saturated_pooled_fit_skips_arms_no_target_needs():
    # Period 1 has no treated arm, so only the period-2 stratum z1=0 x1=0
    # holds a target, and no target holds the records of either
    # control-less arm. The fit needs no feature at them.
    z = [(0, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 1, 1)] * 3
    x = [((0,), (0,))] * 6 + [((1,), (1,))] * 3
    d = Dataset(np.array(z), np.array(x), np.arange(9.0), [f"r{i}" for i in range(9)])
    skipped = [k for k, _ in point_effect_targets(d, markov=True)[1]]
    assert skipped == [MarkovKey(2, 0, (1,), 1), MarkovKey(3, 1, (1,), 1)]
    spec = saturated_pattern(d, markov=True)
    fit = fit_net_effects(spec, d, VarianceMode.known(1.0), markov=True)
    fitted = {f["key"]: f for f in fit.to_dict()["fitted_net_effects"]}
    for key in skipped:
        assert fitted[key.label()]["value"] is None
        assert fitted[key.label()]["note"].endswith("no pattern group covers it")


def forbid_the_trie(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the full-history trie was built")

    monkeypatch.setattr(MeanTable, "from_arrays", classmethod(forbidden))


@pytest.mark.parametrize("markov", [False, True])
def test_fits_never_build_the_trie(monkeypatch, markov):
    table = population_table(make_dyadic_markov_dgp(3))
    d = dataset_from_table(table, 2 * 4**4, spread=1.0)
    forbid_the_trie(monkeypatch)
    spec = parse_pattern(TWO_GROUPS)
    fit = fit_net_effects(spec, d, VarianceMode.known(1.0), markov=markov)
    fit.to_dict()
    discover_pattern(fit)


@pytest.mark.parametrize("markov", [False, True])
def test_cli_estimate_never_builds_the_trie(monkeypatch, tmp_path, markov):
    d = dataset_from_table(population_table(make_dyadic_markov_dgp(3)), 2 * 4**4, spread=1.0)
    save_dataset(d, tmp_path / "panel.csv")
    (tmp_path / "pattern.txt").write_text(TWO_GROUPS)
    forbid_the_trie(monkeypatch)
    argv = [
        "estimate", "--data", str(tmp_path / "panel.csv"),
        "--pattern", str(tmp_path / "pattern.txt"), "--out", str(tmp_path / "fit.json"),
    ] + (["--markov"] if markov else [])
    assert main(argv) == 0
    assert json.loads((tmp_path / "fit.json").read_text())["fit"]["markov"] is markov
    argv[0] = "suggest-pattern"
    argv.remove("--pattern")
    argv.remove(str(tmp_path / "pattern.txt"))
    assert main(argv) == 0


def test_diagnostics_and_tests_never_build_the_trie(monkeypatch):
    d = dataset_from_table(population_table(make_dyadic_markov_dgp(3)), 2 * 4**4, spread=1.0)
    forbid_the_trie(monkeypatch)
    mode = VarianceMode.estimated()
    report = resampling_diagnostic(d, reps=20, seed=1, sigma2=pooled_outcome_variance(d))
    assert report.target_labels
    assert len(expected_target_covariance(d)[0]) == len(report.target_labels)
    net_effect_null_test(d, mode)
    standard_mean_equality_test(d, mode)
