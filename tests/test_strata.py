import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _mean_reference,
    _mean_variance_reference,
    expected_covariance_blocks_reference,
    null_test_blocks_reference,
    point_effect_targets_reference,
    pooled_outcome_variance_reference,
    random_panel,
    resampled_estimates_reference,
)
from seqeffects import (
    Dataset,
    EstimabilityError,
    MarkovKey,
    StratumKey,
    UsageError,
    VarianceMode,
    expected_target_covariance,
    net_effect_null_test,
    point_effect_targets,
    pooled_outcome_variance,
    resampling_diagnostic,
)
from seqeffects.strata import _mean_variances


def test_variance_modes(d16):
    targets = point_effect_targets(d16)[0]
    assert targets[0] == StratumKey((1,), ())
    # Both arms hold 8 records: sigma2 4 over 8 is 0.5 each. The arm z1=1
    # has sample variance 112.5 (14.0625 over 8), the control z1=0 has
    # squared deviations 1354 from its mean 115 (1354 / 7 over 8).
    assert targets.variances(VarianceMode.known(4.0))[0] == pytest.approx(0.5 + 0.5)
    assert targets.variances(VarianceMode.estimated())[0] == pytest.approx(14.0625 + 1354 / 56)


def test_variance_mode_parsing():
    m = VarianceMode.parse("known:2.5")
    assert m.kind == "known"
    assert m.sigma2 == pytest.approx(2.5)
    assert VarianceMode.parse("estimated").kind == "estimated"
    with pytest.raises(Exception):
        VarianceMode.parse("bogus")


@pytest.mark.parametrize("text", ["known:inf", "known:-inf", "known:nan", "known:0", "known:-1"])
def test_known_variance_must_be_positive_and_finite(text):
    with pytest.raises(UsageError, match="positive and finite"):
        VarianceMode.parse(text)


def test_period_arms_list_record_indices(d16):
    period = d16.periods(False)[1]
    idx = set()
    for g in range(len(period.arms)):
        if period.key(g).parent_stratum() == StratumKey((1,), ((1,),)):
            idx.update(np.flatnonzero(period.codes == g).tolist())
    assert idx == {12, 13, 14, 15}
    for i in idx:
        assert d16.z[i, 0] == 1
        assert d16.x[i, 0].tolist() == [1]


def test_point_effect_targets_cover_every_arm(d16):
    targets, skipped = point_effect_targets(d16)
    labels = [key.label() for key in targets]
    assert labels == [
        "z1=1",
        "z1=0 x1=0 z2=1",
        "z1=0 x1=1 z2=1",
        "z1=1 x1=0 z2=1",
        "z1=1 x1=1 z2=1",
    ]
    assert skipped == []


def test_point_effect_estimates_match_cell_contrasts(d16):
    targets, skipped = point_effect_targets(d16)
    estimates = dict(zip(targets.labels(), targets.estimates()))
    variances = dict(zip(targets.labels(), targets.variances(VarianceMode.known(1.0))))
    assert estimates["z1=1"] == pytest.approx(16.25)
    assert variances["z1=1"] == pytest.approx(0.25)
    assert estimates["z1=0 x1=0 z2=1"] == pytest.approx(20.0)
    assert estimates["z1=1 x1=1 z2=1"] == pytest.approx(-10.0)
    assert variances["z1=1 x1=0 z2=1"] == pytest.approx(1 / 3 + 1)
    assert skipped == []


def test_markov_targets_pool_histories(d16):
    targets, skipped = point_effect_targets(d16, markov=True)
    labels = [key.label() for key in targets]
    assert labels[0] == "z1=1"
    assert all("pooled" in lab for lab in labels[1:])
    assert all(isinstance(key, MarkovKey) for key in targets[1:])
    # four (z1, x1, z2=1) strata collapse onto four pooled keys here
    assert len(targets) == 5


def test_single_arm_stratum_is_skipped():
    import io

    from seqeffects import load_dataset

    rows = ["unit_id,z1,z2,x1_1,y"]
    for i, (z1, x1, z2, y) in enumerate(
        [
            (0, 0, 0, 10.0),
            (0, 0, 1, 12.0),
            (1, 0, 1, 30.0),  # no z2=0 partner under z1=1
            (1, 0, 1, 31.0),
            (0, 1, 0, 11.0),
            (0, 1, 1, 13.0),
        ]
    ):
        rows.append(f"u{i},{z1},{z2},{x1},{y}")
    d = load_dataset(io.StringIO("\n".join(rows) + "\n"))
    targets, skipped = point_effect_targets(d)
    skipped_labels = [k.label() for k, _ in skipped]
    assert any("z1=1" in lab and "z2=1" in lab for lab in skipped_labels)
    target_labels = [key.label() for key in targets]
    assert "z1=1 x1=0 z2=1" not in target_labels


def test_missing_control_leaves_no_targets():
    import io

    from seqeffects import load_dataset

    # nobody took the control in period 1, so no contrast is estimable
    d = load_dataset(io.StringIO("unit_id,z1,y\na,1,1\nb,1,2\nc,2,3\n"))
    targets, skipped = point_effect_targets(d)
    assert targets == []
    assert [k.label() for k, _ in skipped] == ["z1=1", "z1=2"]
    assert all("control arm unobserved" in why for _, why in skipped)


def one_period_panel(z, y):
    return Dataset(np.reshape(z, (-1, 1)), None, y, [f"u{i}" for i in range(len(y))])


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    d=st.builds(
        random_panel,
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 4),
        width=st.integers(1, 2),
        n=st.integers(1, 120),
        levels=st.integers(1, 5),
    ),
    markov=st.booleans(),
    mode=st.sampled_from([VarianceMode.known(2.5), VarianceMode.estimated()]),
    seed=st.integers(0, 2**16),
)
# no targets: nobody is treated
@example(d=random_panel(0, 2, 1, 10, 1), markov=False, mode=VarianceMode.estimated(), seed=0)
# no usable variance: every arm holds one record
@example(
    d=one_period_panel([0, 1, 2], [1.0, 2.0, 3.0]),
    markov=False,
    mode=VarianceMode.estimated(),
    seed=0,
)
# one arm of one record beside two usable ones, all sharing a control
@example(
    d=one_period_panel([0, 0, 1, 2, 2, 3, 3], [1.0, 2.0, 5.0, 3.0, 3.5, 7.0, 6.0]),
    markov=False,
    mode=VarianceMode.estimated(),
    seed=0,
)
def test_target_arrays_match_the_per_target_reference(d, markov, mode, seed):
    targets, _ = point_effect_targets(d, markov=markov)
    want = point_effect_targets_reference(d, markov=markov)
    assert list(targets) == [t.key for t in want]
    assert targets.labels() == [t.key.label() for t in want]
    assert targets.times.tolist() == [t.time for t in want]
    arm_counts, control_counts = targets.counts()
    assert arm_counts.tolist() == [t.arm_count for t in want]
    assert control_counts.tolist() == [t.control_count for t in want]
    assert bits(targets.estimates()) == bits([t.estimate for t in want])
    arm_var, control_var = targets.mean_variances(mode)
    assert bits(arm_var) == bits([t.mean_variances(mode)[0] for t in want])
    assert bits(control_var) == bits([t.mean_variances(mode)[1] for t in want])
    assert bits(targets.variances(mode)) == bits([t.variance(mode) for t in want])
    if markov:
        return
    # the diagnostics, which read the full-history targets
    try:
        statistic, df = null_test_blocks_reference(d, mode)
    except EstimabilityError as exc:
        with pytest.raises(EstimabilityError, match=str(exc)):
            net_effect_null_test(d, mode)
    else:
        result = net_effect_null_test(d, mode)
        assert (bits(result.statistic), result.df) == (bits(statistic), df)
    sigma2 = mode.sigma2 if mode.kind == "known" else 1.0
    _, cov = expected_target_covariance(d, sigma2)
    assert cov.tobytes() == expected_covariance_blocks_reference(d, sigma2)[1].tobytes()
    if targets:
        m = len(targets)
        report = resampling_diagnostic(d, reps=3, seed=seed, sigma2=sigma2)
        est = resampled_estimates_reference(d, 3, seed, sigma2)
        assert report.empirical.tobytes() == np.cov(est, rowvar=False).reshape(m, m).tobytes()


# Arm lengths on both sides of the 8-element blocks that pairwise summation
# unrolls and of its 128-element leaves.
ARM_LENGTHS = [1, 2, 8, 9, 128, 129, 300]


def _one_arm_per_length():
    """T = 1: an arm of each of `ARM_LENGTHS`, and two more arms, of 9 and
    300 records, whose outcomes are all equal, records shuffled."""
    rng = np.random.default_rng(23)
    lengths = ARM_LENGTHS + [9, 300]
    z = np.repeat(np.arange(len(lengths)), lengths)[:, None]
    y = rng.normal(100.0, 10.0, len(z))
    y[z[:, 0] == len(ARM_LENGTHS)] = 0.1
    y[z[:, 0] == len(ARM_LENGTHS) + 1] = 1 / 3
    order = rng.permutation(len(z))
    return Dataset(z[order], None, y[order], [f"u{i}" for i in range(len(z))])


def _arms_of_one_length():
    """T = 2, binary z1, x1 and z2: every period-2 arm holds 129 records."""
    rng = np.random.default_rng(29)
    cells = np.repeat(np.array(list(itertools.product((0, 1), repeat=3))), 129, axis=0)
    order = rng.permutation(len(cells))
    z, x = cells[order][:, [0, 2]], cells[order][:, 1].reshape(-1, 1, 1)
    y = rng.normal(-3.0, 7.0, len(cells))
    return Dataset(z, x, y, [f"u{i}" for i in range(len(cells))])


@pytest.mark.parametrize(
    "d", [_one_arm_per_length(), _arms_of_one_length()], ids=["lengths", "one-length"]
)
def test_arm_statistics_are_the_bits_of_one_arm_at_a_time(d):
    for markov in (False, True):
        for period in d.periods(markov):
            values = [period.values(g) for g in range(len(period.arms))]
            want = np.array([_mean_reference(v) for v in values])
            assert period.means.tobytes() == want.tobytes()
            # an arm listed several times, as shared controls are
            index = np.r_[np.arange(len(values)), np.arange(len(values))[::-1]]
            for mode in (VarianceMode.known(2.5), VarianceMode.estimated()):
                want = []
                for g in index.tolist():
                    try:
                        want.append(_mean_variance_reference(values[g], mode))
                    except EstimabilityError:
                        want.append(math.inf)
                got = _mean_variances(period, index, mode)
                assert got.tobytes() == np.array(want).tobytes()
    assert pooled_outcome_variance(d) == pooled_outcome_variance_reference(d)


def test_the_arm_statistics_panels_hold_the_lengths_they_name():
    (period,) = _one_arm_per_length().periods(False)
    assert period.counts.tolist() == ARM_LENGTHS + [9, 300]
    assert _mean_variances(period, np.arange(9), VarianceMode.estimated())[-2:].tolist() == [0.0, 0.0]
    assert set(_arms_of_one_length().periods(False)[1].counts.tolist()) == {129}
