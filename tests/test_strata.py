import numpy as np
import pytest

from seqeffects import (
    MarkovKey,
    StratumKey,
    UsageError,
    VarianceMode,
    point_effect_targets,
)


def test_variance_modes(d16):
    target = point_effect_targets(d16)[0][0]
    assert target.key == StratumKey((1,), ())
    # Both arms hold 8 records: sigma2 4 over 8 is 0.5 each. The arm z1=1
    # has sample variance 112.5 (14.0625 over 8), the control z1=0 has
    # squared deviations 1354 from its mean 115 (1354 / 7 over 8).
    assert target.variance(VarianceMode.known(4.0)) == pytest.approx(0.5 + 0.5)
    assert target.variance(VarianceMode.estimated()) == pytest.approx(14.0625 + 1354 / 56)


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
    for g, key in enumerate(period.keys):
        if key.parent_stratum() == StratumKey((1,), ((1,),)):
            idx.update(np.flatnonzero(period.codes == g).tolist())
    assert idx == {12, 13, 14, 15}
    for i in idx:
        assert d16.z[i, 0] == 1
        assert d16.x[i, 0].tolist() == [1]


def test_point_effect_targets_cover_every_arm(d16):
    targets, skipped = point_effect_targets(d16)
    labels = [t.key.label() for t in targets]
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
    by_label = {t.key.label(): t for t in targets}
    known = VarianceMode.known(1.0)
    assert by_label["z1=1"].estimate == pytest.approx(16.25)
    assert by_label["z1=1"].variance(known) == pytest.approx(0.25)
    assert by_label["z1=0 x1=0 z2=1"].estimate == pytest.approx(20.0)
    assert by_label["z1=1 x1=1 z2=1"].estimate == pytest.approx(-10.0)
    assert by_label["z1=1 x1=0 z2=1"].variance(known) == pytest.approx(1 / 3 + 1)
    assert skipped == []


def test_markov_targets_pool_histories(d16):
    targets, skipped = point_effect_targets(d16, markov=True)
    labels = [t.key.label() for t in targets]
    assert labels[0] == "z1=1"
    assert all("pooled" in lab for lab in labels[1:])
    assert all(isinstance(t.key, MarkovKey) for t in targets[1:])
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
    target_labels = [t.key.label() for t in targets]
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
