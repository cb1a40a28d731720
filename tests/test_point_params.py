from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqeffects import (
    EstimabilityError,
    IncompletenessError,
    StratumKey,
    extract_point_params,
    point_params,
    reconstruct_history_mean,
)
from helpers import (
    complete_histories,
    point_params_reference,
    random_complete_table,
    random_law_table,
    random_panel,
    reconstruct_history_mean_reference,
)


def test_small_fixture_parameters(d16):
    p = extract_point_params(d16.table)
    assert p.grand_mean == pytest.approx(123.125)
    te = {k.label(): v for k, v in p.treatment_effects.items()}
    assert te["z1=1"] == pytest.approx(16.25)
    assert te["z1=0 x1=0 z2=1"] == pytest.approx(20.0)
    assert te["z1=1 x1=1 z2=1"] == pytest.approx(-10.0)
    ce = {k.label(): v for k, v in p.covariate_effects.items()}
    assert ce["z1=0 x1=1"] == pytest.approx(10.0)
    assert ce["z1=1 x1=1"] == pytest.approx(2.5)


def test_leaf_reconstruction_is_exact(d16):
    p = extract_point_params(d16.table)
    for key, node in d16.table.level(3):
        rebuilt = reconstruct_history_mean(p, d16.table, key)
        assert rebuilt == pytest.approx(node.mean, abs=1e-12)


def test_roundtrip_on_random_tables():
    rng = np.random.default_rng(42)
    for horizon in (1, 2, 3):
        table = random_complete_table(rng, horizon)
        p = extract_point_params(table)
        depth = 2 * horizon - 1
        for key, node in table.level(depth):
            rebuilt = reconstruct_history_mean(p, table, key)
            assert abs(rebuilt - node.mean) < 1e-10


def test_parameters_vanish_on_a_flat_table():
    entries = {
        ((0, 0), ((0,),)): (0.2, 50.0),
        ((0, 1), ((0,),)): (0.3, 50.0),
        ((1, 0), ((0,),)): (0.1, 50.0),
        ((1, 1), ((0,),)): (0.4, 50.0),
    }
    from seqeffects import MeanTable

    p = extract_point_params(MeanTable.from_entries(2, 1, entries))
    assert p.grand_mean == pytest.approx(50.0)
    assert all(abs(v) < 1e-12 for v in p.treatment_effects.values())
    assert all(abs(v) < 1e-12 for v in p.covariate_effects.values())


def test_serialization_roundtrip(d16):
    p = extract_point_params(d16.table)
    blob = p.to_dict()
    assert blob["grand_mean"] == pytest.approx(123.125)
    assert {e["key"] for e in blob["treatment_effects"]} == {
        k.label() for k in p.treatment_effects
    }


def test_effects_key_on_arm_strata(d16):
    p = extract_point_params(d16.table)
    for key in p.treatment_effects:
        assert key.ends_with_treatment
        assert key.arm() > 0
    for key in p.covariate_effects:
        assert not key.ends_with_treatment


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EstimabilityError, IncompletenessError) as exc:
        return type(exc), str(exc)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 300),
    levels=st.sampled_from([2, 3]),
    drop=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_one_depth_loop_equals_the_two_half_reference(seed, horizon, width, n, levels, drop):
    panel = random_panel(seed, horizon, width, n, levels).table
    law = random_law_table(seed, horizon, width, levels, drop)
    rng = np.random.default_rng(seed)
    shape = complete_histories(horizon, width if horizon > 1 else 0, levels)
    for table in (panel, law):
        with mock.patch.object(point_params.log, "info") as info:
            params = extract_point_params(table)
        ref, skipped = point_params_reference(table)
        assert [c.args[0] % c.args[1:] for c in info.call_args_list] == skipped
        assert params.grand_mean == ref.grand_mean
        assert list(params.treatment_effects.items()) == list(ref.treatment_effects.items())
        assert list(params.covariate_effects.items()) == list(ref.covariate_effects.items())
        # every observed history, some unobserved ones, and a partial key
        histories = [key for key, _ in table.level(2 * horizon - 1)]
        histories += [StratumKey(*shape[i]) for i in rng.integers(0, len(shape), 10)]
        histories.append(StratumKey((0,), ()))
        for key in histories:
            got = _outcome(reconstruct_history_mean, params, table, key)
            assert got == _outcome(reconstruct_history_mean_reference, ref, table, key)
