"""The per-period arm layout that every fit reads, against the trie.

A full-history arm at period t is a run of equal prefixes z1, ..., zt
among the records stably sorted by interleaved history. So targets and
downstream feature loads read off `Dataset.periods` must match the
enumeration they replaced: the same targets in the same order, holding
the records a prefix mask selects in that sort, and loads equal to a
walk over each arm's subtree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    downstream_walk,
    filled_load_rows,
    full_targets_reference,
    history_order,
    key_rows,
    prefix_mask,
    random_panel,
)
from seqeffects import StratumKey, VarianceMode, point_effect_targets
from seqeffects.patterns import _downstream_loads

panels = st.builds(
    random_panel,
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(1, 2),
    n=st.integers(6, 80),
    levels=st.sampled_from([2, 3]),
)


@settings(max_examples=100, deadline=None)
@given(d=panels)
def test_full_targets_match_the_trie(d):
    targets, skipped = point_effect_targets(d)
    want, want_skipped = full_targets_reference(d)
    assert skipped == want_skipped
    assert skipped.labels() == [key.label() for key, _ in want_skipped]
    assert list(zip(targets, targets.times.tolist())) == [(w[0], w[1]) for w in want]
    periods = d.periods(False)
    estimates = targets.estimates().tolist()
    known = targets.variances(VarianceMode.known(2.5)).tolist()
    estimated = targets.variances(VarianceMode.estimated()).tolist()
    for i, (_, _, arm, control) in enumerate(want):
        period = periods[targets.times[i] - 1]
        assert np.array_equal(period.values(targets.arms[i]), arm)
        assert np.array_equal(period.values(targets.controls[i]), control)
        assert estimates[i] == float(arm.mean()) - float(control.mean())
        assert known[i] == 2.5 / arm.size + 2.5 / control.size
        if min(arm.size, control.size) < 2:
            assert estimated[i] == np.inf
            continue
        ref_var = np.var(arm, ddof=1) / arm.size + np.var(control, ddof=1) / control.size
        assert abs(estimated[i] - ref_var) <= 1e-12 * max(1.0, ref_var)


@settings(max_examples=80, deadline=None)
@given(d=panels, size=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_full_loads_match_the_subtree_walk(d, size, seed):
    table = d.table
    rng = np.random.default_rng(seed)
    values = {
        key: rng.uniform(-50.0, 50.0, size)
        for depth in range(1, 2 * d.horizon, 2)
        for key, _ in table.level(depth)
        if key.arm() > 0
    }
    calls = []

    def value(key):
        calls.append(key)
        return values[key]

    periods = d.periods(False)
    loads = _downstream_loads(
        periods, lambda t, index: key_rows(periods[t - 1], index, value, size), size
    )
    targets, _ = point_effect_targets(d)
    # loads are indexed by (period, arm); only target arms and controls are filled
    columns = list(zip(targets, targets.times.tolist(), targets.arms, targets.controls))
    needed = {(t, int(g)) for _, t, a, c in columns for g in (a, c)}
    assert [load.shape for load in loads] == [(len(p.arms), size) for p in periods]
    assert filled_load_rows(loads) == needed
    for key, t, arm, control in columns:
        assert periods[t - 1].key(arm) == key
        assert periods[t - 1].key(control) == key.sibling(0)
    for t, g in needed:
        key = periods[t - 1].key(g)
        want = downstream_walk(table, table.require(key), key, values.__getitem__)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(loads[t - 1][g], want, rtol=0, atol=1e-12 * scale)
    needed = {periods[t - 1].key(g) for t, g in needed}
    # once per arm, and only at arms strictly below a target arm or control
    assert len(calls) == len(set(calls))
    for key in calls:
        zs, xs = key.treatments, key.covariates
        above = (StratumKey(zs[:s], xs[: s - 1]) for s in range(1, key.time))
        assert any(a in needed for a in above), key.label()


@settings(max_examples=60, deadline=None)
@given(d=panels)
def test_full_arms_list_their_records_in_history_order(d):
    table = d.table
    order = history_order(d)
    for t, period in enumerate(d.periods(False), start=1):
        keys = [period.key(g) for g in range(len(period.arms))]
        assert [key for key, _ in table.level(2 * t - 1)] == keys
        for g, key in enumerate(keys):
            mask = prefix_mask(d, key)
            assert np.array_equal(period.codes == g, mask)
            assert period.values(g).tobytes() == d.y[order[mask[order]]].tobytes()
