"""End-to-end gate for the whole pipeline.

Nine checks, each asserting a stated tolerance or rate and printing one
line with the measured numbers. Reference values come from hand-coded
formulas in this file and in helpers.py, never from the code under test.
"""

import time
from collections import Counter

import numpy as np
import pytest

from seqeffects import (
    VarianceMode,
    causal_net_effects,
    compute_net_effects,
    extract_point_params,
    fit_net_effects,
    make_confounded_dgp,
    make_markov_dgp,
    make_null_proxy_dgp,
    make_pattern_dgp,
    make_sequential_dgp,
    net_effect_null_test,
    parse_dgp,
    parse_pattern,
    point_effect_targets,
    population_table,
    reconstruct_history_mean,
    resampling_diagnostic,
    saturated_pattern,
    simulate,
    standard_mean_equality_test,
)
from helpers import (
    dataset_from_cells,
    random_complete_table,
    random_two_period_cells,
    two_period_closed_form,
    walk_decomposition_gap,
)

THREE_GROUPS = """\
group first: when t == 1
group mid: when t == 2 and not (z[1] == 1 and x[1][1] == 1)
group last: when t == 2 and z[1] == 1 and x[1][1] == 1
"""

BY_PERIOD_T3 = """\
group one: when t == 1
group two: when t == 2
group three: when t == 3
"""


@pytest.fixture(scope="module")
def random_tables():
    rng = np.random.default_rng(101)
    return [random_complete_table(rng, [1, 2, 3][i % 3]) for i in range(200)]


def report(num, ok, detail):
    print(f"check {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_history_mean_roundtrip(random_tables):
    start = time.perf_counter()
    worst = 0.0
    for table in random_tables:
        params = extract_point_params(table)
        depth = 2 * table.horizon - 1
        for key, node in table.level(depth):
            err = abs(reconstruct_history_mean(params, table, key) - node.mean)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"roundtrip of 200 random tables, max leaf error {worst:.3e}, {elapsed:.2f}s",
    )


def test_02_decomposition_identity(random_tables):
    start = time.perf_counter()
    worst = 0.0
    for table in random_tables:
        worst = max(worst, walk_decomposition_gap(table, compute_net_effects(table).effects))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        2,
        ok,
        f"direct vs decomposed point effects on the same tables, "
        f"max gap {worst:.3e}, {elapsed:.2f}s",
    )


def test_03_pooled_fit_closed_forms():
    rng = np.random.default_rng(303)
    spec = parse_pattern("group one: when t == 1\ngroup two: when t == 2\n")
    worst = 0.0
    for i in range(100):
        cells = random_two_period_cells(rng)
        d = dataset_from_cells(cells)
        if i % 2 == 0:
            sigma2 = float(rng.uniform(0.5, 2.0))
            mode, oracle_sigma2 = VarianceMode.known(sigma2), sigma2
        else:
            mode, oracle_sigma2 = VarianceMode.estimated(), None
        fit = fit_net_effects(spec, d, mode)
        phi1, phi2, var1, var2, cov12 = two_period_closed_form(cells, oracle_sigma2)
        got = (
            fit.params[0],
            fit.params[1],
            fit.covariance[0, 0],
            fit.covariance[1, 1],
            fit.covariance[0, 1],
        )
        for a, b in zip(got, (phi1, phi2, var1, var2, cov12)):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst < 1e-12
    report(
        3,
        ok,
        f"two-period pooled fit vs hand formulas on 100 draws, "
        f"max relative gap {worst:.3e}",
    )


def three_group_closed_form(d, sigma2=None):
    """Hand-derived parameters and covariance of the three-group fit."""
    cells = {}
    for (z1, z2), x, y in zip(d.z.tolist(), d.x[:, 0, 0].tolist(), d.y.tolist()):
        cells.setdefault((z1, x, z2), []).append(y)

    def stats(sel):
        vals = np.concatenate([np.asarray(cells[c], dtype=float) for c in sel])
        v = (sigma2 if sigma2 is not None else np.var(vals, ddof=1)) / len(vals)
        return vals.mean(), v, len(vals)

    strata = [(0, 0), (0, 1), (1, 0), (1, 1)]
    theta = {}
    var = {}
    for s in strata:
        m1, v1, _ = stats([s + (1,)])
        m0, v0, _ = stats([s + (0,)])
        theta[s] = m1 - m0
        var[s] = v1 + v0
    mid = [(0, 0), (0, 1), (1, 0)]
    s_inv = sum(1.0 / var[s] for s in mid)
    phi_mid = sum(theta[s] / var[s] for s in mid) / s_inv
    v_mid = 1.0 / s_inv
    phi_last = theta[(1, 1)]
    v_last = var[(1, 1)]

    m1, v1, n1 = stats([(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)])
    m0, v0, n0 = stats([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
    theta1 = m1 - m0
    vt1 = v1 + v0
    # downstream landing shares of each second-period group, arm minus control
    d_mid = len(cells[(1, 0, 1)]) / n1 - (
        len(cells[(0, 0, 1)]) + len(cells[(0, 1, 1)])
    ) / n0
    d_last = len(cells[(1, 1, 1)]) / n1
    phi1 = theta1 - d_mid * phi_mid - d_last * phi_last
    params = np.array([phi1, phi_mid, phi_last])
    cov = np.array(
        [
            [vt1 + d_mid**2 * v_mid + d_last**2 * v_last, -d_mid * v_mid, -d_last * v_last],
            [-d_mid * v_mid, v_mid, 0.0],
            [-d_last * v_last, 0.0, v_last],
        ]
    )
    return params, cov


def test_04_reference_fixture_pipeline(dref):
    start = time.perf_counter()
    sat = fit_net_effects(saturated_pattern(dref), dref, VarianceMode.known(25.0))
    grouped_known = fit_net_effects(
        parse_pattern(THREE_GROUPS), dref, VarianceMode.known(25.0)
    )
    grouped_est = fit_net_effects(
        parse_pattern(THREE_GROUPS), dref, VarianceMode.estimated()
    )
    elapsed = time.perf_counter() - start

    sat_err = np.abs(sat.params - np.array([30, 20, 20, 20, -20])).max()
    grp_err = np.abs(grouped_known.params - np.array([30, 20, -20])).max()
    cov_err = 0.0
    for fit, sigma2 in ((grouped_known, 25.0), (grouped_est, None)):
        ref_params, ref_cov = three_group_closed_form(dref, sigma2)
        cov_err = max(
            cov_err,
            np.abs(fit.params - ref_params).max(),
            np.abs(fit.covariance - ref_cov).max(),
        )
    ok = sat_err < 1e-9 and grp_err < 1e-9 and cov_err < 1e-9 and elapsed < 1.0
    report(
        4,
        ok,
        f"fixture fits: saturated gap {sat_err:.2e}, grouped gap {grp_err:.2e}, "
        f"covariance vs hand formulas gap {cov_err:.2e}, {elapsed:.2f}s",
    )


def test_05_bias_and_consistency():
    start = time.perf_counter()
    dgp = make_pattern_dgp()
    spec = parse_pattern(BY_PERIOD_T3)
    mode = VarianceMode.known(100.0)
    truth = np.array([30.0, 20.0, -20.0])
    reps = 400
    estimates = {}
    for n, base_seed in ((500, 51000), (8000, 58000)):
        draws = np.empty((reps, 3))
        for r in range(reps):
            d = simulate(dgp, n, seed=base_seed + r)
            draws[r] = fit_net_effects(spec, d, mode).params
        estimates[n] = draws
    elapsed = time.perf_counter() - start

    bias_ok = True
    bias_detail = []
    for n, draws in estimates.items():
        bias = np.abs(draws.mean(axis=0) - truth)
        mc_se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        bias_ok &= bool((bias < 4 * mc_se).all())
        bias_detail.append(f"N={n} max|bias|/se {(bias / mc_se).max():.2f}")
    rmse_500 = np.sqrt(((estimates[500] - truth) ** 2).mean(axis=0))
    rmse_8000 = np.sqrt(((estimates[8000] - truth) ** 2).mean(axis=0))
    ratios = rmse_500 / rmse_8000
    ratio_ok = bool(((ratios > 3.3) & (ratios < 4.9)).all())
    ok = bias_ok and ratio_ok and elapsed < 120.0
    report(
        5,
        ok,
        f"{reps} replications: {'; '.join(bias_detail)}; "
        f"rmse ratios {np.round(ratios, 2).tolist()}; {elapsed:.1f}s",
    )


def test_06_target_covariance_structure(dref):
    start = time.perf_counter()
    rep = resampling_diagnostic(dref, reps=1000, seed=606, sigma2=25.0)
    elapsed = time.perf_counter() - start
    diff = np.abs(rep.empirical - rep.expected)
    off = ~np.eye(diff.shape[0], dtype=bool)
    ok = (
        rep.consistent
        and not rep.flagged_variances
        and not rep.flagged_covariances
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"1000 draws: max var gap {np.diag(diff).max():.3f}, "
        f"max cross-target gap {diff[off].max():.3f}, no flags, {elapsed:.1f}s",
    )


def test_07_forced_continuation_equivalence():
    start = time.perf_counter()
    plain_t2 = parse_dgp(
        "horizon: 2\nbase: 80\nsigma: 1\n"
        "assign when t == 1: 0.5\nassign: 0.4 + 0.2 * x[1][1]\n"
        "covariate: 0.3 + 0.4 * z[t]\n"
        "effect when t == 1: 12\neffect: 5\n"
    )
    worst = 0.0
    for dgp in (plain_t2, make_sequential_dgp()):
        observed = compute_net_effects(population_table(dgp))
        truth = causal_net_effects(dgp)
        for key, value in truth.items():
            worst = max(worst, abs(observed.effects[key] - value))

    confounded = make_confounded_dgp()
    truth = causal_net_effects(confounded)
    reps, n = 300, 600
    first = np.empty(reps)
    later = {key: np.empty(reps) for key in truth if key.time == 2}
    for r in range(reps):
        net = compute_net_effects(simulate(confounded, n, seed=7000 + r).table)
        first[r] = next(net.effects[k] for k in truth if k.time == 1)
        for key in later:
            later[key][r] = net.effects[key]
    truth1 = next(v for k, v in truth.items() if k.time == 1)
    se1 = first.std(ddof=1) / np.sqrt(reps)
    bias1 = abs(first.mean() - truth1)
    clean = all(
        abs(vals.mean() - truth[key]) < 4 * vals.std(ddof=1) / np.sqrt(reps)
        for key, vals in later.items()
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and bias1 > 4 * se1 and clean and elapsed < 60.0
    report(
        7,
        ok,
        f"exact laws max gap {worst:.2e}; tilted first arm bias {bias1:.2f} "
        f"({bias1 / se1:.0f} se), later arms clean; {elapsed:.1f}s",
    )


def test_08_last_step_pooling():
    start = time.perf_counter()
    dgp = make_markov_dgp(8)
    probe = simulate(dgp, 4000, seed=808)
    targets, skipped = point_effect_targets(probe)
    skip_n = Counter(key.time for key, _ in skipped)
    use_n = Counter(targets.times.tolist())
    share7 = skip_n[7] / (skip_n[7] + use_n[7])
    share8 = skip_n[8] / (skip_n[8] + use_n[8])
    infeasible = len(skipped) > 2000 and share7 > 0.5 and share8 > 0.75

    spec = parse_pattern("group early: when t == 1\ngroup late: when t >= 2\n")
    mode = VarianceMode.known(1.0)
    reps = 200
    draws = np.empty((reps, 2))
    for r in range(reps):
        d = simulate(dgp, 4000, seed=81000 + r)
        draws[r] = fit_net_effects(spec, d, mode, markov=True).params
    truth = np.array([25.0, 10.0])
    bias = np.abs(draws.mean(axis=0) - truth)
    mc_se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    recovered = bool((bias < 4 * mc_se).all())
    elapsed = time.perf_counter() - start
    ok = infeasible and recovered and elapsed < 180.0
    report(
        8,
        ok,
        f"unpooled: {len(skipped)} strata unusable, skipped share "
        f"t7 {share7:.2f} t8 {share8:.2f}; pooled recovery max|bias|/se "
        f"{(bias / mc_se).max():.2f} over {reps} replications; {elapsed:.1f}s",
    )


def test_09_null_level_and_proxy_power():
    start = time.perf_counter()
    dgp = make_null_proxy_dgp()
    reps, n, alpha = 500, 1000, 0.05
    net_rejects = 0
    std_rejects = 0
    mode = VarianceMode.estimated()
    for r in range(reps):
        d = simulate(dgp, n, seed=9000 + r)
        if net_effect_null_test(d, mode).p_value < alpha:
            net_rejects += 1
        if standard_mean_equality_test(d, mode).p_value < alpha:
            std_rejects += 1
    elapsed = time.perf_counter() - start
    net_rate = net_rejects / reps
    std_rate = std_rejects / reps
    band = 2 * np.sqrt(alpha * (1 - alpha) / reps)
    ok = abs(net_rate - alpha) <= band and std_rate > 0.9 and elapsed < 120.0
    report(
        9,
        ok,
        f"null rejection rates over {reps} draws: history-mean equality "
        f"{std_rate:.3f}, pooled contrast {net_rate:.3f} "
        f"(nominal {alpha} within {band:.3f}); {elapsed:.1f}s",
    )
