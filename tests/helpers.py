"""Builders and hand-coded reference formulas shared across the tests.

Everything here is deliberately independent of the library internals:
reference values are computed straight from record arrays or cell
dictionaries so that agreement with the package is evidence, not
circularity.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import strategies as st

from seqeffects import (
    CoverageError,
    Dataset,
    DomainError,
    EstimabilityError,
    IncompletenessError,
    MarkovKey,
    MeanTable,
    NetEffectTable,
    ParseError,
    PointParams,
    ResamplingReport,
    StratumKey,
    UsageError,
    downstream_weighted_sum,
    point_effect_targets,
)
from seqeffects.dataset import _parse_header
from seqeffects.estimation import FlaggedPair
from seqeffects.exprlang import compile_expr
from seqeffects.patterns import PatternGroup, PatternSpec, _downstream_loads, _unidentified
from seqeffects.simulator import (
    _assignment_prob,
    _kernel_dist,
    _sample_ids,
    _spread_offsets,
)
from seqeffects.tables import TableNode, sort_histories


# Effects 5 at periods 1 and 2 and 20 at period 3: a group of each of the
# first two periods merges, and so does a group of each part of period 3.
TWO_LEVEL_DGP = """\
horizon: 3
sigma: 1
assign: 0.5
covariate: 0.5
effect when t <= 2: 5
effect: 20
"""


@st.composite
def rule_files(draw, horizons=st.integers(1, 4), latents=st.booleans()):
    """Random rule files whose assignment stays inside (0, 1) and whose
    covariate probability stays inside [0, 1]: every law they describe
    is valid. Effects read only the treatment and covariate before their
    own period (and u). With a latent class, rules may read u, and the
    latent lines may come after the rules. Returns (text, latent)."""
    horizon = draw(horizons)
    latent = draw(latents)
    reads = ["z[t-1]", "x[t-1][1]"] + (["u"] if latent else [])
    conditions = ["t == 1", "t >= 2", "z[t-1] == 1", "x[t-1][1] == 0"]
    conditions += ["u == 1"] if latent else []

    def hundredths(lo, hi):
        return draw(st.integers(lo, hi)) / 100

    def linear(base, coef, names, terms):
        text = f"{hundredths(*base)}"
        for name in draw(st.lists(st.sampled_from(names), max_size=terms, unique=True)):
            text += f" + {hundredths(*coef)} * {name}"
        return text

    def rules(kind, value, default):
        out = []
        for condition in draw(st.lists(st.sampled_from(conditions), max_size=2)):
            out.append(f"{kind} when {condition}: {value()}")
        if default or draw(st.booleans()):
            out.append(f"{kind}: {value()}")
        return out

    lines = rules("assign", lambda: linear((35, 65), (-15, 15), reads, 2), True)
    lines += rules("covariate", lambda: linear((20, 80), (-20, 20), reads + ["z[t]"], 1), False)
    lines += rules("effect", lambda: linear((-3000, 3000), (-1000, 1000), reads, 2), False)
    scalars = [f"horizon: {horizon}", f"base: {hundredths(-5000, 5000)}"]
    if latent:
        latent_lines = [f"latent prob: {hundredths(5, 95)}"]
        if draw(st.booleans()):
            latent_lines.append(f"latent shift: {hundredths(-1000, 1000)}")
        if draw(st.booleans()):
            lines += latent_lines
        else:
            scalars += latent_lines
    return "\n".join(scalars + lines) + "\n", latent


def complete_histories(horizon, covariate_width, levels=2):
    """All full (z, x) histories for the given shape: treatment codes
    0..levels-1, binary covariates."""
    histories = [((), ())]
    for t in range(1, horizon + 1):
        histories = [(zs + (z,), xs) for zs, xs in histories for z in range(levels)]
        if t < horizon:
            cells = list(itertools.product((0, 1), repeat=covariate_width))
            histories = [(zs, xs + (vec,)) for zs, xs in histories for vec in cells]
    return histories


def _history_arrays(histories, horizon, width):
    """The (z, x) record arrays of a list of (treatments, covariates) pairs."""
    n = len(histories)
    z = np.array([h[0] for h in histories], dtype=np.int64).reshape(n, horizon)
    x = np.array([h[1] for h in histories], dtype=np.int64).reshape(n, horizon - 1, width)
    return z, x


def law_table(horizon, width, rows):
    """An exact table through the library's one builder: each row
    (z, x, prob, mean), or each {(z, x): (prob, mean)} item, is one record
    weighted by its probability."""
    if isinstance(rows, dict):
        rows = [(zs, xs, p, m) for (zs, xs), (p, m) in rows.items()]
    z, x = _history_arrays([r[:2] for r in rows], horizon, width)
    probs = np.array([r[2] for r in rows], dtype=float)
    means = np.array([r[3] for r in rows], dtype=float)
    return MeanTable.from_arrays(z, x, means, probs)


def random_complete_table(rng, horizon, covariate_width=1):
    """A random table with every binary history present.

    Masses are a Dirichlet draw so they sum to one exactly; means are
    uniform on a wide interval so no contrast degenerates.
    """
    width = 0 if horizon == 1 else covariate_width
    histories = complete_histories(horizon, width)
    probs = rng.dirichlet(np.ones(len(histories)))
    entries = {
        h: (float(p), float(rng.uniform(-40.0, 160.0)))
        for h, p in zip(histories, probs)
    }
    return law_table(horizon, width, entries)


def random_law_table(seed, horizon, covariate_width=1, levels=2, drop=0.0):
    """A random exact law over the histories of `complete_histories`, each
    dropped with probability `drop` (one is always kept), so that strata
    may lack their control arm or zero covariate vector."""
    rng = np.random.default_rng(seed)
    width = 0 if horizon == 1 else covariate_width
    histories = complete_histories(horizon, width, levels)
    kept = [h for h in histories if rng.random() >= drop] or histories[:1]
    probs = rng.dirichlet(np.ones(len(kept)))
    entries = {h: (float(p), float(rng.uniform(-40.0, 160.0))) for h, p in zip(kept, probs)}
    return law_table(horizon, width, entries)


def random_law_rows(seed, horizon, covariate_width=1, levels=2, drop=0.0, dyadic=False):
    """A random law as weighted rows (z, x, prob, mean) in shuffled order,
    each kept history split over 1-3 rows, as latent classes split it.

    With `dyadic`, probabilities are multiples of 2**-20 and a history's
    rows share one mean, a multiple of 1/4, so every mass, sum and mean
    the builders form is exact whatever the order of summation.
    """
    rng = np.random.default_rng(seed)
    width = 0 if horizon == 1 else covariate_width
    histories = complete_histories(horizon, width, levels)
    kept = [h for h in histories if rng.random() >= drop] or histories[:1]
    rows = []
    for zs, xs in kept:
        shared = float(rng.integers(-160, 640)) / 4
        for _ in range(int(rng.integers(1, 4))):
            rows.append([zs, xs, 0.0, shared if dyadic else float(rng.uniform(-40.0, 160.0))])
    if dyadic:
        counts = 1 + rng.multinomial(2**20 - len(rows), np.full(len(rows), 1 / len(rows)))
        probs = counts / 2**20
    else:
        probs = rng.dirichlet(np.ones(len(rows)))
    for row, p in zip(rows, probs):
        row[2] = float(p)
    return [tuple(rows[i]) for i in rng.permutation(len(rows))]


def merge_law_rows_reference(rows):
    """{(z, x): (prob, mean)} merging the rows of each history, as
    `population_table` merged a law's latent classes before its support
    cells entered the builder as weighted records."""
    merged = {}
    for zs, xs, prob, mean in rows:
        p, wsum = merged.get((zs, xs), (0.0, 0.0))
        merged[(zs, xs)] = (p + prob, wsum + prob * mean)
    return {key: (p, wsum / p) for key, (p, wsum) in sorted(merged.items())}


def population_table_reference(dgp):
    """A law's exact table merged history by history, then built one key
    at a time: the `population_table` that weighted records replaced."""
    rows = [cell[1:] for cell in enumerate_support_reference(dgp)]
    return table_from_entries_reference(
        dgp.horizon, dgp.covariate_width, merge_law_rows_reference(rows)
    )


def table_from_entries_reference(horizon, covariate_width, entries):
    """The exact-table builder that weighted records in
    `MeanTable.from_arrays` replaced: walk {(z_tuple, x_tuples): (prob,
    mean)} one history at a time, accumulating masses and sums on the way
    down, then sort every node's children."""
    width = covariate_width
    root = TableNode(0.0, 0.0)
    total = 0.0
    for (zs, xs), (prob, mean) in entries.items():
        zs = tuple(int(v) for v in zs)
        xs = tuple(tuple(int(v) for v in vec) for vec in xs)
        if len(zs) != horizon or len(xs) != horizon - 1:
            raise UsageError(f"history {zs}/{xs} does not match horizon {horizon}")
        if any(len(vec) != width for vec in xs):
            raise UsageError("covariate vector width mismatch")
        if not prob > 0.0:
            raise DomainError(f"history {zs}/{xs} has non-positive probability")
        if not np.isfinite(mean):
            raise DomainError(f"history {zs}/{xs} has non-finite mean")
        total += prob
        contrib = prob * mean
        node = root
        node.mass += prob
        node.ysum += contrib
        key = StratumKey(zs, xs)
        for sym in key.symbols():
            node = node.children.setdefault(sym, TableNode(0.0, 0.0))
            node.mass += prob
            node.ysum += contrib
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"history probabilities sum to {total!r}, expected 1")

    def sort_children(node):
        node.children = dict(sorted(node.children.items()))
        for child in node.children.values():
            sort_children(child)

    sort_children(root)
    return MeanTable(horizon, width, root)


def assert_close_trie(a, b, rtol=1e-12):
    """Node for node: the same children in the same order, and masses and
    means within `rtol` relative."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        assert p.mass == pytest.approx(q.mass, rel=rtol, abs=0.0)
        assert p.mean == pytest.approx(q.mean, rel=rtol, abs=0.0)
        assert list(p.children) == list(q.children)
        stack.extend(zip(p.children.values(), q.children.values()))


def downstream_walk(table, node, key, value_fn):
    """Reference downstream load: walk the whole subtree below one arm.

    Adds value_fn(descendant key) times the descendant's share of the
    arm's mass for every active arm below it, one continuation at a time.
    This is the per-target walk the library's memoized kernel replaced.
    """
    total = 0.0
    stack = [(node, key)]
    while stack:
        cur, cur_key = stack.pop()
        for vec, xnode in cur.children.items():
            xkey = cur_key.with_covariate(vec)
            for z, gnode in xnode.children.items():
                gkey = xkey.with_treatment(z)
                if z > 0:
                    total = total + value_fn(gkey) * (gnode.mass / node.mass)
                stack.append((gnode, gkey))
    return total


def walk_decomposition_gap(table, effects):
    """Worst |direct - decomposed| point effect, loads by the reference walk.

    The decomposition adds to each net effect in ``effects`` the
    arm-vs-control difference in downstream net-effect load, walked
    target by target with `downstream_walk`, and compares it with the
    raw arm contrast of stored means.
    """
    worst = 0.0
    for key, effect in effects.items():
        control_key = key.sibling(0)
        arm, control = table.require(key), table.require(control_key)
        decomposed = (
            effect
            + downstream_walk(table, arm, key, effects.__getitem__)
            - downstream_walk(table, control, control_key, effects.__getitem__)
        )
        worst = max(worst, abs(table.mean(key) - table.mean(control_key) - decomposed))
    return worst


def random_panel(seed, horizon, width, n, levels):
    """n records with uniform treatment codes 0..levels-1 and binary covariates."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, levels, size=(n, horizon))
    x = rng.integers(0, 2, size=(n, horizon - 1, width))
    y = rng.normal(50.0, 10.0, size=n)
    return Dataset(z, x, y, [f"r{i}" for i in range(n)])


def history_order(d):
    """Record indices in a stable sort by interleaved history z1, x1, ..., zT."""
    cols = []
    for t in range(d.horizon):
        cols.append(d.z[:, t])
        if t < d.horizon - 1:
            cols.extend(d.x[:, t].T)
    return np.lexsort(cols[::-1])


def prefix_mask(d, key):
    """Which records' histories start with the full-history prefix `key`."""
    t = key.time
    mask = np.all(d.z[:, :t] == key.treatments, axis=1)
    if t > 1:
        mask &= np.all(d.x[:, : t - 1] == np.array(key.covariates), axis=(1, 2))
    return mask


def full_targets_reference(d):
    """Full-history targets: every active arm of the trie against its
    stratum's control, each holding the outcomes of the records a prefix
    mask selects, listed in the stable history sort. This is the
    enumeration that the per-period arm layout replaced. Returns
    (targets, skipped), targets as (key, time, arm values, control values)."""
    table = d.table
    order = history_order(d)
    targets, skipped = [], []
    for t in range(1, d.horizon + 1):
        for pkey, pnode in table.level(2 * (t - 1)):
            for z in sorted(pnode.children):
                if z == 0:
                    continue
                akey = pkey.with_treatment(z)
                if 0 not in pnode.children:
                    skipped.append((akey, "control arm unobserved"))
                    continue
                arm, control = (
                    d.y[order[prefix_mask(d, key)[order]]]
                    for key in (akey, akey.sibling(0))
                )
                targets.append((akey, t, arm, control))
    return targets, skipped


def _mean_reference(values):
    """An arm mean as one reduction of the arm's outcomes over its count."""
    return float(np.add.reduce(values) / values.size)


def _mean_variance_reference(values, mode):
    """var{arm mean} of one arm; EstimabilityError when not estimable."""
    n = values.size
    if mode.kind == "known":
        return mode.sigma2 / n
    if n < 2:
        raise EstimabilityError("estimated mean variance needs at least 2 records")
    if values.min() == values.max():
        return 0.0
    mean = _mean_reference(values)
    return float(((values - mean) ** 2).sum()) / (n * (n - 1))


@dataclass
class PointEffectTarget:
    """One target as an object: an active arm of `period` against its
    stratum's control arm, each read and reduced on its own. This is the
    per-target form that the library's target arrays replaced."""

    period: object
    arm: int
    control: int

    @property
    def key(self):
        return self.period.key(self.arm)

    @property
    def time(self):
        return self.period.time

    @property
    def arm_values(self):
        return self.period.values(self.arm)

    @property
    def control_values(self):
        return self.period.values(self.control)

    @property
    def arm_count(self):
        return self.arm_values.size

    @property
    def control_count(self):
        return self.control_values.size

    @property
    def estimate(self):
        return _mean_reference(self.arm_values) - _mean_reference(self.control_values)

    def mean_variances(self, mode):
        """(var{arm mean}, var{control mean}), inf where not estimable."""
        out = []
        for values in (self.arm_values, self.control_values):
            try:
                out.append(_mean_variance_reference(values, mode))
            except EstimabilityError:
                out.append(math.inf)
        return tuple(out)

    def variance(self, mode):
        """var{arm mean} + var{control mean}; inf when not estimable."""
        try:
            va = _mean_variance_reference(self.arm_values, mode)
            vc = _mean_variance_reference(self.control_values, mode)
        except EstimabilityError:
            return math.inf
        return va + vc


def point_effect_targets_reference(d, markov=False):
    """Every active arm with a control arm, as a PointEffectTarget, in
    period and then arm order."""
    return [
        PointEffectTarget(period, g, int(period.control[g]))
        for period in d.periods(markov)
        for g in np.flatnonzero((period.arms > 0) & (period.control >= 0)).tolist()
    ]


def null_test_blocks_reference(d, variance_mode):
    """The null test's (statistic, df), summed over a dict of target
    blocks keyed by (time, control) and filled one target at a time, as
    the library summed it before its targets were arrays."""
    blocks = {}
    for target in point_effect_targets_reference(d):
        var = target.variance(variance_mode)
        if math.isfinite(var) and var > 0.0:
            blocks.setdefault((target.time, target.control), []).append((target, var))
    q = 0.0
    m = 0
    for block in blocks.values():
        if len(block) == 1:
            target, var = block[0]
            q += target.estimate**2 / var
            m += 1
            continue
        arms = [_mean_variance_reference(t.arm_values, variance_mode) for t, _ in block]
        control = _mean_variance_reference(block[0][0].control_values, variance_mode)
        cov = np.diag(arms) + control
        e = np.array([t.estimate for t, _ in block])
        q += float(e @ np.linalg.pinv(cov, hermitian=True) @ e)
        m += int(np.linalg.matrix_rank(cov, hermitian=True))
    if m == 0:
        raise EstimabilityError("no target has a usable variance")
    return q, m


def expected_covariance_blocks_reference(d, sigma2=1.0):
    """The expected target covariance filled from a dict of blocks keyed
    by (time, control), as the library filled it before its targets were
    arrays. Returns (targets, matrix)."""
    targets = point_effect_targets_reference(d)
    m = len(targets)
    blocks = {}
    for i, t in enumerate(targets):
        blocks.setdefault((t.time, t.control), []).append(i)
    cov = np.zeros((m, m))
    for members in blocks.values():
        if len(members) > 1:
            cov[np.ix_(members, members)] = sigma2 / targets[members[0]].control_count
    arm_counts = np.array([t.arm_count for t in targets], dtype=float)
    control_counts = np.array([t.control_count for t in targets], dtype=float)
    cov[np.diag_indices(m)] = sigma2 * (1.0 / arm_counts + 1.0 / control_counts)
    return targets, cov


def resampled_estimates_reference(d, reps, seed, sigma2):
    """The (reps, targets) array of resampled target estimates, with one
    mean column per record span from a dict of spans filled one target at
    a time, as the resampling diagnostic took them before its targets
    were arrays. Every replication is one row of one block."""
    targets = point_effect_targets_reference(d)
    cells = d.periods(False)[-1]
    means = [_mean_reference(cells.values(g)) for g in range(len(cells.arms))]
    mu = np.repeat(means, np.diff(cells.bounds))
    spans = {}

    def column(bounds, g):
        return spans.setdefault((int(bounds[g]), int(bounds[g + 1])), len(spans))

    arm_cols = np.array([column(t.period.bounds, t.arm) for t in targets], dtype=int)
    control_cols = np.array([column(t.period.bounds, t.control) for t in targets], dtype=int)
    y = np.empty((reps, d.n_records))
    for r, row in enumerate(y):
        np.random.default_rng([seed, r]).standard_normal(out=row)
        row *= math.sqrt(sigma2)
        row += mu
    col_means = np.empty((reps, len(spans)))
    for (lo, hi), c in spans.items():
        col_means[:, c] = y[:, lo:hi].mean(axis=1)
    return col_means[:, arm_cols] - col_means[:, control_cols]


def eager_period_keys(d, markov):
    """Every arm key of every period, built up front from the records: the
    distinct signatures of each period sorted as integer tuples, which is
    the order of the arms. A full-history signature at t is the prefix
    z1, x1, ..., zt; a pooled one at t > 1 is (z[t-1], x[t-1], z[t])."""
    step = 1 + d.covariate_width
    out = []
    for t in range(1, d.horizon + 1):
        if markov and t > 1:
            cols = [d.z[:, t - 2], *d.x[:, t - 2].T, d.z[:, t - 1]]
        else:
            cols = []
            for s in range(t):
                cols.append(d.z[:, s])
                if s < t - 1:
                    cols.extend(d.x[:, s].T)
        sigs = sorted(set(zip(*(c.tolist() for c in cols))))
        if markov and t > 1:
            out.append([MarkovKey(t, s[0], s[1:-1], s[-1]) for s in sigs])
        else:
            out.append(
                [
                    StratumKey(s[::step], tuple(s[i + 1 : i + step] for i in range(0, len(s) - 1, step)))
                    for s in sigs
                ]
            )
    return out


def label_reference(key):
    """A key's label, formatted one symbol at a time."""
    if isinstance(key, MarkovKey):
        t = key.time
        vec = ",".join(str(v) for v in key.prev_covariate)
        return f"z{t - 1}={key.prev_treatment} x{t - 1}={vec} z{t}={key.treatment} pooled"
    if key.depth == 0:
        return "(all)"
    parts = []
    for i, z in enumerate(key.treatments):
        parts.append(f"z{i + 1}={z}")
        if i < len(key.covariates):
            vec = ",".join(str(v) for v in key.covariates[i])
            parts.append(f"x{i + 1}={vec}")
    return " ".join(parts)


def filled_load_rows(loads):
    """(period, arm) of every row of `_downstream_loads` output that holds a
    load; the other rows are NaN."""
    return {
        (t, g)
        for t, load in enumerate(loads, start=1)
        for g in np.flatnonzero(~np.isnan(load).all(axis=1)).tolist()
    }


def key_rows(period, index, feature, k):
    """An (arms, k) block of `period` holding, in arm order, the feature
    rows `feature(key)` of the arms `index`, one key at a time; the other
    rows are NaN. This is the per-key feature loop that the period
    evaluation replaced."""
    block = np.full((len(period.arms), k), np.nan)
    for g in np.asarray(index).tolist():
        block[g] = feature(period.key(g))
    return block


def constraint_rows_reference(spec, d, variance_mode, markov=False):
    """Constraint rows one target at a time, as `build_constraints` once
    built them: a (key, time, coefficients, estimate, variance, weight,
    note) tuple per target, in target order. Feature rows come one key at
    a time, in the order the fit asks for them, each key once; a skipped
    arm no group covers raises `build_constraints`'s EstimabilityError.
    The coefficients are the target's feature row plus its arm's
    downstream load minus its control's; the weight is 1 / variance, or 0
    with a note when the variance is not finite and positive. Returns the
    rows and the features evaluated, by key."""
    targets = point_effect_targets_reference(d, markov=markov)
    _, skipped = point_effect_targets(d, markov=markov)
    skipped_keys = {key for key, _ in skipped}
    features = {}

    def feature(key):
        if key not in features:
            try:
                features[key] = spec.feature_row(key, d.horizon)
            except CoverageError:
                if key not in skipped_keys:
                    raise
                raise _unidentified(key, skipped) from None
        return features[key]

    periods = d.periods(markov)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        loads = _downstream_loads(
            periods,
            lambda t, index: key_rows(periods[t - 1], index, feature, spec.size),
            spec.size,
        )
        for target in targets:
            load = loads[target.time - 1]
            coeff = feature(target.key) + load[target.arm] - load[target.control]
            variance = target.variance(variance_mode)
            weight = 0.0
            note = None
            if not np.isfinite(variance):
                note = "variance not estimable (each arm needs at least 2 records)"
            elif variance <= 0.0:
                note = "zero variance estimate"
            else:
                weight = 1.0 / variance
            rows.append(
                (target.key, target.time, coeff, target.estimate, variance, weight, note)
            )
    return rows, features


def constant_arm_panel(value, seed=5):
    """Two periods, binary z1, x1 and z2, three records per cell. Both arms
    of stratum z1=0, x1=0 hold `value` in every record; the other cells
    draw y = z1 + 0.5 z2 + N(0, 0.5^2)."""
    rng = np.random.default_rng(seed)
    cells = [c for c in itertools.product((0, 1), repeat=3) for _ in range(3)]
    z = np.array([(z1, z2) for z1, _, z2 in cells])
    x = np.array([x1 for _, x1, _ in cells]).reshape(-1, 1, 1)
    y = z[:, 0] + 0.5 * z[:, 1] + rng.normal(0.0, 0.5, len(cells))
    y[(z[:, 0] == 0) & (x[:, 0, 0] == 0)] = value
    return Dataset(z, x, y, [f"u{i}" for i in range(len(cells))])


def pooled_outcome_variance_reference(d):
    """Within-cell outcome variance, one leaf of the trie at a time.

    Each full-history cell's records come from a prefix mask, in record
    order. This is the leaf loop that reading the period-T arms replaced.
    """
    leaves = d.table.level(2 * d.horizon - 1)
    n = d.n_records
    if n <= len(leaves):
        raise EstimabilityError("pooled variance needs more records than occupied cells")
    ssw = 0.0
    for key, node in leaves:
        seg = d.y[prefix_mask(d, key)]
        ssw += float(np.sum((seg - node.derived_mean) ** 2))
    return ssw / (n - len(leaves))


def standard_mean_equality_reference(d, variance_mode):
    """Classical equal-means test statistic and df, one record at a time.

    Groups the records into covariate profiles and treatment paths with
    dicts of lists, as the library did before it grouped with arrays.
    Returns (statistic, df); raises EstimabilityError where it must.
    """
    profiles = {}
    for i in range(d.n_records):
        covariates = tuple(tuple(int(v) for v in vec) for vec in d.x[i])
        p = profiles.setdefault(covariates, {})
        p.setdefault(tuple(int(v) for v in d.z[i]), []).append(float(d.y[i]))
    between = 0.0
    df = 0
    ssw = 0.0
    n_cells = 0
    n_total = 0
    for cells in profiles.values():
        counts = {c: len(v) for c, v in cells.items()}
        means = {c: sum(v) / counts[c] for c, v in cells.items()}
        total = sum(counts.values())
        if len(cells) >= 2:
            pooled = sum(counts[c] * means[c] for c in cells) / total
            between += sum(counts[c] * (means[c] - pooled) ** 2 for c in cells)
            df += len(cells) - 1
        n_cells += len(cells)
        n_total += total
        for c, values in cells.items():
            ssw += sum((v - means[c]) ** 2 for v in values)
    if df == 0:
        raise EstimabilityError("no covariate profile holds two treatment groups")
    if variance_mode.kind == "known":
        return between / variance_mode.sigma2, df
    if n_total <= n_cells:
        raise EstimabilityError("pooled variance needs more records than cells")
    return between / (ssw / (n_total - n_cells)), df


def expected_covariance_reference(d, sigma2=1.0):
    """Model-implied target covariance, one pair of targets at a time.

    Two targets covary, by the control-mean variance, exactly when they
    share a parent stratum. This is the double loop the library's
    block-by-block fill replaced. Returns (targets, matrix).
    """
    targets = point_effect_targets_reference(d)
    m = len(targets)
    cov = np.zeros((m, m))
    for i, t in enumerate(targets):
        cov[i, i] = sigma2 * (1.0 / t.arm_count + 1.0 / t.control_count)
        for j in range(i + 1, m):
            other = targets[j]
            if (
                t.time == other.time
                and t.key.parent_stratum() == other.key.parent_stratum()
            ):
                cov[i, j] = cov[j, i] = sigma2 / t.control_count
    return targets, cov


def null_statistic_reference(d, variance_mode):
    """The null test's statistic e' V^-1 e and its degrees of freedom, from
    one dense covariance over every target with a finite positive variance.

    Arm and control mean variances come from numpy's ddof=1 variance (or
    sigma^2 / n); two targets covary, by the control-mean variance, when
    they share a parent stratum. This is the joint statistic that the
    library's block-by-block sum must equal.
    """

    def mean_var(values):
        if variance_mode.kind == "known":
            return variance_mode.sigma2 / values.size
        if values.size < 2:
            return math.inf
        return float(np.var(values, ddof=1)) / values.size

    usable = []
    for t in point_effect_targets_reference(d):
        va, vc = mean_var(t.arm_values), mean_var(t.control_values)
        if math.isfinite(va + vc) and va + vc > 0.0:
            usable.append((t, va, vc))
    m = len(usable)
    cov = np.zeros((m, m))
    for i, (t, va, vc) in enumerate(usable):
        cov[i, i] = va + vc
        for j in range(i + 1, m):
            other = usable[j][0]
            if t.time == other.time and t.key.parent_stratum() == other.key.parent_stratum():
                cov[i, j] = cov[j, i] = vc
    e = np.array([float(t.arm_values.mean() - t.control_values.mean()) for t, _, _ in usable])
    return float(e @ np.linalg.solve(cov, e)), m


def resampling_reference(d, reps, seed, sigma2, notes=()):
    """Resampling diagnostic with one replication and one target at a time.

    Redraws outcomes as ``mu + sigma * standard_normal(n)`` from the seed
    stream ``(seed, r)``, re-forms every target from the records its
    prefix masks select, and flags
    pairs one at a time. This is the reps-by-targets loop the library's
    blocked version replaced; ``notes`` are passed through to the report.
    Needs reps >= 2 and at least one target.
    """
    targets, expected = expected_covariance_reference(d, sigma2)
    m = len(targets)
    n = d.n_records
    # Outcomes are redrawn at the records' positions in the stable
    # history sort, and every arm mean runs over them in that order.
    order = history_order(d)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    mu = np.empty(n)
    for key, leaf in d.table.level(2 * d.horizon - 1):
        mu[position[prefix_mask(d, key)]] = leaf.derived_mean
    sigma = math.sqrt(sigma2)
    spans = [
        [np.sort(position[prefix_mask(d, key)]) for key in (t.key, t.key.sibling(0))]
        for t in targets
    ]
    est = np.empty((reps, m))
    for r in range(reps):
        rng = np.random.default_rng([seed, r])
        y = mu + sigma * rng.standard_normal(n)
        for j, (arm, control) in enumerate(spans):
            est[r, j] = y[arm].mean() - y[control].mean()
    empirical = np.cov(est, rowvar=False).reshape(m, m)
    flagged_var = []
    flagged_cov = []
    for i in range(m):
        mc_se = expected[i, i] * math.sqrt(2.0 / (reps - 1))
        if abs(empirical[i, i] - expected[i, i]) > 3.0 * mc_se:
            flagged_var.append(FlaggedPair(i, i, empirical[i, i], expected[i, i], mc_se))
        for j in range(i + 1, m):
            mc_se = math.sqrt(
                (expected[i, i] * expected[j, j] + expected[i, j] ** 2) / (reps - 1)
            )
            if abs(empirical[i, j] - expected[i, j]) > 4.0 * mc_se:
                flagged_cov.append(
                    FlaggedPair(i, j, empirical[i, j], expected[i, j], mc_se)
                )
    labels = [t.key.label() for t in targets]
    return ResamplingReport(
        labels, reps, seed, sigma2, expected, empirical, flagged_var, flagged_cov,
        list(notes),
    )


def dataset_from_cells(cells):
    """Build a two-period dataset from {(z1, x1, z2): outcome list}."""
    z, x, y = [], [], []
    for (z1, x1, z2), outcomes in sorted(cells.items()):
        for val in outcomes:
            z.append((z1, z2))
            x.append(((x1,),))
            y.append(float(val))
    ids = [f"u{i:05d}" for i in range(len(y))]
    return Dataset(np.array(z), np.array(x), np.array(y), ids)


def random_two_period_cells(rng, lo=2, hi=6):
    """Random outcomes for every (z1, x1, z2) cell, each with >= lo records."""
    cells = {}
    for z1 in (0, 1):
        for x1 in (0, 1):
            for z2 in (0, 1):
                n = int(rng.integers(lo, hi + 1))
                cells[(z1, x1, z2)] = rng.normal(rng.uniform(-20, 120), 5.0, size=n)
    return cells


def two_period_closed_form(cells, sigma2=None):
    """Hand-derived pooled fit for T=2 with one group per period.

    The second-period effect is the inverse-variance weighted mean of the
    four stratum contrasts; the first-period effect subtracts from the
    raw first-period contrast the pooled effect times the shift in the
    second-period treatment share between the two first-period arms.
    With ``sigma2`` set the cell-mean variances are sigma2/n, otherwise
    the sample variance (ddof=1) over n.

    Returns (phi1, phi2, var1, var2, cov12).
    """

    def cell_stats(sel):
        vals = np.concatenate([np.asarray(cells[c], dtype=float) for c in sel])
        n = len(vals)
        if sigma2 is not None:
            v = sigma2 / n
        else:
            v = np.var(vals, ddof=1) / n
        return vals.mean(), v, n

    theta2, v2 = [], []
    for z1 in (0, 1):
        for x1 in (0, 1):
            m_arm, v_arm, _ = cell_stats([(z1, x1, 1)])
            m_ctl, v_ctl, _ = cell_stats([(z1, x1, 0)])
            theta2.append(m_arm - m_ctl)
            v2.append(v_arm + v_ctl)
    theta2 = np.array(theta2)
    v2 = np.array(v2)
    s_inv = float(np.sum(1.0 / v2))
    phi2 = float(np.sum(theta2 / v2) / s_inv)
    var2 = 1.0 / s_inv

    m1_arm, v1_arm, n1 = cell_stats([(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)])
    m1_ctl, v1_ctl, n0 = cell_stats([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
    theta1 = m1_arm - m1_ctl
    v1 = v1_arm + v1_ctl

    n_arm_treated = sum(len(cells[(1, x1, 1)]) for x1 in (0, 1))
    n_ctl_treated = sum(len(cells[(0, x1, 1)]) for x1 in (0, 1))
    delta_pr = n_arm_treated / n1 - n_ctl_treated / n0

    phi1 = theta1 - phi2 * delta_pr
    var1 = v1 + delta_pr**2 * var2
    cov12 = -delta_pr * var2
    return phi1, phi2, var1, var2, cov12


def save_dataset_reference(d, path):
    """The row-at-a-time CSV writer that block-wise `save_dataset` replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["unit_id"] + [f"z{t}" for t in range(1, d.horizon + 1)]
        for t in range(1, d.horizon):
            header += [f"x{t}_{j}" for j in range(1, d.covariate_width + 1)]
        header.append("y")
        writer.writerow(header)
        for i in range(d.n_records):
            row = [d.unit_ids[i]]
            row += [str(int(v)) for v in d.z[i]]
            for t in range(d.horizon - 1):
                row += [str(int(v)) for v in d.x[i, t]]
            row.append(repr(float(d.y[i])))
            writer.writerow(row)


def load_dataset_reference(source):
    """The row-at-a-time CSV reader that block-wise `load_dataset` replaced.

    Same checks in the same order, plus three: input must be UTF-8 (a
    leading BOM is skipped), a byte that is not is named by its offset,
    and a code above 2**63 - 1 is named by its row. A path is decoded as
    it is read, so rows before a bad byte are checked first, and every
    source splits lines as a path does. The header check is the library's
    own `_parse_header`.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return _reference_rows(csv.reader(fh))
        except UnicodeDecodeError:
            data = Path(source).read_bytes()
    else:
        data = source if isinstance(source, bytes) else source.read()
    if isinstance(data, str):
        return _reference_rows(csv.reader(io.StringIO(data, newline="")))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = data[exc.start]
        raise ParseError(
            f"input is not UTF-8: byte 0x{bad:02x} at offset {exc.start}"
        ) from None
    if text.startswith("\ufeff"):
        text = text[1:]
    return _reference_rows(csv.reader(io.StringIO(text, newline="")))


def _reference_rows(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: no header row") from None
    horizon, width = _parse_header([h.strip() for h in header])
    ncol = 1 + horizon + (horizon - 1) * width + 1

    zs, xs, ys, ids = [], [], [], []
    start = reader.line_num  # the line before the next row
    for row in reader:
        line_no, start = start + 1, reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != ncol:
            raise ParseError(
                f"row {line_no}: expected {ncol} fields, found {len(row)}"
            )
        ids.append(row[0].strip())
        try:
            z_row = [int(v) for v in row[1 : 1 + horizon]]
            x_flat = [int(v) for v in row[1 + horizon : ncol - 1]]
        except ValueError as exc:
            raise ParseError(f"row {line_no}: non-integer code ({exc})") from None
        for v in z_row + x_flat:
            if v > 2**63 - 1:
                raise ParseError(
                    f"row {line_no}: code {v} out of range (at most 2**63 - 1)"
                )
        try:
            y_val = float(row[-1])
        except ValueError:
            raise ParseError(f"row {line_no}: non-numeric outcome {row[-1]!r}") from None
        if not math.isfinite(y_val):
            raise DomainError(f"row {line_no}: non-finite outcome {row[-1]!r}")
        if any(v < 0 for v in z_row) or any(v < 0 for v in x_flat):
            raise DomainError(f"row {line_no}: negative treatment/covariate code")
        zs.append(z_row)
        xs.append(x_flat)
        ys.append(y_val)
    if not zs:
        raise ParseError("no data rows")
    z = np.array(zs, dtype=np.int64)
    if horizon > 1:
        x = np.array(xs, dtype=np.int64).reshape(len(zs), horizon - 1, width)
    else:
        x = np.zeros((len(zs), 0, 0), dtype=np.int64)
    return Dataset(z, x, np.array(ys, dtype=float), ids)


def table_from_arrays_reference(z, x, y):
    """The recursive trie builder that the level-wise `MeanTable.from_arrays`
    replaced: one node at a time, each splitting its slice of the sorted
    records where the next level's columns change."""
    n, horizon = z.shape
    width = x.shape[2] if x.ndim == 3 and x.shape[1] > 0 else 0
    order, cols = sort_histories(z, x)
    fs = np.column_stack(cols)[order]
    outcomes = np.ascontiguousarray(y[order], dtype=float)
    spans = []
    c = 0
    for t in range(horizon):
        spans.append((c, c + 1, True))
        c += 1
        if t < horizon - 1:
            spans.append((c, c + width, False))
            c += width

    def build(lo, hi, level):
        node = TableNode(hi - lo, float(outcomes[lo:hi].sum()))
        if level < len(spans):
            a, b, is_treatment = spans[level]
            seg = fs[lo:hi, a:b]
            if seg.shape[0]:
                change = np.flatnonzero(np.any(seg[1:] != seg[:-1], axis=1)) + 1
                starts = np.concatenate(([0], change, [hi - lo]))
                for i in range(len(starts) - 1):
                    row = seg[starts[i]]
                    sym = int(row[0]) if is_treatment else tuple(int(v) for v in row)
                    node.children[sym] = build(
                        lo + int(starts[i]), lo + int(starts[i + 1]), level + 1
                    )
        return node

    return MeanTable(horizon, width, build(0, n, 0))


def assert_same_trie(a, b):
    """Node for node: the same children in the same order, and masses and
    sums that compare equal and have the same type."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        assert (p.mass, p.ysum) == (q.mass, q.ysum)
        assert (type(p.mass), type(p.ysum)) == (type(q.mass), type(q.ysum))
        assert list(p.children) == list(q.children)
        stack.extend(zip(p.children.values(), q.children.values()))


def levels_reference(table):
    """Every stratum by depth from a depth-first walk, each level sorted by
    key symbols: the listing that the level-by-level `levels` replaced."""
    out = [[] for _ in range(2 * table.horizon)]
    stack = [(StratumKey(), table.root)]
    while stack:
        key, node = stack.pop()
        out[key.depth].append((key, node))
        for sym, child in node.children.items():
            if key.ends_with_treatment:
                stack.append((key.with_covariate(sym), child))
            else:
                stack.append((key.with_treatment(sym), child))
    for level in out:
        level.sort(key=lambda item: item[0].symbols())
    return out


def incomplete_arms_reference(table):
    """Arms with a stratum below them that holds no control arm, found in a
    pass of their own before the recursion runs."""
    out = set()
    for depth in range(2 * table.horizon - 3, 0, -2):
        for _, node in levels_reference(table)[depth]:
            for stratum in node.children.values():
                arms = stratum.children
                if 0 not in arms or any(g in out for g in arms.values()):
                    out.add(node)
                    break
    return out


def net_effects_reference(table):
    """The backward recursion over sorted arms, skipping the arms that
    `incomplete_arms_reference` lists. Loads come from the library's
    kernel, which has tests of its own against `downstream_walk`, so the
    arithmetic is the library's. Returns (NetEffectTable, incomplete arms)."""
    incomplete = incomplete_arms_reference(table)
    levels = levels_reference(table)
    net = NetEffectTable(table.horizon)
    load = downstream_weighted_sum(table, net.effects.__getitem__)
    for t in range(table.horizon, 0, -1):
        for pkey, pnode in levels[2 * (t - 1)]:
            base = None
            for z, anode in sorted(pnode.children.items()):
                if anode in incomplete:
                    continue
                akey = pkey.with_treatment(z)
                mean = anode.derived_mean - load(akey, anode)
                net.control_means[akey] = mean
                if z == 0:
                    base = mean
                elif base is not None:
                    net.effects[akey] = mean - base
    return net, incomplete


def point_params_reference(table):
    """Point parameters in two halves per period, treatments then
    covariates. Returns (PointParams, the skip messages in order)."""
    levels = levels_reference(table)
    params = PointParams(grand_mean=table.root.mean)
    skipped = []
    horizon = table.horizon
    for t in range(1, horizon + 1):
        for pkey, pnode in levels[2 * (t - 1)]:
            control = pnode.children.get(0)
            for z, anode in pnode.children.items():
                if z == 0:
                    continue
                akey = pkey.with_treatment(z)
                if control is None:
                    skipped.append(f"no control arm for {akey.label()}; effect skipped")
                    continue
                params.treatment_effects[akey] = anode.mean - control.mean
        if t <= horizon - 1:
            zero = (0,) * table.covariate_width
            for pkey, pnode in levels[2 * t - 1]:
                ref = pnode.children.get(zero)
                for vec, cnode in pnode.children.items():
                    if vec == zero:
                        continue
                    ckey = pkey.with_covariate(vec)
                    if ref is None:
                        skipped.append(
                            f"no reference covariate for {ckey.label()}; effect skipped"
                        )
                        continue
                    params.covariate_effects[ckey] = cnode.mean - ref.mean
    return params, skipped


def reconstruct_history_mean_reference(params, table, history):
    """The fold over one full history, a treatment half and a covariate
    half per period."""
    if history.time != table.horizon or not history.ends_with_treatment:
        raise EstimabilityError(
            f"{history.label()} is not a full history for horizon {table.horizon}"
        )
    total = params.grand_mean
    prefix = StratumKey()
    for t in range(1, table.horizon + 1):
        pnode = table.require(prefix)
        z_t = history.treatments[t - 1]
        for z, child in pnode.children.items():
            if z == 0:
                continue
            akey = prefix.with_treatment(z)
            if akey not in params.treatment_effects:
                raise IncompletenessError(f"missing treatment effect for {akey.label()}")
            total -= params.treatment_effects[akey] * (child.mass / pnode.mass)
        if z_t > 0:
            akey = prefix.with_treatment(z_t)
            if akey not in params.treatment_effects:
                raise IncompletenessError(f"missing treatment effect for {akey.label()}")
            total += params.treatment_effects[akey]
        prefix = prefix.with_treatment(z_t)
        if t <= table.horizon - 1:
            pnode = table.require(prefix)
            zero = (0,) * table.covariate_width
            x_t = history.covariates[t - 1]
            for vec, child in pnode.children.items():
                if vec == zero:
                    continue
                ckey = prefix.with_covariate(vec)
                if ckey not in params.covariate_effects:
                    raise IncompletenessError(
                        f"missing covariate effect for {ckey.label()}"
                    )
                total -= params.covariate_effects[ckey] * (child.mass / pnode.mass)
            if x_t != zero:
                ckey = prefix.with_covariate(x_t)
                if ckey not in params.covariate_effects:
                    raise IncompletenessError(
                        f"missing covariate effect for {ckey.label()}"
                    )
                total += params.covariate_effects[ckey]
            prefix = prefix.with_covariate(x_t)
    return total


def causal_net_effects_reference(dgp):
    """The forward walk over the law: each stratum's joint law with the
    latent class is carried forward through the assignment and the
    kernel, then the focal arm and all later controls are forced."""
    T = dgp.horizon

    def forced_value(u, t, z, x):
        if t == T:
            return float(dgp.outcome_mean(z, x, u))
        total = 0.0
        for vec, pv in _kernel_dist(dgp, t, z, x, u):
            total += pv * forced_value(u, t + 1, z + (0,), x + (vec,))
        return total

    if dgp.latent_prob > 0.0:
        start = {0: 1.0 - dgp.latent_prob, 1: dgp.latent_prob}
    else:
        start = {0: 1.0}
    effects = {}
    strata = {((), ()): start}
    for t in range(1, T + 1):
        advanced = {}
        for (z, x), joint in sorted(strata.items()):
            total = sum(joint.values())
            contrast = 0.0
            for u, pu in joint.items():
                forced = [forced_value(u, t, z + (arm,), x) for arm in (0, 1)]
                contrast += (pu / total) * (forced[1] - forced[0])
            effects[StratumKey(z + (1,), x)] = contrast
            if t == T:
                continue
            for u, pu in joint.items():
                p1 = _assignment_prob(dgp, t, z, x, u)
                for zt, pz in ((0, 1.0 - p1), (1, p1)):
                    for vec, pv in _kernel_dist(dgp, t, z + (zt,), x, u):
                        nxt = advanced.setdefault((z + (zt,), x + (vec,)), {})
                        nxt[u] = nxt.get(u, 0.0) + pu * pz * pv
        strata = advanced
    return effects


def enumerate_support_reference(dgp):
    """A law's support as one (u, treatments, covariates, prob, mean) tuple
    per cell, from the depth-first walk that the support columns replaced."""
    if dgp.latent_prob > 0.0:
        classes = [(0, 1.0 - dgp.latent_prob), (1, dgp.latent_prob)]
    else:
        classes = [(0, 1.0)]
    cells = []

    def walk(u, t, z, x, prob):
        p1 = _assignment_prob(dgp, t, z, x, u)
        for zt, pz in ((0, 1.0 - p1), (1, p1)):
            z2 = z + (zt,)
            if t == dgp.horizon:
                mean = float(dgp.outcome_mean(z2, x, u))
                assert math.isfinite(mean)
                cells.append((u, z2, x, prob * pz, mean))
                continue
            for vec, pv in _kernel_dist(dgp, t, z2, x, u):
                walk(u, t + 1, z2, x + (vec,), prob * pz * pv)

    for u, w in classes:
        walk(u, 1, (), (), w)
    return cells


def simulate_reference(dgp, n, seed):
    """`simulate` as a loop over every support cell, empty ones included."""
    cells = enumerate_support_reference(dgp)
    probs = np.array([c[3] for c in cells])
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, probs)
    T, w = dgp.horizon, dgp.covariate_width
    z = np.empty((n, T), dtype=np.int64)
    x = np.empty((n, T - 1, w), dtype=np.int64)
    y = np.empty(n)
    pos = 0
    for (_, treatments, covariates, _, mean), count in zip(cells, counts):
        if count == 0:
            continue
        z[pos : pos + count] = treatments
        if T > 1:
            x[pos : pos + count] = covariates
        y[pos : pos + count] = mean
        if dgp.sigma > 0:
            y[pos : pos + count] += dgp.sigma * rng.standard_normal(count)
        pos += count
    perm = rng.permutation(n)
    return Dataset(z[perm], x[perm], y[perm], _sample_ids(n))


def causal_net_effects_support_reference(dgp):
    """The truth with each stratum's joint law with the latent class
    summed from the support cells into a dict, one cell at a time."""
    T = dgp.horizon

    def forced_value(u, t, z, x):
        if t == T:
            return float(dgp.outcome_mean(z, x, u))
        total = 0.0
        for vec, pv in _kernel_dist(dgp, t, z, x, u):
            total += pv * forced_value(u, t + 1, z + (0,), x + (vec,))
        return total

    cells = enumerate_support_reference(dgp)
    effects = {}
    for t in range(1, T + 1):
        strata = {}
        for u, treatments, covariates, prob, _ in cells:
            joint = strata.setdefault((treatments[: t - 1], covariates[: t - 1]), {})
            joint[u] = joint.get(u, 0.0) + prob
        for (z, x), joint in sorted(strata.items()):
            total = sum(joint.values())
            contrast = 0.0
            for u, pu in joint.items():
                forced = [forced_value(u, t, z + (arm,), x) for arm in (0, 1)]
                contrast += (pu / total) * (forced[1] - forced[0])
            effects[StratumKey(z + (1,), x)] = contrast
    return effects


def dataset_from_table_reference(table, scale, spread=0.0):
    """One record at a time: each full history repeated mass * scale
    times, its outcomes the derived mean plus the spread offsets."""
    T, w = table.horizon, table.covariate_width
    rows_z, rows_x, ys = [], [], []
    for key, node in table.level(2 * T - 1):
        count = round(node.mass * scale)
        offsets = _spread_offsets(count, spread)
        for i in range(count):
            rows_z.append(key.treatments)
            rows_x.append(key.covariates)
            ys.append(node.derived_mean + offsets[i])
    n = len(ys)
    z = np.array(rows_z, dtype=np.int64).reshape(n, T)
    x = np.array(rows_x, dtype=np.int64).reshape(n, T - 1, w)
    ids = [f"p{i + 1:06d}" for i in range(n)]
    return Dataset(z, x, np.array(ys), ids)


def _dataset_from_cells_reference(cells):
    """Two-period records from (z, x, outcomes) cells, ids r001, r002, ..."""
    rows_z, rows_x, ys = [], [], []
    for z, x, values in cells:
        for v in values:
            rows_z.append(z)
            rows_x.append(x)
            ys.append(v)
    n = len(ys)
    z = np.array(rows_z, dtype=np.int64)
    x = np.array(rows_x, dtype=np.int64).reshape(n, 1, 1)
    ids = [f"r{i + 1:03d}" for i in range(n)]
    return Dataset(z, x, np.array(ys), ids)


def small_fixture_reference():
    """`make_small_fixture`, built one record at a time."""
    cells = [
        ((0, 0), (0,), [95.0, 105.0]),
        ((0, 1), (0,), [110.0, 130.0]),
        ((0, 0), (1,), [104.0, 116.0]),
        ((0, 1), (1,), [126.0, 134.0]),
        ((1, 0), (0,), [115.0]),
        ((1, 1), (0,), [125.0, 135.0, 145.0]),
        ((1, 0), (1,), [140.0]),
        ((1, 1), (1,), [120.0, 130.0, 140.0]),
    ]
    return _dataset_from_cells_reference(cells)


def reference_fixture_reference():
    """`make_reference_fixture`, built one record at a time."""
    cells = [
        ((0, 0), (0,), 30, 88.0),
        ((0, 1), (0,), 30, 108.0),
        ((0, 0), (1,), 15, 101.0),
        ((0, 1), (1,), 5, 121.0),
        ((1, 0), (0,), 5, 93.5),
        ((1, 1), (0,), 15, 113.5),
        ((1, 0), (1,), 30, 130.5),
        ((1, 1), (1,), 30, 110.5),
    ]
    expanded = [
        (z, x, list(mean + _spread_offsets(count, 4.0))) for z, x, count, mean in cells
    ]
    return _dataset_from_cells_reference(expanded)


def discover_pattern_reference(fit, alpha):
    """`discover_pattern`'s report as a dict, one group pair at a time.

    Each pair's z comes from scalar arithmetic, the pairs are sorted as
    (z, i, j) tuples and every pair is one step, as the library did
    before it held its steps as columns.
    """
    spec = fit.pattern
    g = len(spec.groups)
    critical = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    pairs = []
    for i in range(g):
        for j in range(i + 1, g):
            diff = fit.params[i] - fit.params[j]
            denom = (
                fit.covariance[i, i]
                + fit.covariance[j, j]
                - 2.0 * fit.covariance[i, j]
            )
            if denom <= 0.0:
                z = 0.0 if abs(diff) < 1e-12 else math.inf
            else:
                z = abs(diff) / math.sqrt(denom)
            pairs.append((z, i, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    parent = list(range(g))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    steps = []
    for z, i, j in pairs:
        merged = False
        if z < critical:
            ri, rj = find(i), find(j)
            merged = ri != rj
            if merged:
                parent[max(ri, rj)] = min(ri, rj)
        pair = [spec.groups[i].name, spec.groups[j].name]
        steps.append({"pair": pair, "z": z, "merged": merged})
    components = {}
    for i in range(g):
        components.setdefault(find(i), []).append(i)
    ordered = [components[r] for r in sorted(components)]
    taken = {spec.groups[m[0]].name for m in ordered if len(m) == 1}
    taken.update(term.name for term in spec.terms)
    groups = []
    for members in ordered:
        if len(members) == 1:
            groups.append(spec.groups[members[0]])
            continue
        name = joined = "_".join(spec.groups[i].name for i in members)
        suffix = 2
        while name in taken:
            name = f"{joined}_{suffix}"
            suffix += 1
        taken.add(name)
        text = " or ".join(f"({spec.groups[i].predicate.text})" for i in members)
        groups.append(PatternGroup(name, compile_expr(text, {"t", "T"})))
    return {
        "schema_version": 1,
        "alpha": alpha,
        "critical_z": critical,
        "steps": steps,
        "components": [[spec.groups[i].name for i in members] for members in ordered],
        "pattern": PatternSpec(tuple(groups), spec.terms).to_text(),
    }


def fit_report_reference(fit):
    """`NetEffectFit.to_dict()`, built one record at a time from each
    target's key and `net_effect_estimates()`."""
    system = fit.system

    def finite(v):
        return v if math.isfinite(v) else None

    def target(i):
        return {
            "key": system.keys[i].label(),
            "time": system.times[i],
            "estimate": float(system.estimates[i]),
            "variance": finite(float(system.variances[i])),
        }

    targets = [
        {
            **target(i),
            "weight": float(system.weights[i]),
            "coefficients": [float(c) for c in system.coefficients[i]],
            "fitted": float(fit.fitted[j]),
            "residual": float(fit.residuals[j]),
            "standardized_residual": float(fit.standardized_residuals[j]),
        }
        for j, i in enumerate(system.rows.tolist())
    ]
    return {
        "schema_version": 1,
        "pattern": system.pattern.to_text(),
        "param_names": list(fit.param_names),
        "params": [float(p) for p in fit.params],
        "covariance": [[float(c) for c in row] for row in fit.covariance],
        "rank": fit.rank,
        "markov": system.markov,
        "variance_mode": fit.variance_mode.label(),
        "targets": targets,
        "dropped_targets": [
            {**target(i), "note": system.notes[i]} for i in system.dropped.tolist()
        ],
        "skipped_strata": [{"key": key.label(), "reason": why} for key, why in system.skipped],
        "fitted_net_effects": [
            {
                "key": f.key.label(),
                "time": f.time,
                "value": f.value,
                "se": f.se,
                "observed_estimate": f.observed_estimate,
                "note": f.note,
            }
            for f in fit.net_effect_estimates()
        ],
    }
