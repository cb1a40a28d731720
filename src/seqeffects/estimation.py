"""Estimation over a dataset: target estimates, pooled fits, diagnostics.

The pooled fit solves the weighted least-squares system assembled by
`build_constraints`: rows are target point effects, columns are pattern
parameters, weights are inverse target variances. On a saturated pattern
the system is square and consistent, so the fit reproduces every target
exactly; smaller patterns trade fidelity for stability, and the residual
block of the report is the place to look when a pattern is too coarse.
Everything here reads records through `Dataset.periods`, never the trie.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .dataset import Dataset, PeriodArms
from .errors import (
    CoverageError,
    DiagnosticError,
    EstimabilityError,
    IdentifiabilityError,
    PatternError,
    UsageError,
)
from .exprlang import compile_expr
from .keys import PointEffectKey
from .patterns import ConstraintSystem, PatternGroup, PatternSpec, build_constraints
from .strata import VarianceMode, _Targets, point_effect_targets

log = logging.getLogger(__name__)

_RANK_RTOL = 1e-10
# Memory for one block of resampled outcome rows in `resampling_diagnostic`.
_RESAMPLE_BLOCK_BYTES = 8 * 2**20
# A diagnostic report holds two dense m x m matrices. Its text takes about
# 22 bytes per matrix number (diagnose reports of complete balanced panels:
# 5,192,634 B at m = 341, 82,046,165 B at m = 1365), and writing it holds
# about two copies of that text. Warn when the arrays and the two copies
# pass this size.
_DENSE_WARN_BYTES = 2**30
_REPORT_BYTES_PER_NUMBER = 22
# Pattern discovery holds each group pair's two group indices, z and merged
# flag, and lists every pair in its report: the steps of the T=5 saturated
# report of a complete balanced panel take 7,970,063 B for 57,970 pairs.
_STEP_BYTES = 8 + 8 + 8 + 1
_REPORT_BYTES_PER_STEP = 138
# Below this level 1 - alpha/2 rounds to 1, whose normal quantile is infinite.
_MIN_ALPHA = math.nextafter(2.0**-53, 1.0)


def _num(value: float) -> float | None:
    return value if math.isfinite(value) else None


@dataclass
class FittedNetEffect:
    """The pattern's net effect at arm `arm` of `period`; `key` is built
    when read."""

    period: PeriodArms = field(repr=False)
    arm: int
    value: float | None
    se: float | None
    observed_estimate: float | None
    note: str | None = None

    @property
    def key(self) -> PointEffectKey:
        return self.period.key(self.arm)

    @property
    def time(self) -> int:
        return self.period.time


@dataclass
class NetEffectFit:
    """Solved pooled system plus everything a report needs."""

    system: ConstraintSystem
    variance_mode: VarianceMode
    params: np.ndarray
    covariance: np.ndarray
    rank: int
    fitted: np.ndarray
    residuals: np.ndarray
    standardized_residuals: np.ndarray

    @property
    def pattern(self) -> PatternSpec:
        return self.system.pattern

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.system.pattern.param_names

    def param(self, name: str) -> float:
        return self.params[self.param_names.index(name)]

    def net_effect_estimates(self) -> list[FittedNetEffect]:
        """Pattern-implied net effect at every observed evaluation point.

        Pooling pays off here: points skipped as contrasts (no control
        arm) still get a fitted value, since only the feature row is
        needed. A skipped point that no pattern group covers gets a null
        value and standard error, and its note says so.
        """
        system = self.system
        fitted = self._fitted_net_effects(system.keys.labels() + system.skipped.labels())
        return [FittedNetEffect(*row) for row in zip(*fitted[:2], *fitted[4:])]

    def _fitted_net_effects(self, labels: list[str]) -> tuple[list, ...]:
        """Columns of the fitted net effects in report order, by period,
        then label: periods, arms, labels, times, values, standard errors,
        observed estimates and notes. `labels` are the labels of the
        targets, then of the skipped arms. Each value is f @ params and
        each standard error sqrt(max(f @ covariance @ f, 0)) for the
        point's feature row f."""
        system = self.system
        keys, skipped = system.keys, system.skipped
        periods = [*keys.periods, *skipped.periods]
        arms = [*keys.arms.tolist(), *skipped.arms]
        times = [period.time for period in periods]
        observed = system.estimates.tolist() + [None] * len(skipped)
        notes = system.notes + [skipped.reason] * len(skipped)
        f = np.concatenate([keys.rows(system.features), skipped.rows(system.features)])
        covered = np.ones(len(arms), dtype=bool)
        # Only a skipped arm's row can still be NaN: its key gives it, or
        # says that no group covers the arm.
        for i in np.flatnonzero(np.isnan(f[:, 0])).tolist():
            try:
                f[i] = system.pattern.feature_row(periods[i].key(arms[i]), system.horizon)
            except CoverageError:
                f[i] = 0.0
                covered[i] = False
                notes[i] = f"{notes[i]}; no pattern group covers it"
        # Stacked one-row products round as f @ params and f @ cov @ f do
        # row by row; (m, k) products such as f @ params may not.
        stacked = f[:, None, :]
        values = (stacked @ self.params)[:, 0]
        variance = (stacked @ self.covariance @ f[:, :, None])[:, 0, 0]
        # max(v, 0.0) keeps v unless 0.0 is larger, -0.0 and NaN included
        ses = np.sqrt(np.where(0.0 > variance, 0.0, variance))
        values, ses = values.tolist(), ses.tolist()
        for i in np.flatnonzero(~covered).tolist():
            values[i] = ses[i] = None
        order = sorted(range(len(arms)), key=list(zip(times, labels)).__getitem__)
        columns = (periods, arms, labels, times, values, ses, observed, notes)
        return tuple([column[i] for i in order] for column in columns)

    def to_dict(self) -> dict:
        system = self.system
        labels, skipped_labels = system.keys.labels(), system.skipped.labels()
        columns = {
            "key": labels,
            "time": system.times,
            "estimate": system.estimates.tolist(),
            "variance": [_num(v) for v in system.variances.tolist()],
        }

        def records(index: np.ndarray, **more: list) -> list[dict]:
            picked = {name: [c[i] for i in index.tolist()] for name, c in columns.items()}
            picked.update(more)
            return [dict(zip(picked, values)) for values in zip(*picked.values())]

        rows = system.rows
        return {
            "schema_version": 1,
            "pattern": system.pattern.to_text(),
            "param_names": list(self.param_names),
            "params": self.params.tolist(),
            "covariance": self.covariance.tolist(),
            "rank": self.rank,
            "markov": system.markov,
            "variance_mode": self.variance_mode.label(),
            "targets": records(
                rows,
                weight=system.weights[rows].tolist(),
                coefficients=system.coefficients[rows].tolist(),
                fitted=self.fitted.tolist(),
                residual=self.residuals.tolist(),
                standardized_residual=self.standardized_residuals.tolist(),
            ),
            "dropped_targets": records(
                system.dropped, note=[system.notes[i] for i in system.dropped.tolist()]
            ),
            "skipped_strata": [
                {"key": label, "reason": system.skipped.reason}
                for label in skipped_labels
            ],
            "fitted_net_effects": [
                {"key": k, "time": t, "value": v, "se": se, "observed_estimate": o, "note": n}
                for k, t, v, se, o, n in zip(
                    *self._fitted_net_effects(labels + skipped_labels)[2:]
                )
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _combination(v: np.ndarray, names: Sequence[str]) -> str:
    """Render a null-space vector as a readable signed sum of parameter names."""
    terms = [(c, n) for c, n in zip(v, names) if abs(c) > 1e-12]
    if terms and terms[0][0] < 0:
        terms = [(-c, n) for c, n in terms]
    parts = []
    for c, n in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coef = "" if abs(mag - 1.0) < 1e-9 else f"{mag:.3g}*"
        if not parts and sign == "+":
            parts.append(f"{coef}{n}")
        else:
            parts.append(f"{sign} {coef}{n}" if parts else f"-{coef}{n}")
    return " ".join(parts) if parts else "0"


def fit_net_effects(
    spec: PatternSpec,
    d: Dataset,
    variance_mode: VarianceMode,
    markov: bool = False,
) -> NetEffectFit:
    """Weighted least squares over the pattern's constraint system.

    Raises IdentifiabilityError (with a null-space basis over the
    parameters) when the observed targets do not pin down every
    parameter.
    """
    if markov:
        log.warning(
            "pooled-history mode assumes effects depend on the last step only; "
            "nothing in the data certifies that"
        )
    system = build_constraints(spec, d, variance_mode, markov=markov)
    rows = system.rows
    if not rows.size:
        raise EstimabilityError("no targets with a positive weight; nothing to fit")
    C = system.coefficients[rows]
    b = system.estimates[rows]
    sqrt_w = np.sqrt(system.weights[rows])
    # An overflowing design fails here, once, not as warnings and a failed SVD.
    with np.errstate(over="ignore", invalid="ignore"):
        A = C * sqrt_w[:, None]
    for M, what, why in (
        (C, "coefficient", "its feature row and downstream loads overflow when summed"),
        (A, "weighted coefficient", "the target's weight makes it overflow"),
    ):
        bad = np.argwhere(~np.isfinite(M))
        if bad.size:
            i, j = bad[0]
            raise PatternError(
                f"target {system.keys[rows[i]].label()}: the {what} of parameter "
                f"{spec.param_names[j]!r} is not finite ({float(M[i, j])!r}): {why}"
            )
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(S > _RANK_RTOL * S[0]))
    k = spec.size
    scale = np.ones(k)
    if rank < k:
        # A parameter's units must not decide whether it is identified:
        # test again on unit-norm columns (a zero column keeps scale 1).
        # With fewer rows than parameters only the full SVD (U is m x m)
        # keeps the whole null space. A column's norm is taken over the
        # column divided by its largest entry, whose squares cannot overflow.
        peak = np.abs(A).max(axis=0)
        peak[peak == 0.0] = 1.0
        scale = peak * np.linalg.norm(A / peak, axis=0)
        scale[scale == 0.0] = 1.0
        U, S, Vt = np.linalg.svd(A / scale, full_matrices=len(A) < k)
        rank = int(np.sum(S > _RANK_RTOL * S[0]))
    if rank < k:
        # The unit-norm null space in parameter units, orthonormal again.
        null_space = np.linalg.qr((Vt[rank:] / scale).T)[0].T
        names = spec.param_names
        raise IdentifiabilityError(
            f"only {rank} of {k} pattern parameters are identified by "
            f"{rows.size} usable targets; unidentified directions span "
            + "; ".join(_combination(v, names) for v in null_space),
            null_space=null_space,
        )
    # Solve in the basis whose SVD found full rank, scaled back to parameter
    # units (exactly, by ones, in the raw basis). Parameters whose scales lie
    # too far apart overflow or underflow here.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        params = Vt.T @ ((U.T @ (b * sqrt_w)) / S) / scale
        covariance = (Vt.T / S**2) @ Vt / np.outer(scale, scale)
    finite = np.isfinite(covariance).all()
    if not (finite and np.diag(covariance).min() >= np.finfo(float).tiny):
        # Name the parameter whose column's scale lies farthest from the rest.
        log_peak = np.log(np.abs(A).max(axis=0))
        j = int(np.argmax(np.abs(log_peak - np.median(log_peak))))
        raise PatternError(
            f"the variance of parameter {spec.param_names[j]!r} "
            f"{'underflows' if finite else 'is not finite'} ({float(covariance[j, j])!r}): "
            "its scale is too far from the other parameters'"
        )
    fitted = C @ params
    residuals = b - fitted
    return NetEffectFit(
        system,
        variance_mode,
        params,
        covariance,
        rank,
        fitted,
        residuals,
        residuals * sqrt_w,
    )


@dataclass
class TestResult:
    name: str
    statistic: float
    df: int
    p_value: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "detail": self.detail,
        }


def net_effect_null_test(d: Dataset, variance_mode: VarianceMode) -> TestResult:
    """Chi-square test that every point effect is zero.

    Targets of different periods or strata are uncorrelated under
    resampling within strata (the later contrast sits inside one arm of
    the earlier one, canceling the shared-mean term). The active arms of
    one stratum are not: they share its control mean. So each block of
    targets with one control, with estimates e and covariance V equal to
    the arm-mean variances on the diagonal plus the control-mean variance
    everywhere, adds e' V^-1 e and one degree of freedom per target (per
    rank of V, when arms without spread make V singular); a one-target
    block adds estimate^2 / variance. Targets without a finite positive
    variance are left out. All point effects vanish exactly when all net
    effects do, which is the hypothesis of interest.
    """
    targets, _ = point_effect_targets(d)
    arm_var, control_var = targets.mean_variances(variance_mode)
    var = arm_var + control_var
    estimates = targets.estimates()
    q = 0.0
    m = 0
    for block in targets.blocks(np.flatnonzero(np.isfinite(var) & (var > 0.0))):
        if len(block) == 1:
            # Python floats: a scalar pow can round unlike an array square
            q += float(estimates[block[0]]) ** 2 / float(var[block[0]])
            m += 1
            continue
        cov = np.diag(arm_var[block]) + control_var[block[0]]
        e = estimates[block]
        q += float(e @ np.linalg.pinv(cov, hermitian=True) @ e)
        m += int(np.linalg.matrix_rank(cov, hermitian=True))
    if m == 0:
        raise EstimabilityError("no target has a usable variance")
    # Imported here, not at module level: scipy.stats takes several times
    # as long to load as the rest of the package, and no CLI command runs
    # this test or standard_mean_equality_test.
    from scipy.stats import chi2

    return TestResult(
        "net_effect_null",
        q,
        m,
        float(chi2.sf(q, m)),
        f"{m} targets, {variance_mode.label()} variances",
    )


def standard_mean_equality_test(
    d: Dataset, variance_mode: VarianceMode
) -> TestResult:
    """Classical equal-means test within covariate profiles.

    Groups records by their full covariate trajectory and tests whether
    treatment trajectories share a mean inside each profile. This is the
    textbook analysis that ignores when covariates were measured; on
    sequential data it answers a different question, and the comparison
    against the net-effect test makes that visible.
    """
    n = d.n_records
    profile_rows = d.x.reshape(n, (d.horizon - 1) * d.covariate_width)
    _, profile_of = np.unique(profile_rows, axis=0, return_inverse=True)
    _, first, cell_of = np.unique(
        np.column_stack([profile_rows, d.z]),
        axis=0,
        return_index=True,
        return_inverse=True,
    )
    cell_of = cell_of.ravel()
    n_cells = len(first)
    counts = np.bincount(cell_of)
    means = np.bincount(cell_of, d.y) / counts
    ssw = float(np.sum((d.y - means[cell_of]) ** 2))
    # Only profiles holding two or more treatment paths add to the
    # contrast, one degree of freedom per path beyond the first.
    cell_profile = profile_of.ravel()[first]
    cells_in = np.bincount(cell_profile)
    pooled = np.bincount(cell_profile, counts * means) / np.bincount(
        cell_profile, counts
    )
    spread = counts * (means - pooled[cell_profile]) ** 2
    between = float(np.sum(spread[cells_in[cell_profile] >= 2]))
    df = n_cells - len(cells_in)
    if df == 0:
        raise EstimabilityError("no covariate profile holds two treatment groups")
    if variance_mode.kind == "known":
        sigma2 = variance_mode.sigma2
        detail = f"known variance {sigma2:g}"
    else:
        if n <= n_cells:
            raise EstimabilityError(
                "pooled variance needs more records than cells"
            )
        sigma2 = ssw / (n - n_cells)
        detail = f"pooled variance over {n_cells} cells"
    q = between / sigma2
    from scipy.stats import chi2

    return TestResult(
        "standard_mean_equality", q, df, float(chi2.sf(q, df)), detail
    )


@dataclass
class FlaggedPair:
    i: int
    j: int
    empirical: float
    expected: float
    mc_se: float

    def to_dict(self, labels: list[str]) -> dict:
        return {
            "pair": [labels[self.i], labels[self.j]],
            "empirical": self.empirical,
            "expected": self.expected,
            "mc_se": self.mc_se,
        }


@dataclass
class ResamplingReport:
    target_labels: list[str]
    reps: int
    seed: int
    sigma2: float
    expected: np.ndarray
    empirical: np.ndarray | None
    flagged_variances: list[FlaggedPair]
    flagged_covariances: list[FlaggedPair]
    notes: list[str]

    @property
    def consistent(self) -> bool:
        return not self.flagged_variances and not self.flagged_covariances

    def to_dict(self) -> dict:
        """The report tree. `expected_covariance` and `empirical_covariance`
        (when not None) are the m x m ndarrays themselves, not nested lists:
        the CLI's report encoder writes them a row at a time, and `to_json`
        lists them."""
        return {
            "schema_version": 1,
            "targets": self.target_labels,
            "reps": self.reps,
            "seed": self.seed,
            "sigma2": self.sigma2,
            "expected_covariance": self.expected,
            "empirical_covariance": self.empirical,
            "flagged_variances": [
                f.to_dict(self.target_labels) for f in self.flagged_variances
            ],
            "flagged_covariances": [
                f.to_dict(self.target_labels) for f in self.flagged_covariances
            ],
            "consistent": self.consistent,
            "notes": self.notes,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), default=np.ndarray.tolist, **kwargs)


def pooled_outcome_variance(d: Dataset) -> float:
    """Within-cell outcome variance pooled over the full-history cells,
    which are the period-T arms."""
    cells = d.periods(False)[-1]
    n, k = d.n_records, len(cells.arms)
    if n <= k:
        raise EstimabilityError("pooled variance needs more records than occupied cells")
    # A running sum in arm order: np.sum's pairwise sum and builtin sum's
    # compensated one (Python 3.12+) would round differently.
    ssw = float(np.cumsum(cells._spreads[0])[-1])
    return ssw / (n - k)


def expected_target_covariance(d: Dataset, sigma2: float = 1.0) -> tuple[_Targets, np.ndarray]:
    """Model-implied covariance of the target estimates.

    Distinct targets are uncorrelated unless they contrast different
    active arms against the same control records, which contributes the
    control-mean variance to the pair. So the matrix is block-diagonal,
    one block per control arm of a period; it is filled block by block, in
    O(m + sum of squared block sizes) time, but returned dense.
    """
    targets, _ = point_effect_targets(d)
    m = len(targets)
    dense = 2 * 8 * m * m + 2 * (2 * _REPORT_BYTES_PER_NUMBER * m * m)
    if dense > _DENSE_WARN_BYTES:
        log.warning(
            "%d targets: the diagnostic's two dense %d x %d covariance matrices "
            "and their report take about %d bytes",
            m, m, m, dense,
        )
    arm_counts, control_counts = targets.counts()
    cov = np.zeros((m, m))
    for block in targets.blocks(np.arange(m)):
        if len(block) > 1:
            cov[np.ix_(block, block)] = sigma2 / control_counts[block[0]]
    cov[np.diag_indices(m)] = sigma2 * (1.0 / arm_counts + 1.0 / control_counts)
    return targets, cov


def resampling_diagnostic(
    d: Dataset, reps: int = 500, seed: int = 0, sigma2: float = 1.0
) -> ResamplingReport:
    """Check the target covariance model by resimulating outcomes.

    Redraws every outcome around its own full-history cell mean, re-forms
    the target estimates, and compares their empirical covariance to the
    model-implied one: variances at 3 Monte Carlo standard errors,
    covariances at 4. Replication r draws from its own seed stream
    ``(seed, r)``. Replications are drawn in blocks of rows that fit in
    `_RESAMPLE_BLOCK_BYTES`, and each arm or control mean is taken once
    per block along the rows; neither the block size nor the order of the
    means changes a bit of the result. A negative `reps` or `seed` is a
    UsageError.
    """
    if reps < 0:
        raise UsageError(f"reps must be at least 0, not {reps}")
    if seed < 0:
        raise UsageError(f"seed must be at least 0, not {seed}")
    targets, expected = expected_target_covariance(d, sigma2)
    labels = targets.labels()
    notes: list[str] = []
    if reps == 0:
        notes.append("no replications requested; nothing was checked")
        return ResamplingReport(labels, 0, seed, sigma2, expected, None, [], [], notes)
    if reps < 2:
        raise DiagnosticError("an empirical covariance needs at least 2 replications")
    if not targets:
        notes.append("no estimable targets; nothing was checked")
        log.warning("resampling diagnostic: no estimable targets; nothing was checked")
        return ResamplingReport(labels, reps, seed, sigma2, expected, None, [], [], notes)
    if reps < 100:
        notes.append(f"{reps} replications is noisy; flags may be spurious")
        log.warning("resampling diagnostic with %d replications is noisy", reps)
    n = d.n_records
    cells = d.periods(False)[-1]
    mu = np.repeat(cells.means, cells.counts)
    sigma = math.sqrt(sigma2)
    # One column per distinct arm or control span of records; controls are
    # shared. All full-history periods share one record order, that of mu.
    pairs = targets.pick(lambda p, g: np.column_stack([p.bounds[g], p.bounds[g + 1]]))
    spans, cols = np.unique(np.concatenate(pairs), axis=0, return_inverse=True)
    arm_cols, control_cols = np.split(cols.ravel(), 2)
    est = np.empty((reps, len(targets)))
    rows = min(reps, max(1, _RESAMPLE_BLOCK_BYTES // (8 * n)))
    buffer = np.empty((rows, n))
    for r0 in range(0, reps, rows):
        block = range(r0, min(reps, r0 + rows))
        y = buffer[: len(block)]
        for row, r in zip(y, block):
            # in place, with the rounding of mu + sigma * standard_normal(n)
            np.random.default_rng([seed, r]).standard_normal(out=row)
            row *= sigma
            row += mu
        # A row-wise mean over a C-ordered block sums each row pairwise,
        # exactly as the mean of that row's 1-D slice does.
        means = np.empty((len(block), len(spans)))
        for c, (start, stop) in enumerate(spans.tolist()):
            means[:, c] = y[:, start:stop].mean(axis=1)
        est[block.start : block.stop] = means[:, arm_cols] - means[:, control_cols]
    empirical = np.cov(est, rowvar=False).reshape(len(targets), len(targets))
    flagged_var = []
    flagged_cov = []
    diag = expected.diagonal()
    var_se = diag * math.sqrt(2.0 / (reps - 1))
    for i in np.flatnonzero(np.abs(empirical.diagonal() - diag) > 3.0 * var_se):
        flagged_var.append(
            FlaggedPair(int(i), int(i), empirical[i, i], expected[i, i], var_se[i])
        )
    for i in range(len(targets) - 1):
        row = expected[i, i + 1 :]
        moment = diag[i] * diag[i + 1 :]
        for k in np.flatnonzero(row):
            # scalar pow, not an array square: the two round differently
            moment[k] += row[k] ** 2
        mc_se = np.sqrt(moment / (reps - 1))
        hits = np.flatnonzero(np.abs(empirical[i, i + 1 :] - row) > 4.0 * mc_se)
        for k in hits:
            j = i + 1 + int(k)
            flagged_cov.append(
                FlaggedPair(i, j, empirical[i, j], expected[i, j], float(mc_se[k]))
            )
    return ResamplingReport(
        labels, reps, seed, sigma2, expected, empirical, flagged_var, flagged_cov, notes
    )


@dataclass
class DiscoveryReport:
    """`steps` lists every group pair in test order as columns: its two
    groups' indices into `group_names`, its z and whether it merged."""

    group_names: list[str]
    steps: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    components: list[list[str]]
    alpha: float
    critical: float
    pattern: PatternSpec

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "alpha": self.alpha,
            "critical_z": self.critical,
            "steps": [
                {"pair": [self.group_names[i], self.group_names[j]], "z": z, "merged": merged}
                for i, j, z, merged in zip(*(column.tolist() for column in self.steps))
            ],
            "components": self.components,
            "pattern": self.pattern.to_text(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def discover_pattern(fit: NetEffectFit, alpha: float = 0.05) -> DiscoveryReport:
    """Merge statistically indistinguishable groups of a fitted pattern.

    Pairs of group parameters are compared with Wald z statistics and
    merged greedily from the most similar pair up, single linkage, while
    the statistic stays under the two-sided critical value. Terms are
    carried over unchanged. A merged group joins its members' names with
    "_", plus the first free suffix _2, _3, ... if that name is taken.
    The suggestion is a starting point for a refit, not a claim that the
    merged pattern is true.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie strictly between 0 and 1, not {alpha!r}")
    if alpha < _MIN_ALPHA:
        raise UsageError(
            f"alpha must be at least {_MIN_ALPHA!r}, not {alpha!r}: "
            "below it the critical z is infinite in double precision"
        )
    spec = fit.pattern
    g = len(spec.groups)
    if g < 2:
        raise DiagnosticError("pattern discovery needs at least 2 groups")
    params, cov = fit.params[:g], fit.covariance[:g, :g]
    if not (np.isfinite(params).all() and np.isfinite(cov).all()):
        raise DiagnosticError("pattern discovery needs finite group estimates and covariances")
    pairs = g * (g - 1) // 2
    size = pairs * (_STEP_BYTES + 2 * _REPORT_BYTES_PER_STEP)
    if size > _DENSE_WARN_BYTES:
        log.warning(
            "%d groups: pattern discovery lists all %d group pairs; they and "
            "their report take about %d bytes",
            g, pairs, size,
        )
    critical = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    first, second = np.triu_indices(g, 1)
    # The scalar rule's operations, in its order, for every pair at once.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diff = np.abs(params[first] - params[second])
        denom = cov[first, first] + cov[second, second] - 2.0 * cov[first, second]
        z = np.where(denom <= 0.0, np.where(diff < 1e-12, 0.0, math.inf), diff / np.sqrt(denom))
    if np.isnan(z).any():  # so the sort below is Python's tuple order
        raise DiagnosticError("pattern discovery: a group difference or its variance overflows")
    order = np.lexsort((second, first, z))
    first, second, z = first[order], second[order], z[order]
    merged = np.zeros(len(z), dtype=bool)
    parent = list(range(g))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    below = int(np.searchsorted(z, critical))
    for step, (i, j) in enumerate(zip(first[:below].tolist(), second[:below].tolist())):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
            merged[step] = True
    components: dict[int, list[int]] = {}
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
    merged_spec = PatternSpec(tuple(groups), spec.terms)
    return DiscoveryReport(
        [group.name for group in spec.groups],
        (first, second, z, merged),
        [[spec.groups[i].name for i in members] for members in ordered],
        alpha,
        critical,
        merged_spec,
    )
