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
from dataclasses import dataclass
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
from .keys import PointEffectKey, StratumKey
from .patterns import ConstraintSystem, PatternGroup, PatternSpec, build_constraints
from .strata import VarianceMode, _mean_variance, point_effect_targets

log = logging.getLogger(__name__)

_RANK_RTOL = 1e-10
# Memory for one block of resampled outcome rows in `resampling_diagnostic`.
_RESAMPLE_BLOCK_BYTES = 8 * 2**20
# A diagnostic report holds two dense m x m matrices; warn above this size.
_DENSE_WARN_BYTES = 2**30


def _num(value: float) -> float | None:
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class PointEffectEstimate:
    key: PointEffectKey
    time: int
    value: float
    variance: float
    arm_count: int
    control_count: int

    def to_dict(self) -> dict:
        return {
            "key": self.key.label(),
            "time": self.time,
            "estimate": self.value,
            "variance": _num(self.variance),
            "arm_count": self.arm_count,
            "control_count": self.control_count,
        }


def estimate_point_effects(
    d: Dataset, variance_mode: VarianceMode, markov: bool = False
) -> tuple[list[PointEffectEstimate], list[tuple[StratumKey, str]]]:
    """Per-target arm contrasts with their sampling variances."""
    targets, skipped = point_effect_targets(d, markov=markov)
    estimates = [
        PointEffectEstimate(
            t.key,
            t.time,
            t.estimate,
            t.variance(variance_mode),
            t.arm_count,
            t.control_count,
        )
        for t in targets
    ]
    return estimates, skipped


@dataclass
class FittedNetEffect:
    key: PointEffectKey
    time: int
    value: float | None
    se: float | None
    observed_estimate: float | None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "key": self.key.label(),
            "time": self.time,
            "value": self.value,
            "se": self.se,
            "observed_estimate": self.observed_estimate,
            "note": self.note,
        }


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
        out = []
        for row in self.system.rows:
            out.append(self._fitted_at(row.key, row.time, row.estimate, None))
        for row in self.system.dropped:
            out.append(self._fitted_at(row.key, row.time, row.estimate, row.note))
        for key, reason in self.system.skipped:
            try:
                out.append(self._fitted_at(key, key.time, None, reason))
            except CoverageError:
                note = f"{reason}; no pattern group covers it"
                out.append(FittedNetEffect(key, key.time, None, None, None, note))
        out.sort(key=lambda f: (f.time, f.key.label()))
        return out

    def _fitted_at(self, key, time, observed, note) -> FittedNetEffect:
        f = self.system.features.get(key)
        if f is None:
            f = self.system.pattern.feature_row(key, self.system.horizon)
        value = float(f @ self.params)
        se = float(math.sqrt(max(f @ self.covariance @ f, 0.0)))
        return FittedNetEffect(key, time, value, se, observed, note)

    def to_dict(self) -> dict:
        rows = []
        for i, row in enumerate(self.system.rows):
            rows.append(
                {
                    "key": row.key.label(),
                    "time": row.time,
                    "estimate": row.estimate,
                    "variance": _num(row.variance),
                    "weight": row.weight,
                    "coefficients": row.coefficients.tolist(),
                    "fitted": float(self.fitted[i]),
                    "residual": float(self.residuals[i]),
                    "standardized_residual": float(self.standardized_residuals[i]),
                }
            )
        return {
            "schema_version": 1,
            "pattern": self.system.pattern.to_text(),
            "param_names": list(self.param_names),
            "params": self.params.tolist(),
            "covariance": self.covariance.tolist(),
            "rank": self.rank,
            "markov": self.system.markov,
            "variance_mode": self.variance_mode.label(),
            "targets": rows,
            "dropped_targets": [
                {
                    "key": row.key.label(),
                    "time": row.time,
                    "estimate": row.estimate,
                    "variance": _num(row.variance),
                    "note": row.note,
                }
                for row in self.system.dropped
            ],
            "skipped_strata": [
                {"key": key.label(), "reason": reason}
                for key, reason in self.system.skipped
            ],
            "fitted_net_effects": [f.to_dict() for f in self.net_effect_estimates()],
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
    if not system.rows:
        raise EstimabilityError("no targets with a positive weight; nothing to fit")
    C = system.matrix
    bad = np.argwhere(~np.isfinite(C))
    if bad.size:
        i, j = bad[0]
        raise PatternError(
            f"target {system.rows[i].key.label()}: the coefficient of parameter "
            f"{spec.param_names[j]!r} is not finite ({float(C[i, j])!r}): its "
            "feature row and downstream loads overflow when summed"
        )
    b = np.array([row.estimate for row in system.rows])
    w = np.array([row.weight for row in system.rows])
    sqrt_w = np.sqrt(w)
    A = C * sqrt_w[:, None]
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(S > _RANK_RTOL * S[0]))
    k = spec.size
    if rank < k:
        # A parameter's units must not decide whether it is identified:
        # test again on unit-norm columns (a zero column keeps scale 1).
        # With fewer rows than parameters only the full SVD (U is m x m)
        # keeps the whole null space.
        scale = np.linalg.norm(A, axis=0)
        scale[scale == 0.0] = 1.0
        _, S_unit, V_unit = np.linalg.svd(A / scale, full_matrices=len(A) < k)
        rank = int(np.sum(S_unit > _RANK_RTOL * S_unit[0]))
    if rank < k:
        # The unit-norm null space in parameter units, orthonormal again.
        null_space = np.linalg.qr((V_unit[rank:] / scale).T)[0].T
        names = spec.param_names
        raise IdentifiabilityError(
            f"only {rank} of {k} pattern parameters are identified by "
            f"{len(system.rows)} usable targets; unidentified directions span "
            + "; ".join(_combination(v, names) for v in null_space),
            null_space=null_space,
        )
    params = Vt.T @ ((U.T @ (b * sqrt_w)) / S)
    covariance = (Vt.T / S**2) @ Vt
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
    blocks: dict[tuple[int, int], list] = {}
    for target in targets:
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
        arms = [_mean_variance(t.arm_values, variance_mode) for t, _ in block]
        cov = np.diag(arms) + _mean_variance(block[0][0].control_values, variance_mode)
        e = np.array([t.estimate for t, _ in block])
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
        return {
            "schema_version": 1,
            "targets": self.target_labels,
            "reps": self.reps,
            "seed": self.seed,
            "sigma2": self.sigma2,
            "expected_covariance": self.expected.tolist(),
            "empirical_covariance": (
                self.empirical.tolist() if self.empirical is not None else None
            ),
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
        return json.dumps(self.to_dict(), **kwargs)


def _cell_means(d: Dataset) -> tuple[PeriodArms, list[float]]:
    """The full-history cells, which are the period-T arms, and their means."""
    cells = d.periods(False)[-1]
    segs = map(cells.values, range(len(cells.keys)))
    return cells, [float(seg.sum()) / seg.size for seg in segs]


def pooled_outcome_variance(d: Dataset) -> float:
    """Within-cell outcome variance pooled over the full-history cells."""
    cells, means = _cell_means(d)
    n = d.n_records
    if n <= len(means):
        raise EstimabilityError(
            "pooled variance needs more records than occupied cells"
        )
    ssw = 0.0
    for g, mean in enumerate(means):
        ssw += float(np.sum((cells.values(g) - mean) ** 2))
    return ssw / (n - len(means))


def expected_target_covariance(d: Dataset, sigma2: float = 1.0) -> tuple[list, np.ndarray]:
    """Model-implied covariance of the target estimates.

    Distinct targets are uncorrelated unless they contrast different
    active arms against the same control records, which contributes the
    control-mean variance to the pair. So the matrix is block-diagonal,
    one block per control arm of a period; it is filled block by block, in
    O(m + sum of squared block sizes) time, but returned dense.
    """
    targets, _ = point_effect_targets(d)
    m = len(targets)
    if 2 * 8 * m * m > _DENSE_WARN_BYTES:
        log.warning(
            "%d targets: the diagnostic's two dense %d x %d covariance matrices "
            "take %d bytes",
            m, m, m, 2 * 8 * m * m,
        )
    blocks: dict[tuple[int, int], list[int]] = {}
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
    labels = [t.key.label() for t in targets]
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
    cells, means = _cell_means(d)
    mu = np.repeat(means, np.diff(cells.bounds))
    sigma = math.sqrt(sigma2)
    # One column per distinct arm or control span; controls are shared.
    # All full-history periods share one record order, that of mu.
    spans: dict[tuple[int, int], int] = {}

    def column(bounds: np.ndarray, g: int) -> int:
        return spans.setdefault((int(bounds[g]), int(bounds[g + 1])), len(spans))

    arm_cols = np.array([column(t.period.bounds, t.arm) for t in targets])
    control_cols = np.array([column(t.period.bounds, t.control) for t in targets])
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
        for (lo, hi), c in spans.items():
            means[:, c] = y[:, lo:hi].mean(axis=1)
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
class MergeStep:
    first: str
    second: str
    z_value: float
    merged: bool


@dataclass
class DiscoveryReport:
    steps: list[MergeStep]
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
                {
                    "pair": [s.first, s.second],
                    "z": s.z_value,
                    "merged": s.merged,
                }
                for s in self.steps
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
    carried over unchanged. The suggestion is a starting point for a
    refit, not a claim that the merged pattern is true.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie strictly between 0 and 1, not {alpha!r}")
    spec = fit.pattern
    g = len(spec.groups)
    if g < 2:
        raise DiagnosticError("pattern discovery needs at least 2 groups")
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

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    steps = []
    for z, i, j in pairs:
        names = (spec.groups[i].name, spec.groups[j].name)
        if z >= critical:
            steps.append(MergeStep(*names, z, False))
            continue
        ri, rj = find(i), find(j)
        merged = ri != rj
        if merged:
            parent[max(ri, rj)] = min(ri, rj)
        steps.append(MergeStep(*names, z, merged))
    components: dict[int, list[int]] = {}
    for i in range(g):
        components.setdefault(find(i), []).append(i)
    ordered = [components[r] for r in sorted(components)]
    groups = []
    for members in ordered:
        name = "_".join(spec.groups[i].name for i in members)
        if len(members) == 1:
            predicate = spec.groups[members[0]].predicate
        else:
            text = " or ".join(f"({spec.groups[i].predicate.text})" for i in members)
            predicate = compile_expr(text, {"t", "T"})
        groups.append(PatternGroup(name, predicate))
    merged_spec = PatternSpec(tuple(groups), spec.terms)
    return DiscoveryReport(
        steps,
        [[spec.groups[i].name for i in members] for members in ordered],
        alpha,
        critical,
        merged_spec,
    )
