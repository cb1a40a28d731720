"""Pattern files: pooling net effects into a small parameter vector.

A pattern file is line-oriented. Each line (after '#' comments and blank
lines) declares one parameter:

    group <name>: when <predicate>
    term <name>: <expression>

Groups partition evaluation points first-match-wins: the feature vector
of a point carries a 1 for the first group whose predicate holds, and
each term contributes its numeric value. A file made only of groups must
match every evaluation point it is asked about; once a term is present
the pattern is total and unmatched groups simply contribute zeros.

Evaluation points are the net-effect keys. Each target's constraint row
pairs the feature vector at the target itself with the mass-weighted
feature load of the active arms downstream of each side of the contrast,
so a parameter vector consistent with the pattern reproduces every point
effect from net effects alone. Both fit modes take those loads from one
backward pass over the per-period arms of `Dataset.periods`; no fit
builds the history trie.

A fit evaluates the pattern once per period: each group predicate and
each term runs once over the columns of the period's arm rows, and gives
every arm the row its key would get. An arm is evaluated alone, through
its key, only where that could differ or fail (see `feature_row`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, PeriodArms
from .errors import CoverageError, EstimabilityError, ParseError, PatternError
from .exprlang import _EXACT, CompiledExpr, CovariateView, TreatmentView, compile_expr
from .keys import MarkovKey, PointEffectKey
from .strata import _SkippedArms, _Targets, VarianceMode, point_effect_targets

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = frozenset({"t", "T", "z", "x", "u", "group", "term", "when", "not", "and", "or"})


@dataclass(frozen=True)
class PatternGroup:
    name: str
    predicate: CompiledExpr


@dataclass(frozen=True)
class PatternTerm:
    name: str
    expression: CompiledExpr


@dataclass(frozen=True)
class PatternSpec:
    """A parsed pattern: groups first, then terms."""

    groups: tuple[PatternGroup, ...]
    terms: tuple[PatternTerm, ...]
    source: str | None = None

    def __post_init__(self):
        names = [p.name for p in self.groups] + [p.name for p in self.terms]
        if not names:
            raise PatternError("pattern defines no groups or terms")
        if len(set(names)) != len(names):
            raise PatternError("pattern parameter names are not unique")

    @property
    def size(self) -> int:
        return len(self.groups) + len(self.terms)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.groups) + tuple(p.name for p in self.terms)

    def feature_row(self, point: PointEffectKey | PeriodArms, horizon: int) -> np.ndarray:
        """The feature vector at a key, or the (arms, k) block of the
        feature vectors of every arm of a period.

        A key's row raises PatternError (CoverageError when a group-only
        pattern matches no group). A block never raises: it evaluates
        each predicate and term once over the period's columns
        (`CompiledExpr.eval_arrays`), and leaves NaN in a row whose key
        would raise, and in every row when a lookup fails, a head passes
        2**53, or array arithmetic could differ from Python's. Each other
        row is bit for bit its key's row. So an arm whose row is NaN is
        evaluated through its key, which gives its row or its error.
        """
        if isinstance(point, PeriodArms):
            return self._period_rows(point, horizon)
        key = point
        if isinstance(key, MarkovKey):
            history = (key.prev_treatment, key.treatment), (key.prev_covariate,)
        else:
            history = key.treatments, key.covariates
        env = _feature_env(key.time, horizon, isinstance(key, MarkovKey), *history)
        row = np.zeros(self.size)
        matched = not self.groups
        try:
            for i, group in enumerate(self.groups):
                if group.predicate.eval_predicate(env):
                    row[i] = 1.0
                    matched = True
                    break
            for j, term in enumerate(self.terms):
                value = term.expression.eval_number(env)
                if not math.isfinite(value):
                    raise PatternError(f"term {term.name!r} is not finite: {value!r}")
                row[len(self.groups) + j] = value
        except PatternError as exc:
            raise PatternError(f"at {key.label()}: {exc}") from None
        if not matched and not self.terms:
            raise CoverageError(f"no pattern group matches {key.label()}")
        return row

    def _period_rows(self, period: PeriodArms, horizon: int) -> np.ndarray:
        n = len(period.heads)
        rows = np.full((n, self.size), np.nan)
        if period.heads.max() > _EXACT:
            return rows
        columns = np.ascontiguousarray(period.heads.T)
        step = 1 + period.width
        xs = [columns[i + 1 : i + step] for i in range(0, len(columns) - 1, step)]
        env = _feature_env(period.time, horizon, period.pooled, columns[::step], xs)
        block = np.zeros((n, self.size))
        unmatched = np.ones(n, dtype=bool)
        try:
            for i, group in enumerate(self.groups):
                if not unmatched.any():
                    break
                hit = (group.predicate.eval_arrays(env) != 0) & unmatched
                block[hit, i] = 1.0
                unmatched &= ~hit
            for j, term in enumerate(self.terms, start=len(self.groups)):
                value = term.expression.eval_arrays(env)
                block[:, j] = value if isinstance(value, np.ndarray) else float(value)
        except (PatternError, ArithmeticError):
            return rows
        exact = np.isfinite(block).all(axis=1)
        if not self.terms:
            exact &= ~unmatched
        rows[exact] = block[exact]
        return rows

    def to_text(self) -> str:
        if self.source is not None:
            return self.source
        lines = [f"group {g.name}: when {g.predicate.text}" for g in self.groups]
        lines += [f"term {t.name}: {t.expression.text}" for t in self.terms]
        return "\n".join(lines) + "\n"


def _feature_env(t: int, horizon: int, pooled: bool, zs, xs) -> dict:
    """The names a pattern reads at a time-t evaluation point whose
    treatments and covariate vectors from period 1 on (from t - 1 on when
    `pooled`) are `zs` and `xs`: numbers for a key, columns over a
    period's arms for a block."""
    if pooled:
        first = t - 1
        retained = (
            f"is pooled away at this evaluation point; only "
            f"z[{t - 1}], z[{t}] and x[{t - 1}] are retained"
        )

        def missing_z(s: int) -> str:
            if s > t:
                return f"z[{s}] is not determined at a time-{t} evaluation point"
            return f"z[{s}] {retained}"

        def missing_x(s: int) -> str:
            if s >= t:
                return f"x[{s}] is not determined at a time-{t} evaluation point"
            return f"x[{s}] {retained}"

    else:
        first = 1
        beyond = f"is not determined at a time-{t} evaluation point"

        def missing_z(s: int) -> str:
            return f"z[{s}] {beyond}"

        def missing_x(s: int) -> str:
            return f"x[{s}] {beyond}"

    z = TreatmentView(first, zs, PatternError, missing_z)
    x = CovariateView(first, xs, PatternError, missing_x)
    return {"t": t, "T": horizon, "z": z, "x": x}


def parse_pattern(source: str) -> PatternSpec:
    """Parse pattern text; errors carry 1-based line numbers."""
    groups: list[PatternGroup] = []
    terms: list[PatternTerm] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("group", "term"):
            raise ParseError(
                f"line {lineno}: expected 'group <name>: ...' or 'term <name>: ...'"
            )
        name, sep, body = rest.partition(":")
        name = name.strip()
        body = body.strip()
        if not sep or not body:
            raise ParseError(f"line {lineno}: missing ':' and a body")
        if not _NAME_RE.match(name):
            raise ParseError(f"line {lineno}: {name!r} is not a valid name")
        if name in _RESERVED:
            raise ParseError(f"line {lineno}: {name!r} is reserved")
        if name in seen:
            raise ParseError(f"line {lineno}: duplicate name {name!r}")
        seen.add(name)
        try:
            if kind == "group":
                if not body.startswith("when "):
                    raise ParseError(
                        f"line {lineno}: a group needs 'when <predicate>'"
                    )
                expr = compile_expr(body[len("when "):], {"t", "T"})
                groups.append(PatternGroup(name, expr))
            else:
                terms.append(PatternTerm(name, compile_expr(body, {"t", "T"})))
        except PatternError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not groups and not terms:
        raise ParseError("pattern file defines no groups or terms")
    return PatternSpec(tuple(groups), tuple(terms), source)


@dataclass
class ConstraintSystem:
    """One weighted linear equation per target, held as arrays.

    Row i is target i of `point_effect_targets`, which `keys` holds: its
    key and period, its (m, k) `coefficients` row, its `estimates`,
    `variances` and `weights` entry (1 / variance, or 0 with a note), and
    its `notes` entry (None for a usable row). `keys` and `skipped` build a key only
    when read; `keys.labels()` and `skipped.labels()` format the labels
    without one. `rows` and `dropped` index the rows with positive and
    zero weight, in target order. `features` holds one (arms, k) feature
    block per period (`PatternSpec.feature_row`); every target arm's row
    in it is exact, other arms' rows may be NaN.
    """

    pattern: PatternSpec
    horizon: int
    keys: _Targets
    times: list[int]
    coefficients: np.ndarray
    estimates: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    notes: list[str | None]
    rows: np.ndarray
    dropped: np.ndarray
    skipped: _SkippedArms
    markov: bool
    features: list[np.ndarray]


def build_constraints(
    spec: PatternSpec,
    d: Dataset,
    variance_mode: VarianceMode,
    markov: bool = False,
) -> ConstraintSystem:
    """Assemble one weighted constraint row per estimable target.

    Targets whose variance cannot be formed keep their row with weight
    zero and a note, so reports can list what the fit left out.
    """
    targets, skipped = point_effect_targets(d, markov=markov)
    periods = d.periods(markov)
    horizon = d.horizon
    features = [spec.feature_row(period, horizon) for period in periods]

    def rows(t: int, index: np.ndarray) -> np.ndarray:
        """Period t's block, made exact at arms `index`, in arm order."""
        block, period = features[t - 1], periods[t - 1]
        for g in index[np.isnan(block[index, 0])].tolist():
            try:
                block[g] = spec.feature_row(period.key(g), horizon)
            except CoverageError:
                # Only downstream loads ask for arms that are not targets.
                if period.control[g] >= 0:
                    raise
                raise _unidentified(period.key(g), skipped) from None
        return block

    times, arms, controls = targets.times, targets.arms, targets.controls
    coefficients = np.zeros((len(targets), spec.size))
    # Overflowing loads fail once, in the fit's matrix check, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        loads = _downstream_loads(periods, rows, spec.size)
        # Targets run by period, so each period's are one slice.
        bounds = np.searchsorted(times, np.arange(1, len(periods) + 2))
        for t in range(1, len(periods) + 1):
            at = slice(bounds[t - 1], bounds[t])
            arm, load = arms[at], loads[t - 1]
            coefficients[at] = rows(t, arm)[arm] + load[arm] - load[controls[at]]
    variances = targets.variances(variance_mode)
    usable = np.isfinite(variances) & (variances > 0.0)
    weights = np.zeros(len(targets))
    # An overflowing weight fails once, in the fit's matrix check.
    with np.errstate(over="ignore"):
        weights[usable] = 1.0 / variances[usable]
    notes = [
        None if ok
        else "zero variance estimate" if math.isfinite(v)
        else "variance not estimable (each arm needs at least 2 records)"
        for ok, v in zip(usable.tolist(), variances.tolist())
    ]
    return ConstraintSystem(
        spec,
        horizon,
        targets,
        times.tolist(),
        coefficients,
        targets.estimates(),
        variances,
        weights,
        notes,
        np.flatnonzero(usable),
        np.flatnonzero(~usable),
        skipped,
        markov,
        features,
    )


def _unidentified(key: PointEffectKey, skipped: _SkippedArms) -> EstimabilityError:
    labels = [k.label() for k, _ in skipped[:5]]
    more = f" and {len(skipped) - 5} more" if len(skipped) > 5 else ""
    return EstimabilityError(
        f"the net effect at {key.label()} is not identified: its control arm "
        "is unobserved and no pattern group pools it with identified targets, "
        "yet upstream targets need it as a downstream load; arms without a "
        f"control: {'; '.join(labels)}{more}"
    )


def _downstream_loads(periods, rows, k: int) -> list[np.ndarray]:
    """Mean downstream feature load of every target arm and control.

    A record's load past period t is the sum of the feature rows of its
    active arms at periods s > t, and an arm's load is the mean load of
    its records. Returns one (arms, k) array per period, indexed like the
    period's arms; only the rows of target arms and their controls are
    filled, the others are NaN. One backward pass over the periods builds
    them all. `rows(t, index)` gives period t's (arms, k) feature block,
    exact at the arms `index`; the pass asks, from the last period down,
    only for active arms holding a record that a target arm or control of
    an earlier period holds: no other load reads them.
    """
    covered = np.zeros(periods[0].codes.size, dtype=bool)
    needed, reached = [], []
    for period in periods:
        reached.append(np.bincount(period.codes[covered], minlength=len(period.arms)) > 0)
        need = (period.arms > 0) & (period.control >= 0)
        need[period.control[need]] = True
        needed.append(need)
        covered |= need[period.codes]
    load = np.zeros((covered.size, k))
    loads = [None] * len(periods)
    for t in range(len(periods), 0, -1):
        period = periods[t - 1]
        n_arm = len(period.arms)
        total = np.column_stack(
            [np.bincount(period.codes, load[:, j], n_arm) for j in range(k)]
        )
        mean = total / np.diff(period.bounds)[:, None]
        mean[~needed[t - 1]] = np.nan
        loads[t - 1] = mean
        if t > 1:
            active = np.flatnonzero(reached[t - 1] & (period.arms > 0))
            picked = np.zeros((n_arm, k))
            picked[active] = rows(t, active)[active]
            load += picked[period.codes]
    return loads


def saturated_pattern(d: Dataset, markov: bool = False) -> PatternSpec:
    """One group per observed target: the unpooled version of any fit.

    Predicates lead with the time equality so later history references
    short-circuit away at other evaluation points.
    """
    targets, _ = point_effect_targets(d, markov=markov)
    groups = []
    for i, key in enumerate(targets, start=1):
        groups.append(PatternGroup(f"g{i}", compile_expr(_key_predicate(key), {"t", "T"})))
    if not groups:
        raise PatternError("no estimable targets to saturate over")
    return PatternSpec(tuple(groups), ())


def _key_predicate(key: PointEffectKey) -> str:
    parts = [f"t == {key.time}"]
    if isinstance(key, MarkovKey):
        t = key.time
        parts.append(f"z[{t - 1}] == {key.prev_treatment}")
        for i, v in enumerate(key.prev_covariate, start=1):
            parts.append(f"x[{t - 1}][{i}] == {v}")
        parts.append(f"z[{t}] == {key.treatment}")
    else:
        for s, v in enumerate(key.treatments, start=1):
            parts.append(f"z[{s}] == {v}")
        for s, vec in enumerate(key.covariates, start=1):
            for i, v in enumerate(vec, start=1):
                parts.append(f"x[{s}][{i}] == {v}")
    return " and ".join(parts)
