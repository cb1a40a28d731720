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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import CoverageError, EstimabilityError, ParseError, PatternError
from .exprlang import CompiledExpr, CovariateView, TreatmentView, compile_expr
from .keys import MarkovKey, PointEffectKey
from .strata import VarianceMode, point_effect_targets

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

    def feature_row(self, key: PointEffectKey, horizon: int) -> np.ndarray:
        env = _feature_env(key, horizon)
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

    def to_text(self) -> str:
        if self.source is not None:
            return self.source
        lines = [f"group {g.name}: when {g.predicate.text}" for g in self.groups]
        lines += [f"term {t.name}: {t.expression.text}" for t in self.terms]
        return "\n".join(lines) + "\n"


def _feature_env(key: PointEffectKey, horizon: int) -> dict:
    t = key.time
    if isinstance(key, MarkovKey):
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

        z = TreatmentView(
            t - 1, (key.prev_treatment, key.treatment), PatternError, missing_z
        )
        x = CovariateView(t - 1, (key.prev_covariate,), PatternError, missing_x)
    else:
        beyond = f"is not determined at a time-{t} evaluation point"
        z = TreatmentView(1, key.treatments, PatternError, lambda s: f"z[{s}] {beyond}")
        x = CovariateView(1, key.covariates, PatternError, lambda s: f"x[{s}] {beyond}")
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
class ConstraintRow:
    """One target's contribution to the pooled system."""

    key: PointEffectKey
    time: int
    coefficients: np.ndarray
    estimate: float
    variance: float
    weight: float
    note: str | None = None


@dataclass
class ConstraintSystem:
    """The weighted rows, plus every feature row evaluated to build them."""

    pattern: PatternSpec
    horizon: int
    rows: list[ConstraintRow]
    dropped: list[ConstraintRow]
    skipped: list[tuple[PointEffectKey, str]]
    markov: bool
    features: dict[PointEffectKey, np.ndarray]

    @property
    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.pattern.size))
        return np.vstack([r.coefficients for r in self.rows])


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
    horizon = d.horizon
    cache: dict[PointEffectKey, np.ndarray] = {}

    def feature(key: PointEffectKey) -> np.ndarray:
        row = cache.get(key)
        if row is None:
            try:
                row = cache[key] = spec.feature_row(key, horizon)
            except CoverageError:
                # Only downstream loads ask for arms that are not targets.
                if key not in {k for k, _ in skipped}:
                    raise
                raise _unidentified(key, skipped) from None
        return row

    rows: list[ConstraintRow] = []
    dropped: list[ConstraintRow] = []
    # Overflowing loads fail once, in the fit's matrix check, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        loads = _downstream_loads(d.periods(markov), feature, spec.size)
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
            row = ConstraintRow(
                target.key,
                target.time,
                coeff,
                target.estimate,
                variance,
                weight,
                note,
            )
            (rows if weight > 0.0 else dropped).append(row)
    return ConstraintSystem(spec, horizon, rows, dropped, skipped, markov, cache)


def _unidentified(key: PointEffectKey, skipped) -> EstimabilityError:
    labels = [k.label() for k, _ in skipped]
    more = f" and {len(labels) - 5} more" if len(labels) > 5 else ""
    return EstimabilityError(
        f"the net effect at {key.label()} is not identified: its control arm "
        "is unobserved and no pattern group pools it with identified targets, "
        "yet upstream targets need it as a downstream load; arms without a "
        f"control: {'; '.join(labels[:5])}{more}"
    )


def _downstream_loads(periods, feature, k: int) -> list[np.ndarray]:
    """Mean downstream feature load of every target arm and control.

    A record's load past period t is the sum of the feature rows of its
    active arms at periods s > t, and an arm's load is the mean load of
    its records. Returns one (arms, k) array per period, indexed like the
    period's arms; only the rows of target arms and their controls are
    filled, the others are NaN. One backward pass over the periods builds
    them all, evaluating the pattern once per active arm, and only at
    arms holding a record that a target arm or control of an earlier
    period holds: no other load reads them.
    """
    covered = np.zeros(periods[0].codes.size, dtype=bool)
    needed, reached = [], []
    for period in periods:
        reached.append(np.bincount(period.codes[covered], minlength=len(period.keys)) > 0)
        need = (period.arms > 0) & (period.control >= 0)
        need[period.control[need]] = True
        needed.append(need)
        covered |= need[period.codes]
    load = np.zeros((covered.size, k))
    loads = [None] * len(periods)
    for t in range(len(periods), 0, -1):
        period = periods[t - 1]
        n_arm = len(period.keys)
        total = np.column_stack(
            [np.bincount(period.codes, load[:, j], n_arm) for j in range(k)]
        )
        mean = total / np.diff(period.bounds)[:, None]
        mean[~needed[t - 1]] = np.nan
        loads[t - 1] = mean
        if t > 1:
            rows = np.zeros((n_arm, k))
            for g in np.flatnonzero(reached[t - 1] & (period.arms > 0)):
                rows[g] = feature(period.keys[g])
            load += rows[period.codes]
    return loads


def saturated_pattern(d: Dataset, markov: bool = False) -> PatternSpec:
    """One group per observed target: the unpooled version of any fit.

    Predicates lead with the time equality so later history references
    short-circuit away at other evaluation points.
    """
    targets, _ = point_effect_targets(d, markov=markov)
    groups = []
    for i, target in enumerate(targets, start=1):
        groups.append(
            PatternGroup(
                f"g{i}", compile_expr(_key_predicate(target.key), {"t", "T"})
            )
        )
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
