"""Generative models for sequential designs, with exact ground truth.

A DgpSpec describes one law: a treatment assignment probability, a
covariate kernel, an outcome mean surface, outcome noise, and optionally
a two-class latent mixture. Everything downstream works off an exact
enumeration of the law's support, held as read-only columns (`u`, `z`,
`x`, `prob`, `mean`, a row per cell), so population tables, simulated
samples, and causal ground truth all read the same arrays and agree
with each other by construction.

The causal ground truth is computed by forcing: condition the latent
class on the observed history (each stratum's law with the class is
summed from the support columns), force the focal arm, then force every later
treatment to control while covariates keep evolving. When the
assignment never reads the latent class this matches the backward
recursion on the population table; when it does, the gap between the two
is exactly the confounding bias, which is what makes the pair useful in
tests.
"""

from __future__ import annotations

import math
from array import array
from numbers import Integral, Real
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import DgpError
from .exprlang import CovariateView, TreatmentView, compile_expr
from .keys import Covariate, StratumKey
from .tables import MeanTable

Assignment = Callable[[int, tuple[int, ...], tuple[Covariate, ...], int], float]
CovariateKernel = Callable[
    [int, tuple[int, ...], tuple[Covariate, ...], int], dict[Covariate, float]
]
OutcomeMean = Callable[[tuple[int, ...], tuple[Covariate, ...], int], float]

_KERNEL_SUM_TOL = 1e-9
_INTS = frozenset({int})


@dataclass
class DgpSpec:
    """One sequential law with binary treatments.

    assignment(t, z_prefix, x_prefix, u) gives pr(z_t = 1) and must stay
    strictly inside (0, 1) on reachable histories: without that, control
    continuations are undefined and no estimator downstream can work.
    covariate_kernel(t, z_prefix, x_prefix, u) returns a distribution
    over covariate vectors for time t (z_prefix already includes z_t).
    The latent class u is 1 with probability latent_prob.
    """

    horizon: int
    assignment: Assignment
    covariate_kernel: CovariateKernel
    outcome_mean: OutcomeMean
    sigma: float = 1.0
    covariate_width: int = 1
    latent_prob: float = 0.0
    _support: "Support | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.horizon < 1:
            raise DgpError("horizon must be at least 1")
        if not math.isfinite(self.sigma):
            raise DgpError(f"sigma must be finite, not {self.sigma!r}")
        if self.sigma < 0:
            raise DgpError("sigma must be non-negative")
        if self.covariate_width < 1:
            raise DgpError("covariate width must be at least 1")
        if not 0.0 <= self.latent_prob < 1.0:
            raise DgpError("latent probability must be in [0, 1)")


class Support(NamedTuple):
    """A law's support as read-only columns, a row per cell."""

    u: np.ndarray  # (cells,)
    z: np.ndarray  # (cells, T)
    x: np.ndarray  # (cells, T - 1, w)
    prob: np.ndarray  # (cells,)
    mean: np.ndarray  # (cells,)


def _assignment_prob(dgp: DgpSpec, t, z, x, u) -> float:
    p = dgp.assignment(t, z, x, u)
    return _real(p, "assignment probability", t, z, x, u, interior=True)


def _real(value, what: str, t, z, x, u, interior: bool = False) -> float:
    """value as a float when it is a finite real number (strictly between
    0 and 1 when `interior`), else a DgpError naming it and its history."""
    real = type(value) is float or isinstance(value, Real)  # skips a slow ABC check
    if real and (0.0 < value < 1.0 if interior else math.isfinite(value)):
        return float(value)
    if not real:
        why = f"is a {type(value).__name__}, not a real number"
    else:
        why = "is not strictly between 0 and 1" if interior else "is not finite"
    raise DgpError(f"{what} {value!r} at time {t} given z={z} x={x} u={u} {why}")


def _kernel_dist(dgp: DgpSpec, t, z, x, u) -> list[tuple[Covariate, float]]:
    dist = dgp.covariate_kernel(t, z, x, u)
    total, out, width = 0.0, [], dgp.covariate_width
    for vec, p in sorted(dist.items()):
        if not _INTS.issuperset(map(type, vec)):  # plain ints need no check or copy
            if not all(isinstance(v, Integral) for v in vec):
                raise DgpError(
                    f"covariate value {vec!r} at time {t} has a component that is not an integer"
                )
            vec = tuple(map(int, vec))
        if len(vec) != width:
            raise DgpError(f"covariate value {vec} at time {t} does not fit width {width}")
        if min(vec) < 0:
            raise DgpError(f"covariate value {vec} at time {t} has a negative component")
        p = _real(p, "covariate probability", t, z, x, u)
        if p < 0:
            raise DgpError(f"negative covariate probability at time {t}")
        total += p
        if p > 0:
            out.append((vec, p))
    if abs(total - 1.0) > _KERNEL_SUM_TOL:
        raise DgpError(f"covariate kernel at time {t} given z={z} x={x} u={u} sums to {total!r}")
    return out


def enumerate_support(dgp: DgpSpec) -> Support:
    """All (latent class, full history) cells with positive probability, in
    the order of the walk, with their joint probabilities and means.

    Cached on the DgpSpec, since replication loops call this per draw.
    """
    if dgp._support is not None:
        return dgp._support
    classes = [(0, 1.0)]
    if dgp.latent_prob > 0.0:
        classes = [(0, 1.0 - dgp.latent_prob), (1, dgp.latent_prob)]
    T, w = dgp.horizon, dgp.covariate_width
    # Typed buffers hold 8 bytes a value and become the columns without a copy.
    us, probs, means, zs, xs = array("q"), array("d"), array("d"), array("q"), array("q")

    def walk(u, t, z, x, flat_x, prob):
        p1 = _assignment_prob(dgp, t, z, x, u)
        for zt, pz in ((0, 1.0 - p1), (1, p1)):
            z2 = z + (zt,)
            if t == T:
                us.append(u)
                probs.append(prob * pz)
                means.append(_real(dgp.outcome_mean(z2, x, u), "outcome mean", T, z2, x, u))
                zs.extend(z2)
                xs.extend(flat_x)
                continue
            for vec, pv in _kernel_dist(dgp, t, z2, x, u):
                walk(u, t + 1, z2, x + (vec,), flat_x + vec, prob * pz * pv)

    for u, mass in classes:
        walk(u, 1, (), (), (), mass)
    u, prob, mean, z, x = (np.frombuffer(c, c.typecode) for c in (us, probs, means, zs, xs))
    support = Support(u, z.reshape(len(u), T), x.reshape(len(u), T - 1, w), prob, mean)
    for column in support:
        column.flags.writeable = False
    dgp._support = support
    return support


def population_table(dgp: DgpSpec) -> MeanTable:
    """The law's exact mean table, marginalized over the latent class: each
    support cell enters as a record weighted by its probability."""
    s = enumerate_support(dgp)
    return MeanTable.from_arrays(s.z, s.x, s.mean, s.prob)


def simulate(dgp: DgpSpec, n: int, seed: int) -> Dataset:
    """Draw n records: multinomial over support cells, then cell noise."""
    if n < 1:
        raise DgpError("sample size must be at least 1")
    if seed < 0:
        raise DgpError(f"seed must be at least 0, not {seed}")
    s = enumerate_support(dgp)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, s.prob / s.prob.sum())
    z, x, y = (np.empty((n, *c.shape[1:]), c.dtype) for c in (s.z, s.x, s.mean))
    pos = 0
    for i in np.flatnonzero(counts):
        end = pos + counts[i]
        z[pos:end], x[pos:end], y[pos:end] = s.z[i], s.x[i], s.mean[i]
        if dgp.sigma > 0:
            y[pos:end] += dgp.sigma * rng.standard_normal(counts[i])
        pos = end
    perm = rng.permutation(n)
    return Dataset(z[perm], x[perm], y[perm], _sample_ids(n))


def _sample_ids(n: int) -> list[str]:
    """`[f"s{i:06d}" for i in range(1, n + 1)]`, joined from a thousands
    part and a three-digit part rather than formatted one at a time."""
    thousands = [f"s{h:03d}" for h in range(n // 1000 + 1)]
    units = [f"{u:03d}" for u in range(1000)]
    return list(islice(map("".join, product(thousands, units)), 1, n + 1))


def causal_net_effects(dgp: DgpSpec) -> dict[StratumKey, float]:
    """Ground-truth net effect of each reachable (stratum, active arm).

    The latent class is conditioned on the observed history only, the
    focal arm is forced, and every later treatment is forced to control
    while covariates evolve under the kernel.
    """
    T = dgp.horizon

    def forced_value(u, t, z, x) -> float:
        if t == T:
            return float(dgp.outcome_mean(z, x, u))
        total = 0.0
        for vec, pv in _kernel_dist(dgp, t, z, x, u):
            total += pv * forced_value(u, t + 1, z + (0,), x + (vec,))
        return total

    s = enumerate_support(dgp)
    n, w = len(s.u), dgp.covariate_width
    effects: dict[StratumKey, float] = {}
    for t in range(1, T + 1):
        # Each stratum's joint law with u: a stable sort by prefix, then u,
        # orders strata as (z, x) tuples sort and keeps cell order in sums.
        prefix = np.column_stack([s.z[:, : t - 1], s.x[:, : t - 1].reshape(n, (t - 1) * w)])
        order = np.lexsort([s.u, *prefix.T[::-1]])
        rows = prefix[order]
        starts = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
        group, k = 2 * (np.cumsum(starts) - 1) + s.u[order], 2 * int(starts.sum())
        joint = np.bincount(group, s.prob[order], k).reshape(-1, 2)
        for row, masses in zip(rows[starts].tolist(), joint.tolist()):
            z = tuple(row[: t - 1])
            x = tuple(tuple(row[i : i + w]) for i in range(t - 1, len(row), w))
            total, contrast = masses[0] + masses[1], 0.0
            for u, pu in enumerate(masses):
                if pu > 0.0:
                    forced = [forced_value(u, t, z + (arm,), x) for arm in (0, 1)]
                    contrast += (pu / total) * (forced[1] - forced[0])
            effects[StratumKey(z + (1,), x)] = contrast
    return effects


def dataset_from_table(table: MeanTable, scale: int, spread: float = 0.0) -> Dataset:
    """A dataset realizing a probability table exactly.

    Every full-history mass times scale must be an integer count. With a
    positive spread, cell outcomes get mean-preserving offsets so sample
    variances exist; otherwise each cell is constant at its mean.
    """
    cells = []
    for key, node in table.level(2 * table.horizon - 1):
        exact = node.mass * scale
        count = round(exact)
        if count < 1 or abs(exact - count) > 1e-6:
            raise DgpError(
                f"scale {scale} does not turn mass {node.mass!r} of "
                f"{key.label()} into a whole count"
            )
        values = node.derived_mean + _spread_offsets(count, spread)
        cells.append((key.treatments, key.covariates, values))
    return _exact_dataset(cells, table.horizon, table.covariate_width, "p{:06d}")


def _spread_offsets(n: int, magnitude: float) -> np.ndarray:
    if magnitude == 0.0 or n == 1:
        return np.zeros(n)
    if n % 2 == 0:
        return np.tile([magnitude, -magnitude], n // 2)
    if n % 3 == 0:
        return np.tile([magnitude, 0.0, -magnitude], n // 3)
    half = (n - 1) // 2
    steps = np.arange(half, -half - 1, -1, dtype=float)
    return magnitude * steps / half


def make_small_fixture() -> Dataset:
    """16 records over two periods, sized for hand calculation.

    Stratum means: 110/120 under control, 130/132.5 under the active
    first arm; the late contrasts are 20, 20, 20, -10 and the early net
    effect works out to 22.5.
    """
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
    return _exact_dataset(cells, 2, 1, "r{:03d}")


def make_reference_fixture() -> Dataset:
    """160 records over two periods with a clean 3-group structure.

    Late contrasts are 20 everywhere except -20 in the doubly-active
    corner; the early net effect is exactly 30, and every cell carries
    mean-preserving offsets so estimated variances are positive.
    """
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
    expanded = [(z, x, mean + _spread_offsets(count, 4.0)) for z, x, count, mean in cells]
    return _exact_dataset(expanded, 2, 1, "r{:03d}")


def _exact_dataset(cells, horizon: int, width: int, id_format: str) -> Dataset:
    """Records repeating each cell's (z, x) once per value in its outcomes."""
    z = np.array([c[0] for c in cells], dtype=np.int64).reshape(len(cells), horizon)
    x = np.array([c[1] for c in cells], dtype=np.int64).reshape(len(cells), horizon - 1, width)
    counts = [len(values) for _, _, values in cells]
    y = np.concatenate([np.asarray(values, dtype=float) for _, _, values in cells])
    ids = [id_format.format(i + 1) for i in range(len(y))]
    return Dataset(np.repeat(z, counts, axis=0), np.repeat(x, counts, axis=0), y, ids)


def make_pattern_dgp() -> DgpSpec:
    """Three periods, net effects (30, 20, -20) by period, sigma 10."""
    values = (30.0, 20.0, -20.0)

    def assignment(t, z, x, u):
        prev_z = z[t - 2] if t >= 2 else 0
        prev_x = x[t - 2][0] if t >= 2 else 0
        return 0.5 - 0.15 * prev_z + 0.1 * prev_x

    def kernel(t, z, x, u):
        p = 0.4 + 0.1 * z[t - 1]
        return {(0,): 1.0 - p, (1,): p}

    def mean(z, x, u):
        return 100.0 + sum(values[s] for s, v in enumerate(z) if v > 0)

    return DgpSpec(3, assignment, kernel, mean, sigma=10.0)


def make_confounded_dgp() -> DgpSpec:
    """Latent class tilts the first assignment; later periods are clean.

    The true net effects are 5 at the first period and 4 at the second;
    conditioning on the realized first arm inflates the first one by
    10 * (E[u | z1=1] - E[u | z1=0]), about 3.03.
    """

    def assignment(t, z, x, u):
        if t == 1:
            return 0.4 + 0.3 * u
        return 0.5 + 0.1 * x[0][0]

    def kernel(t, z, x, u):
        p = 0.5 + 0.2 * z[0]
        return {(0,): 1.0 - p, (1,): p}

    def mean(z, x, u):
        return 100.0 + 10.0 * u + 5.0 * z[0] + 4.0 * z[1]

    return DgpSpec(2, assignment, kernel, mean, sigma=1.0, latent_prob=0.5)


def make_sequential_dgp() -> DgpSpec:
    """Latent class reaches assignment only through observed covariates.

    Ignorability holds given the observed history, so the population
    recursion and the forced-continuation oracle must agree exactly.
    """

    def assignment(t, z, x, u):
        if t == 1:
            return 0.45
        return 0.35 + 0.2 * x[t - 2][0] + 0.1 * z[t - 2]

    def kernel(t, z, x, u):
        p = 0.3 + 0.25 * z[t - 1] + 0.2 * u
        return {(0,): 1.0 - p, (1,): p}

    def mean(z, x, u):
        late = sum(3.0 * v for v in z[1:])
        return 60.0 + 8.0 * u + 6.0 * z[0] + late + 2.0 * sum(v[0] for v in x)

    return DgpSpec(3, assignment, kernel, mean, sigma=1.0, latent_prob=0.4)


def _markov_mean(z, x, u):
    return 50.0 + sum(25.0 if s == 0 else 10.0 for s, v in enumerate(z) if v > 0)


def make_markov_dgp(horizon: int = 8) -> DgpSpec:
    """Assignment reads only the previous step; effects are 25 then 10."""

    def assignment(t, z, x, u):
        if t == 1:
            return 0.5
        return 0.7 - 0.25 * z[t - 2] - 0.15 * x[t - 2][0]

    def kernel(t, z, x, u):
        p = 0.6 - 0.2 * z[t - 1]
        return {(0,): 1.0 - p, (1,): p}

    return DgpSpec(horizon, assignment, kernel, _markov_mean, sigma=1.0)


def make_dyadic_markov_dgp(horizon: int = 4) -> DgpSpec:
    """Markov law with dyadic probabilities and no noise.

    Scaled by 2 * 4**(2 * (horizon - 1)) the law becomes an exact
    dataset, which pins pooled-mode estimates to their population values
    with no Monte Carlo error at all.
    """

    def assignment(t, z, x, u):
        if t == 1:
            return 0.5
        return 0.75 - 0.25 * z[t - 2] - 0.25 * x[t - 2][0]

    def kernel(t, z, x, u):
        p = 0.5 + 0.25 * z[t - 1]
        return {(0,): 1.0 - p, (1,): p}

    return DgpSpec(horizon, assignment, kernel, _markov_mean, sigma=0.0)


def make_null_proxy_dgp() -> DgpSpec:
    """Every net effect is zero, yet standard parameters move with z1.

    The first covariate is a proxy for the latent class and for the
    first arm at once, and the second assignment follows the proxy.
    Within a covariate profile the outcome still tracks which first arm
    produced it, which is what trips tests built on standard parameters.
    """

    def assignment(t, z, x, u):
        if t == 1:
            return 0.5
        return 0.3 + 0.4 * x[0][0]

    def kernel(t, z, x, u):
        p = 0.05 + 0.45 * z[0] + 0.45 * u
        return {(0,): 1.0 - p, (1,): p}

    def mean(z, x, u):
        return 100.0 + 15.0 * u

    return DgpSpec(2, assignment, kernel, mean, sigma=1.0, latent_prob=0.5)


_SCALARS = {
    "horizon": int,
    "sigma": float,
    "base": float,
    "latent prob": float,
    "latent shift": float,
}
_RULE_NAMES = frozenset({"t", "T", "u"})


def parse_dgp(source: str) -> DgpSpec:
    """Build a DgpSpec from rule text.

    Scalar lines set horizon, sigma, base, latent prob and latent shift.
    Rule lines ('assign', 'covariate', 'effect', each with an optional
    'when <predicate>') are tried first-match-wins; a bare rule is the
    default and nothing may follow it. Covariates in rule files are a
    single binary component, with 'covariate' giving pr(x_t = 1); richer
    kernels need the library interface. Unmatched 'covariate' means the
    component stays 0, unmatched 'effect' contributes nothing, and a
    history with no matching 'assign' rule is an error.
    """
    scalars: dict[str, float] = {}
    rules: dict[str, list[tuple]] = {"assign": [], "covariate": [], "effect": []}
    reads_u: list[tuple[int, str]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        head = head.strip()
        body = body.strip()
        if not sep or not body:
            raise DgpError(f"line {lineno}: expected '<what>: <value>'")
        if head in _SCALARS:
            if head in scalars:
                raise DgpError(f"line {lineno}: duplicate '{head}'")
            try:
                scalars[head] = _SCALARS[head](body)
            except ValueError:
                raise DgpError(f"line {lineno}: bad value {body!r} for '{head}'") from None
            continue
        kind, _, condition = head.partition(" when ")
        kind = kind.strip()
        condition = condition.strip()
        if kind not in rules:
            raise DgpError(f"line {lineno}: unknown directive {head!r}")
        if rules[kind] and rules[kind][-1][0] is None:
            raise DgpError(
                f"line {lineno}: unreachable '{kind}' rule after its default"
            )
        # 'u' is allowed here because 'latent prob' may come later.
        try:
            pred = compile_expr(condition, _RULE_NAMES, DgpError) if condition else None
            value = compile_expr(body, _RULE_NAMES, DgpError)
        except DgpError as exc:
            raise DgpError(f"line {lineno}: {exc}") from None
        reads_u += [(lineno, e.text) for e in (pred, value) if e and "u" in e.uses]
        rules[kind].append((pred, value))
    if "horizon" not in scalars:
        raise DgpError("a rule file needs a 'horizon:' line")
    if not rules["assign"]:
        raise DgpError("a rule file needs at least one 'assign' rule")
    horizon = int(scalars["horizon"])
    latent_prob = scalars.get("latent prob", 0.0)
    if "latent shift" in scalars and "latent prob" not in scalars:
        raise DgpError("'latent shift' without 'latent prob' has no meaning")
    if reads_u and not latent_prob > 0.0:
        lineno, text = reads_u[0]
        try:
            compile_expr(text, {"t", "T"}, DgpError)
        except DgpError as exc:
            raise DgpError(f"line {lineno}: {exc}") from None
    base = scalars.get("base", 0.0)
    shift = scalars.get("latent shift", 0.0)
    sigma = scalars.get("sigma", 1.0)

    def z_beyond(s):
        return f"z[{s}] is not realized yet at this point of the law"

    def x_beyond(s):
        return f"x[{s}] is not realized yet at this point of the law"

    def env_for(t, z, x, u):
        # Without a latent class u is always 0 and no rule reads it.
        return {
            "t": t,
            "T": horizon,
            "u": u,
            "z": TreatmentView(1, z, DgpError, z_beyond),
            "x": CovariateView(1, x, DgpError, x_beyond),
        }

    def apply(kind, env):
        for pred, value in rules[kind]:
            if pred is None or pred.eval_predicate(env):
                return value.eval_number(env)
        return None

    def assignment(t, z, x, u):
        p = apply("assign", env_for(t, z, x, u))
        if p is None:
            raise DgpError(f"no 'assign' rule matches time {t} given z={z} x={x}")
        return p

    def kernel(t, z, x, u):
        p = apply("covariate", env_for(t, z, x, u))
        p = 0.0 if p is None else p
        if not 0.0 <= p <= 1.0:
            raise DgpError(f"covariate probability {p!r} at time {t} is outside [0, 1]")
        return {(0,): 1.0 - p, (1,): p}  # _kernel_dist drops a zero branch

    def mean(z, x, u):
        total = base + shift * u
        for t, zt in enumerate(z, start=1):
            if zt > 0:
                value = apply("effect", env_for(t, z[:t], x[: t - 1], u))
                if value is not None:
                    total += value
        return total

    return DgpSpec(
        horizon,
        assignment,
        kernel,
        mean,
        sigma=sigma,
        covariate_width=1,
        latent_prob=latent_prob,
    )
