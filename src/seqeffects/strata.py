"""Point-effect targets and the variances of their arm means.

Mean variances come in two modes: a known outcome variance sigma^2
(divided by the arm count) or the within-arm estimate
sum (y - mean)^2 / (n (n - 1)), which needs n >= 2. Target enumeration
walks every conditioning stratum and pairs each active treatment arm with
its control arm; the collapsed variant pools records over everything
before the previous period.

Targets read each period's arms off `Dataset.periods`, never the trie,
and keep their indices there: an arm and its control are runs of records
in the one flat layout that serves both the full-history and the pooled
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, PeriodArms, _PickedKeys
from .errors import EstimabilityError, UsageError
from .keys import PointEffectKey


@dataclass(frozen=True)
class VarianceMode:
    """How var{arm mean} is computed: known sigma^2 or estimated."""

    kind: str
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("known", "estimated"):
            raise UsageError(f"unknown variance mode {self.kind!r}")
        if self.kind == "known" and not 0 < self.sigma2 < math.inf:
            raise UsageError("known outcome variance must be positive and finite")

    @classmethod
    def known(cls, sigma2: float = 1.0) -> "VarianceMode":
        return cls("known", float(sigma2))

    @classmethod
    def estimated(cls) -> "VarianceMode":
        return cls("estimated")

    @classmethod
    def parse(cls, text: str) -> "VarianceMode":
        """Parse the CLI form: 'estimated' or 'known:<sigma2>'."""
        if text == "estimated":
            return cls.estimated()
        if text == "known":
            return cls.known()
        if text.startswith("known:"):
            try:
                return cls.known(float(text.split(":", 1)[1]))
            except ValueError:
                pass
        raise UsageError(
            f"variance mode {text!r} is not 'estimated' or 'known:<sigma2>'"
        )

    def label(self) -> str:
        return "estimated" if self.kind == "estimated" else f"known:{self.sigma2!r}"


def _mean(values: np.ndarray) -> float:
    """`float(values.mean())`, which is this sum over the count, without
    `mean()`'s overhead per call."""
    return float(np.add.reduce(values) / values.size)


def _mean_variance(values: np.ndarray, mode: VarianceMode) -> float:
    n = values.size
    if mode.kind == "known":
        return mode.sigma2 / n
    if n < 2:
        raise EstimabilityError(
            "estimated mean variance needs at least 2 records"
        )
    if values.min() == values.max():
        # The mean of equal values can round away from them.
        return 0.0
    mean = _mean(values)
    return float(((values - mean) ** 2).sum()) / (n * (n - 1))


# -- point-effect targets ------------------------------------------------


@dataclass
class PointEffectTarget:
    """One estimable contrast: an active arm against its stratum's control.

    `arm` and `control` index the arms of `period`, the layout the
    target was enumerated from, so callers can compute either variance
    mode or locate the records without re-slicing. `key` is the arm's
    key, built when read.
    """

    period: PeriodArms
    arm: int
    control: int

    @property
    def key(self) -> PointEffectKey:
        return self.period.keys[self.arm]

    @property
    def time(self) -> int:
        return self.period.time

    @property
    def arm_values(self) -> np.ndarray:
        return self.period.values(self.arm)

    @property
    def control_values(self) -> np.ndarray:
        return self.period.values(self.control)

    @property
    def arm_count(self) -> int:
        return self.arm_values.size

    @property
    def control_count(self) -> int:
        return self.control_values.size

    @property
    def estimate(self) -> float:
        return _mean(self.arm_values) - _mean(self.control_values)

    def variance(self, mode: VarianceMode) -> float:
        """var{arm mean} + var{control mean}; inf when not estimable."""
        try:
            va = _mean_variance(self.arm_values, mode)
            vc = _mean_variance(self.control_values, mode)
        except EstimabilityError:
            return math.inf
        return va + vc


class _SkippedArms(_PickedKeys):
    """The active arms without a control arm, as a read-only sequence of
    (key, reason) pairs; a key is built when read, and `labels()` gives
    the keys' labels without building them."""

    __slots__ = ()
    reason = "control arm unobserved"

    def __getitem__(self, i):
        if isinstance(i, slice):
            return super().__getitem__(i)
        return super().__getitem__(i), self.reason


def point_effect_targets(
    d: Dataset, markov: bool = False
) -> tuple[list[PointEffectTarget], _SkippedArms]:
    """Enumerate treatment contrasts, full-history or collapsed.

    Returns (targets, skipped) where skipped pairs an active-arm key with
    the reason no contrast exists for it (its control arm is unobserved).
    Ordering is deterministic: by period, then by key symbols. Outcome
    arrays are views of the period's outcomes.
    """
    targets: list[PointEffectTarget] = []
    skipped_periods: list[PeriodArms] = []
    skipped_arms: list[int] = []
    for period in d.periods(markov):
        active = np.flatnonzero(period.arms)
        control = period.control[active]
        lone = control < 0
        skipped_arms += active[lone].tolist()
        skipped_periods += [period] * int(lone.sum())
        targets += [
            PointEffectTarget(period, g, c)
            for g, c in zip(active[~lone].tolist(), control[~lone].tolist())
        ]
    return targets, _SkippedArms(skipped_periods, skipped_arms)
