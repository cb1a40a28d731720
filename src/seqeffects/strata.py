"""Stratum-level statistics: mean variances and point-effect targets.

Mean variances come in two modes: a known outcome variance sigma^2
(divided by the stratum count) or the within-stratum estimate
sum (y - mean)^2 / (n (n - 1)), which needs n >= 2. Target enumeration
walks every conditioning stratum and pairs each active treatment arm with
its control arm; the collapsed variant pools records over everything
before the previous period.

Targets read each period's arms off `Dataset.periods`, never the trie:
an arm and its control are runs of records in one flat layout that
serves both the full-history and the pooled mode.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import EstimabilityError, UsageError
from .keys import PointEffectKey, StratumKey

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VarianceMode:
    """How var{stratum mean} is computed: known sigma^2 or estimated."""

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


def _mean_variance(values: np.ndarray, mode: VarianceMode) -> float:
    n = values.size
    if mode.kind == "known":
        return mode.sigma2 / n
    if n < 2:
        raise EstimabilityError(
            "estimated mean variance needs at least 2 records"
        )
    mean = float(values.mean())
    return float(((values - mean) ** 2).sum()) / (n * (n - 1))


def stratum_mean_variance(d: Dataset, key: StratumKey, mode: VarianceMode) -> float:
    node = d.table.node(key)
    if node is None:
        raise EstimabilityError(f"stratum {key.label()} is empty")
    values = d.table.y_sorted[node.lo : node.hi]
    return _mean_variance(values, mode)


def grand_mean(d: Dataset) -> float:
    """Arithmetic mean of every outcome (the depth-0 stratum mean)."""
    return d.table.root.mean


# -- point-effect targets ------------------------------------------------


@dataclass
class PointEffectTarget:
    """One estimable (or skippable) contrast: an active arm vs control.

    Holds the outcome value views for both arms so callers can compute
    either variance mode without re-slicing.
    """

    key: PointEffectKey
    time: int
    arm_values: np.ndarray
    control_values: np.ndarray

    @property
    def arm_count(self) -> int:
        return self.arm_values.size

    @property
    def control_count(self) -> int:
        return self.control_values.size

    @property
    def estimate(self) -> float:
        return float(self.arm_values.mean()) - float(self.control_values.mean())

    def variance(self, mode: VarianceMode) -> float:
        """var{arm mean} + var{control mean}; inf when not estimable."""
        try:
            va = _mean_variance(self.arm_values, mode)
            vc = _mean_variance(self.control_values, mode)
        except EstimabilityError:
            return math.inf
        return va + vc


def point_effect_targets(
    d: Dataset, markov: bool = False
) -> tuple[list[PointEffectTarget], list[tuple[PointEffectKey, str]]]:
    """Enumerate treatment contrasts, full-history or collapsed.

    Returns (targets, skipped) where skipped pairs an active-arm key with
    the reason no contrast exists for it (its control arm is unobserved).
    Ordering is deterministic: by period, then by key symbols. Outcome
    arrays are views of the period's outcomes.
    """
    targets: list[PointEffectTarget] = []
    skipped: list[tuple[PointEffectKey, str]] = []
    for t, period in enumerate(d.periods(markov), start=1):
        for g in np.flatnonzero(period.arms).tolist():
            c = int(period.control[g])
            if c < 0:
                skipped.append((period.keys[g], "control arm unobserved"))
            else:
                targets.append(
                    PointEffectTarget(period.keys[g], t, period.values(g), period.values(c))
                )
    return targets, skipped
