"""Point-effect targets and the variances of their arm means.

Mean variances come in two modes: a known outcome variance sigma^2
(divided by the arm count) or the within-arm estimate
sum (y - mean)^2 / (n (n - 1)), which needs n >= 2. Target enumeration
walks every conditioning stratum and pairs each active treatment arm with
its control arm; the collapsed variant pools records over everything
before the previous period.

Targets read each period's arms off `Dataset.periods`, never the trie,
and are held as arrays of indices there: an arm and its control are runs
of records in the one flat layout that serves both the full-history and
the pooled mode. Estimates, counts and mean variances index per-arm
arrays that each period reduces from its outcomes once (`PeriodArms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset, PeriodArms, _PickedKeys
from .errors import UsageError


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


def _mean_variances(period: PeriodArms, index: np.ndarray, mode: VarianceMode) -> np.ndarray:
    """var{arm mean} of the arms `index` of `period`, inf where it is not
    estimable."""
    n = period.counts[index]
    if mode.kind == "known":
        return mode.sigma2 / n
    squares, equal = period._spreads
    out = np.full(n.size, math.inf)
    two = n >= 2
    out[two] = squares[index[two]] / (n[two] * (n[two] - 1))
    out[two & equal[index]] = 0.0  # the mean of equal values can round away from them
    return out


# -- point-effect targets ------------------------------------------------


class _Targets(_PickedKeys):
    """The point-effect targets, as a read-only sequence of their keys.

    Target i contrasts active arm `arms[i]` of `periods[i]` with that
    period's control arm `controls[i]`, at time `times[i]`; item i is the
    arm's key, built when read. Targets run by period, then by key, so the
    targets of one stratum, which share its control, are consecutive. The
    methods give one entry per target, in this order.
    """

    __slots__ = ("controls", "times")

    def __init__(self, periods, arms, controls):
        super().__init__(periods, arms)
        self.controls = controls
        self.times = np.array([period.time for period in periods], dtype=np.int64)

    def pick(self, column: Callable[[PeriodArms, np.ndarray], np.ndarray]):
        """(each target's arm entry, its control's entry) of a per-arm
        column: `column(period, index)` gives the entries of the arms
        `index` of `period`, and is called once per period."""
        arm, control = [], []
        for period, at in self._runs():
            both = column(period, np.concatenate([self.arms[at], self.controls[at]]))
            arm.append(both[: at.stop - at.start])
            control.append(both[at.stop - at.start :])
        if not arm:
            return np.empty(0), np.empty(0)
        return np.concatenate(arm), np.concatenate(control)

    def estimates(self) -> np.ndarray:
        """Arm mean minus control mean."""
        arm, control = self.pick(lambda period, g: period.means[g])
        return arm - control

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The record counts of the arms and of the controls."""
        return self.pick(lambda period, g: period.counts[g])

    def mean_variances(self, mode: VarianceMode) -> tuple[np.ndarray, np.ndarray]:
        """var{arm mean} and var{control mean}; inf when not estimable."""
        return self.pick(lambda period, g: _mean_variances(period, g, mode))

    def variances(self, mode: VarianceMode) -> np.ndarray:
        """var{arm mean} + var{control mean}; inf when not estimable."""
        arm, control = self.mean_variances(mode)
        return arm + control

    def blocks(self, index: np.ndarray) -> list[np.ndarray]:
        """The ascending target indices `index`, split into the runs of
        targets with one period and one control arm."""
        if not len(index):
            return []
        times, controls = self.times[index], self.controls[index]
        new = (times[1:] != times[:-1]) | (controls[1:] != controls[:-1])
        return np.split(index, np.flatnonzero(new) + 1)


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


def point_effect_targets(d: Dataset, markov: bool = False) -> tuple[_Targets, _SkippedArms]:
    """Enumerate treatment contrasts, full-history or collapsed.

    Returns (targets, skipped) where skipped pairs an active-arm key with
    the reason no contrast exists for it (its control arm is unobserved).
    Ordering is deterministic: by period, then by key symbols.
    """
    periods, arms, controls = [], [], []
    skipped_periods, skipped_arms = [], []
    for period in d.periods(markov):
        active = np.flatnonzero(period.arms)
        control = period.control[active]
        lone = control < 0
        skipped_arms += active[lone].tolist()
        skipped_periods += [period] * int(lone.sum())
        arms.append(active[~lone])
        controls.append(control[~lone])
        periods += [period] * arms[-1].size
    targets = _Targets(periods, np.concatenate(arms), np.concatenate(controls))
    return targets, _SkippedArms(skipped_periods, skipped_arms)
