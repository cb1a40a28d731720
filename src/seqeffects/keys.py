"""Stratum keys: typed prefixes of the interleaved treatment/covariate path.

A record's history reads z1, x1, z2, x2, ..., x_{T-1}, zT. A stratum is the
set of records sharing a prefix of that interleaved sequence, so a key is a
pair of tuples (treatments, covariates) whose lengths differ by at most one.
The empty key denotes the whole sample. A key formats its label on each
call, from a template kept per key shape whose slots take the history in
order, so a period formats labels straight from its rows of history.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

from .errors import UsageError

# Covariate vectors are stored as plain int tuples so that keys hash and
# compare structurally.
Covariate = tuple[int, ...]


@cache
def _template(nz: int, widths: tuple[int, ...]) -> str:
    """The label template of a full-history key with `nz` treatments and
    covariate vectors of these widths, whose slots take the history in
    order: z1, the components of x1, z2, ..."""
    parts = []
    pos = 0
    for i in range(nz):
        parts.append(f"z{i + 1}={{{pos}}}")
        pos += 1
        if i < len(widths):
            slots = ",".join(f"{{{j}}}" for j in range(pos, pos + widths[i]))
            parts.append(f"x{i + 1}={slots}")
            pos += widths[i]
    return " ".join(parts)


@cache
def _markov_template(t: int, width: int) -> str:
    """The label template of a time-t pooled key with covariate vectors of
    `width` components: the previous treatment, the covariates, then the
    treatment."""
    slots = ",".join(f"{{{j}}}" for j in range(1, width + 1))
    return f"z{t - 1}={{0}} x{t - 1}={slots} z{t}={{{width + 1}}} pooled"


@dataclass(frozen=True)
class StratumKey:
    """Prefix of the interleaved history defining a subpopulation.

    ``len(treatments) == len(covariates)`` is a covariate-ended key (the
    conditioning set for a covariate effect at the next period), while
    ``len(treatments) == len(covariates) + 1`` ends with a treatment and
    identifies one arm at time ``len(treatments)``.
    """

    treatments: tuple[int, ...] = ()
    covariates: tuple[Covariate, ...] = ()

    def __post_init__(self):
        nz, nx = len(self.treatments), len(self.covariates)
        if nz not in (nx, nx + 1):
            raise UsageError(
                f"invalid key shape: {nz} treatments with {nx} covariate entries"
            )
        if min(self.treatments, default=0) < 0:
            raise UsageError("treatment codes must be non-negative")
        if min(chain.from_iterable(self.covariates), default=0) < 0:
            raise UsageError("covariate codes must be non-negative")

    @property
    def depth(self) -> int:
        """Number of interleaved symbols fixed by this key."""
        return len(self.treatments) + len(self.covariates)

    @property
    def time(self) -> int:
        """Treatment periods covered (the t of a treatment-ended key)."""
        return len(self.treatments)

    @property
    def ends_with_treatment(self) -> bool:
        return len(self.treatments) == len(self.covariates) + 1

    def symbols(self) -> list:
        """Interleaved prefix: ints for treatments, tuples for covariates."""
        out: list = []
        for i, z in enumerate(self.treatments):
            out.append(z)
            if i < len(self.covariates):
                out.append(self.covariates[i])
        return out

    def with_treatment(self, z: int) -> "StratumKey":
        if self.ends_with_treatment:
            raise UsageError(f"{self.label()} already ends with a treatment")
        return StratumKey(self.treatments + (z,), self.covariates)

    def with_covariate(self, vec: Covariate) -> "StratumKey":
        if not self.treatments or not self.ends_with_treatment:
            raise UsageError(f"{self.label()} cannot take a covariate next")
        return StratumKey(self.treatments, self.covariates + (tuple(vec),))

    def parent_stratum(self) -> "StratumKey":
        """Drop the trailing symbol (the conditioning set of this arm)."""
        if self.ends_with_treatment:
            return StratumKey(self.treatments[:-1], self.covariates)
        return StratumKey(self.treatments, self.covariates[:-1])

    def arm(self) -> int:
        """Trailing treatment of a treatment-ended key."""
        if not self.ends_with_treatment:
            raise UsageError(f"{self.label()} does not end with a treatment")
        return self.treatments[-1]

    def sibling(self, z: int) -> "StratumKey":
        """Same conditioning stratum, different trailing treatment."""
        return self.parent_stratum().with_treatment(z)

    def label(self) -> str:
        if not self.treatments:
            return "(all)"
        template = _template(len(self.treatments), tuple(map(len, self.covariates)))
        history = zip(self.treatments, chain(self.covariates, [()]))
        return template.format(*chain.from_iterable((z, *x) for z, x in history))

    def __repr__(self) -> str:  # keeps test output readable
        return f"StratumKey<{self.label()}>"


@dataclass(frozen=True)
class MarkovKey:
    """Collapsed point-effect key conditioning only on the previous period.

    Used when long sequences make full-history strata too thin: records are
    pooled over everything before (z_{t-1}, x_{t-1}), and ``treatment`` is
    the arm taken at time ``time``. Only defined for time >= 2.
    """

    time: int
    prev_treatment: int
    prev_covariate: Covariate
    treatment: int

    def __post_init__(self):
        if self.time < 2:
            raise UsageError("collapsed keys require time >= 2")
        if self.prev_treatment < 0 or self.treatment < 0:
            raise UsageError("treatment codes must be non-negative")

    def label(self) -> str:
        template = _markov_template(self.time, len(self.prev_covariate))
        return template.format(self.prev_treatment, *self.prev_covariate, self.treatment)

    def arm(self) -> int:
        return self.treatment

    def sibling(self, z: int) -> "MarkovKey":
        return MarkovKey(self.time, self.prev_treatment, self.prev_covariate, z)

    def __repr__(self) -> str:
        return f"MarkovKey<{self.label()}>"


PointEffectKey = StratumKey | MarkovKey

