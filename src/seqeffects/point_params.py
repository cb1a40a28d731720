"""Point parametrization of a stratum-mean table.

A table of full-history means is re-expressed as: a treatment point effect
for every active arm of every conditioning stratum (arm mean minus control
mean), a covariate point effect for every nonzero covariate vector (same
contrast against the zero vector), and a single grand mean. On a complete
table the map is a bijection; `reconstruct_history_mean` inverts it by a
left-to-right fold that subtracts each period's proportion-weighted effect
average and adds back the effect actually taken.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .errors import EstimabilityError, IncompletenessError
from .keys import StratumKey
from .tables import MeanTable

log = logging.getLogger(__name__)


@dataclass
class PointParams:
    """Treatment effects, covariate effects, and the grand mean.

    Keys of `treatment_effects` end with an active arm (z_t > 0); keys of
    `covariate_effects` end with a nonzero covariate vector. Contrasts
    against a control/zero arm the source never observed are simply absent.
    """

    treatment_effects: dict[StratumKey, float] = field(default_factory=dict)
    covariate_effects: dict[StratumKey, float] = field(default_factory=dict)
    grand_mean: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "treatment_effects": [
                {"key": k.label(), "value": v}
                for k, v in self.treatment_effects.items()
            ],
            "covariate_effects": [
                {"key": k.label(), "value": v}
                for k, v in self.covariate_effects.items()
            ],
            "grand_mean": self.grand_mean,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def extract_point_params(table: MeanTable) -> PointParams:
    """Sweep every stratum and collect all estimable point effects.

    Non-estimable contrasts (missing control arm or missing zero covariate
    vector) are logged and skipped; reconstruction of any history touching
    them will fail loudly instead of imputing.
    """
    params = PointParams(grand_mean=table.root.mean)
    horizon = table.horizon
    for t in range(1, horizon + 1):
        for pkey, pnode in table.level(2 * (t - 1)):
            control = pnode.children.get(0)
            for z, anode in pnode.children.items():
                if z == 0:
                    continue
                akey = pkey.with_treatment(z)
                if control is None:
                    log.info("no control arm for %s; effect skipped", akey.label())
                    continue
                params.treatment_effects[akey] = anode.mean - control.mean
        if t <= horizon - 1:
            zero = (0,) * table.covariate_width
            for pkey, pnode in table.level(2 * t - 1):
                ref = pnode.children.get(zero)
                for vec, cnode in pnode.children.items():
                    if vec == zero:
                        continue
                    ckey = pkey.with_covariate(vec)
                    if ref is None:
                        log.info(
                            "no reference covariate for %s; effect skipped",
                            ckey.label(),
                        )
                        continue
                    params.covariate_effects[ckey] = cnode.mean - ref.mean
    return params


def reconstruct_history_mean(
    params: PointParams, table: MeanTable, history: StratumKey
) -> float:
    """Invert the parametrization for one full history.

    The proportion source must be the same table the parameters were
    extracted from (or an exact law with identical support). At each period
    the fold subtracts the proportion-weighted average of that period's
    effects over observed arms and adds the effect of the arm the history
    actually took; the covariate periods do the same with covariate
    effects.
    """
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
                raise IncompletenessError(
                    f"missing treatment effect for {akey.label()}"
                )
            total -= params.treatment_effects[akey] * (child.mass / pnode.mass)
        if z_t > 0:
            akey = prefix.with_treatment(z_t)
            if akey not in params.treatment_effects:
                raise IncompletenessError(
                    f"missing treatment effect for {akey.label()}"
                )
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
