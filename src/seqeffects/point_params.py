"""Point parametrization of a stratum-mean table.

A table of full-history means is re-expressed as: a treatment point effect
for every active arm of every conditioning stratum (arm mean minus control
mean), a covariate point effect for every nonzero covariate vector (same
contrast against the zero vector), and a single grand mean. On a complete
table the map is a bijection; `reconstruct_history_mean` inverts it by a
left-to-right fold that subtracts each period's proportion-weighted effect
average and adds back the effect actually taken.

Both directions run one loop over the interleaved depths of the history
trie: even depths are treatment strata, contrasted against arm 0; odd
depths are covariate strata, contrasted against the zero vector.
Children are read in symbol order, as the table keeps them.
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


_REFERENCE = {"treatment": "control arm", "covariate": "reference covariate"}


def _stratum_step(params: PointParams, depth: int, width: int):
    """Key extension, reference child, effects and their kind at `depth`:
    treatment strata (reference arm 0) at even depths, covariate at odd."""
    if depth % 2:
        return StratumKey.with_covariate, (0,) * width, params.covariate_effects, "covariate"
    return StratumKey.with_treatment, 0, params.treatment_effects, "treatment"


def extract_point_params(table: MeanTable) -> PointParams:
    """Sweep every stratum and collect all estimable point effects.

    Non-estimable contrasts (missing control arm or missing zero covariate
    vector) are logged and skipped; reconstruction of any history touching
    them will fail loudly instead of imputing.
    """
    params = PointParams(grand_mean=table.root.mean)
    for depth in range(2 * table.horizon - 1):
        extend, ref, effects, kind = _stratum_step(params, depth, table.covariate_width)
        for pkey, pnode in table.level(depth):
            ref_node = pnode.children.get(ref)
            for sym, node in pnode.children.items():
                if sym == ref:
                    continue
                key = extend(pkey, sym)
                if ref_node is None:
                    log.info("no %s for %s; effect skipped", _REFERENCE[kind], key.label())
                    continue
                effects[key] = node.mean - ref_node.mean
    return params


def reconstruct_history_mean(
    params: PointParams, table: MeanTable, history: StratumKey
) -> float:
    """Invert the parametrization for one full history.

    The proportion source must be the same table the parameters were
    extracted from (or an exact law with identical support). At each
    stratum along the history, treatment and covariate alike, the fold
    subtracts the proportion-weighted average of the effects over its
    observed children and adds the effect of the child the history
    actually took.
    """
    if history.time != table.horizon or not history.ends_with_treatment:
        raise EstimabilityError(
            f"{history.label()} is not a full history for horizon {table.horizon}"
        )
    total = params.grand_mean
    prefix = StratumKey()
    for depth, taken in enumerate(history.symbols()):
        extend, ref, effects, kind = _stratum_step(params, depth, table.covariate_width)
        pnode = table.require(prefix)

        def effect(sym):
            key = extend(prefix, sym)
            if key not in effects:
                raise IncompletenessError(f"missing {kind} effect for {key.label()}")
            return effects[key]

        for sym, child in pnode.children.items():
            if sym != ref:
                total -= effect(sym) * (child.mass / pnode.mass)
        if taken != ref:
            total += effect(taken)
        prefix = extend(prefix, taken)
    return total
