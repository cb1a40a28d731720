"""Net effects of sequence-position treatments via backward recursion.

The net effect of taking arm z_t (vs control) at stratum (z_1^{t-1},
x_1^{t-1}) is the arm contrast of the control-continuation means: the
stratum-arm mean with the mass-weighted contributions of all *downstream*
active-arm net effects removed. Computed backward from the last period,
where the net effect is just the arm contrast of stratum means.

`downstream_weighted_sum` is the trie's kernel for mass-weighted
downstream loads, and the recursion runs it on net effects. Pattern fits
never build the trie: they sum downstream feature loads over the flat
per-period arms of `Dataset.periods` instead (`patterns`).

The point effect (plain arm contrast of stratum means at any period)
decomposes as its own net effect plus the difference between the two arms'
downstream net-effect loads; `verify_decomposition` checks that identity
against directly contrasted stored means and reports the worst deviation.
It checks every arm whose own and control subtrees are complete, which
the recursion finds in its own backward pass, and lists the other active
arms as skipped. Arms are read in child order, which is symbol order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import EstimabilityError, IncompletenessError
from .keys import StratumKey
from .tables import MeanTable, TableNode


@dataclass
class NetEffectTable:
    """Net effects for active arms plus control-continuation means.

    `effects` maps treatment-ended keys with a nonzero arm to their net
    effect; `control_means` holds the control-continuation mean for every
    arm (zero arms included), equal to the stratum mean at the last period.
    """

    horizon: int
    effects: dict[StratumKey, float] = field(default_factory=dict)
    control_means: dict[StratumKey, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "horizon": self.horizon,
            "effects": [
                {"key": k.label(), "value": v} for k, v in self.effects.items()
            ],
            "control_means": [
                {"key": k.label(), "value": v} for k, v in self.control_means.items()
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def missing_controls(table: MeanTable) -> list[StratumKey]:
    """Strata holding an active arm but no control arm, shallowest first."""
    out = []
    for depth in range(0, 2 * table.horizon - 1, 2):
        for key, node in table.level(depth):
            if node.children and 0 not in node.children:
                out.append(key)
    return out


def downstream_weighted_sum(table: MeanTable, value_fn):
    """The downstream-load kernel: returns load(key, node=None) for any arm.

    The load of a treatment-ended stratum is the sum of value_fn over the
    active arms below it (every later z_s > 0), each weighted by its share
    of the stratum's mass. One backward recursion builds it,

        load(a) = sum over (x_t, z_{t+1}) of mass(g) * (load(g) + value(g)) / mass(a)

    with value(g) = value_fn(key of g) for active g and nothing for a
    control. Loads are memoized, so each arm is visited at most once per
    kernel, and value_fn runs only at arms below an arm whose load was
    asked for. value_fn may return floats or numpy vectors; an arm with
    no active arm below has load 0.0.
    """
    memo: dict[TableNode, object] = {}

    def load(key: StratumKey, node: TableNode | None = None):
        if node is None:
            node = table.require(key)
        if not node.children:
            return 0.0
        out = memo.get(node)
        if out is None:
            acc = 0.0
            for vec, xnode in node.children.items():
                xkey = key.with_covariate(vec)
                for z, gnode in xnode.children.items():
                    gkey = xkey.with_treatment(z)
                    g = load(gkey, gnode)
                    if z > 0:
                        g = g + value_fn(gkey)
                    acc = acc + gnode.mass * g
            out = memo[node] = acc / node.mass
        return out

    return load


def compute_net_effects(table: MeanTable) -> NetEffectTable:
    """Run the backward recursion over a complete table.

    Every stratum holding an active arm must also hold its control arm;
    IncompletenessError lists every stratum that does not. Sums run over
    the observed alphabet only. Periods run last to first, so the net
    effects a load needs are in place before the kernel asks for them.
    """
    incomplete = missing_controls(table)
    if incomplete:
        raise IncompletenessError(
            "control arm unobserved in "
            + "; ".join(k.label() for k in incomplete[:20])
            + (f" and {len(incomplete) - 20} more strata" if len(incomplete) > 20 else "")
        )
    return _net_effects(table)[0]


def _net_effects(table: MeanTable) -> tuple[NetEffectTable, set[TableNode]]:
    """The recursion, and the arms it leaves out: those with a stratum
    below that holds no control arm, or an arm already left out. Running
    last period to first finds them before any load needs them. An active
    arm whose control is missing or left out gets a control-continuation
    mean but no net effect.
    """
    net = NetEffectTable(table.horizon)
    left_out: set[TableNode] = set()
    load = downstream_weighted_sum(table, net.effects.__getitem__)
    for t in range(table.horizon, 0, -1):
        for pkey, pnode in table.level(2 * (t - 1)):
            base = None
            for z, anode in pnode.children.items():
                if any(
                    0 not in s.children or not left_out.isdisjoint(s.children.values())
                    for s in anode.children.values()
                ):
                    left_out.add(anode)
                    continue
                akey = pkey.with_treatment(z)
                mean = anode.derived_mean - load(akey, anode)
                net.control_means[akey] = mean
                if z == 0:
                    base = mean
                elif base is not None:
                    net.effects[akey] = mean - base
    return net, left_out


def decompose_point_effect(
    net: NetEffectTable, table: MeanTable, key: StratumKey
) -> float:
    """Rebuild the point effect of an active arm from net-effect parts.

    Equals the arm's own net effect plus the arm-vs-control difference in
    downstream net-effect load. Each load is read back from the table the
    recursion left: the arm's leaf-derived mean minus its
    control-continuation mean.
    """
    if not key.ends_with_treatment or key.arm() == 0:
        raise EstimabilityError(f"{key.label()} does not name an active arm")
    arm = table.node(key)
    control_key = key.sibling(0)
    control = table.node(control_key)
    if arm is None or control is None:
        raise IncompletenessError(
            f"both arms of {key.parent_stratum().label()} are needed"
        )
    arm_load = arm.derived_mean - net.control_means[key]
    control_load = control.derived_mean - net.control_means[control_key]
    return net.effects[key] + arm_load - control_load


@dataclass
class DecompositionEntry:
    key: StratumKey
    point_effect: float
    decomposition: float

    @property
    def deviation(self) -> float:
        return abs(self.point_effect - self.decomposition)


@dataclass
class DecompositionReport:
    entries: list[DecompositionEntry]
    tolerance: float
    skipped: list[tuple[StratumKey, str]] = field(default_factory=list)

    @property
    def max_deviation(self) -> float:
        return max((e.deviation for e in self.entries), default=0.0)

    @property
    def flagged(self) -> bool:
        return self.max_deviation > self.tolerance

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "flagged": self.flagged,
            "entries": [
                {
                    "key": e.key.label(),
                    "point_effect": e.point_effect,
                    "decomposition": e.decomposition,
                    "deviation": e.deviation,
                }
                for e in self.entries
            ],
            "skipped": [
                {"key": key.label(), "reason": reason} for key, reason in self.skipped
            ],
        }


def verify_decomposition(table: MeanTable, tolerance: float = 1e-8) -> DecompositionReport:
    """Contrast stored arm means against the net-effect decomposition.

    The direct side reads stored stratum means (overrides included), the
    decomposition side reads the loads the recursion left in the
    NetEffectTable, which it built from leaf-derived means, so a planted
    inconsistency in any internal mean shows up as a deviation. An active
    arm is checked when its stratum holds a control arm and neither arm
    has a control-less stratum below it; the others are listed as
    skipped with the reason.
    """
    net, left_out = _net_effects(table)
    entries = []
    skipped = []
    for t in range(1, table.horizon + 1):
        for pkey, pnode in table.level(2 * (t - 1)):
            control = pnode.children.get(0)
            for z, anode in pnode.children.items():
                if z == 0:
                    continue
                akey = pkey.with_treatment(z)
                if control is None:
                    skipped.append((akey, "control arm unobserved"))
                elif anode in left_out:
                    skipped.append((akey, "control arm unobserved below the arm"))
                elif control in left_out:
                    skipped.append((akey, "control arm unobserved below its control"))
                else:
                    direct = table.mean(akey) - table.mean(pkey.with_treatment(0))
                    entries.append(
                        DecompositionEntry(
                            akey, direct, decompose_point_effect(net, table, akey)
                        )
                    )
    return DecompositionReport(entries, tolerance, skipped)
