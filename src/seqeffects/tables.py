"""Stratum mean tables over the interleaved history trie.

One structure serves both evaluation modes: an empirical table built from a
dataset (node masses are integer record counts) and an exact table built
from an explicit joint law over full histories (masses are probabilities).
A stratum's share of its parent is the ratio of the two node masses.
The empirical table is built one level at a time from records sorted by
history. Both builders keep every node's children in symbol order, so
`levels` lists each depth in key-symbol order without sorting, and code
reading children in dict order reads them sorted.
The table keeps masses and means only; where a record sits is known to
`Dataset.periods` alone. Internal-node means are always the mass-weighted
aggregate of the leaves below, which is what the recursive computations
consume; `perturb_mean` can plant a stored override on top for
diagnostics, and plain reads report it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EstimabilityError, UsageError
from .keys import StratumKey

_PROB_SUM_TOL = 1e-9


def sort_histories(z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """A stable sort of the records by interleaved history z1, x1, ..., zT,
    and the history's columns (one per treatment or covariate component)."""
    horizon = z.shape[1]
    cols = []
    for t in range(horizon):
        cols.append(z[:, t])
        if t < horizon - 1:
            cols.extend(x[:, t, j] for j in range(x.shape[2]))
    return np.lexsort(cols[::-1]), cols


class TableNode:
    """One stratum: mass, outcome aggregate, and children by next symbol."""

    __slots__ = ("mass", "ysum", "children", "override")

    def __init__(self, mass, ysum):
        self.mass = mass
        self.ysum = ysum
        self.children: dict = {}
        self.override = None

    @property
    def derived_mean(self) -> float:
        """Mass-weighted mean of the leaves below; ignores overrides."""
        return self.ysum / self.mass

    @property
    def mean(self) -> float:
        return self.override if self.override is not None else self.derived_mean


class MeanTable:
    """Masses and outcome means for every observed history prefix.

    Parameters
    ----------
    horizon : int
        Number of treatment periods T (so histories interleave T treatments
        with T-1 covariate vectors).
    covariate_width : int
        Components per covariate vector; 0 when horizon == 1.
    root : TableNode
        Trie root over observed prefixes. Unobserved strata are simply
        absent, never materialized.
    """

    def __init__(self, horizon, covariate_width, root):
        self.horizon = horizon
        self.covariate_width = covariate_width
        self.root = root
        self._levels = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_arrays(cls, z: np.ndarray, x: np.ndarray, y: np.ndarray) -> "MeanTable":
        """Build the empirical table for records (z, x, y).

        z is (N, T) int, x is (N, T-1, w) int, y is (N,) float. Records are
        sorted once by interleaved history, so that every stratum is a
        contiguous run to count and sum, and the trie is built one level
        at a time; a run's parent is the run above that holds its start.
        """
        n, horizon = z.shape
        width = x.shape[2] if x.ndim == 3 and x.shape[1] > 0 else 0
        order, cols = sort_histories(z, x)
        fs = np.column_stack(cols)[order]
        outcomes = np.ascontiguousarray(y[order], dtype=float)
        root = TableNode(n, float(outcomes.sum()))
        # Each level's runs are the runs above, split where that level's
        # columns change: one treatment column, or `width` covariate ones.
        splits = np.arange(n) == 0
        starts, nodes, a = np.zeros(1, dtype=np.int64), [root], 0
        for depth in range(1, 2 * horizon):
            b = a + (1 if depth % 2 else width)
            splits[1:] |= np.any(fs[1:, a:b] != fs[:-1, a:b], axis=1)
            runs = np.flatnonzero(splits)
            parents = np.searchsorted(starts, runs, side="right") - 1
            ends, rows = [*runs[1:].tolist(), n], fs[runs, a:b].tolist()
            level = []
            for lo, hi, p, row in zip(runs.tolist(), ends, parents.tolist(), rows):
                node = TableNode(hi - lo, float(outcomes[lo:hi].sum()))
                nodes[p].children[row[0] if depth % 2 else tuple(row)] = node
                level.append(node)
            starts, nodes, a = runs, level, b
        return cls(horizon, width, root)

    @classmethod
    def from_entries(cls, horizon: int, covariate_width: int, entries) -> "MeanTable":
        """Build an exact table from {(z_tuple, x_tuples): (prob, mean)}.

        Probabilities must be positive and sum to one; a zero-probability
        history belongs out of the dictionary, not in it with mass 0.
        """
        width = covariate_width
        root = TableNode(0.0, 0.0)
        total = 0.0
        for (zs, xs), (prob, mean) in entries.items():
            zs = tuple(int(v) for v in zs)
            xs = tuple(tuple(int(v) for v in vec) for vec in xs)
            if len(zs) != horizon or len(xs) != horizon - 1:
                raise UsageError(f"history {zs}/{xs} does not match horizon {horizon}")
            if any(len(vec) != width for vec in xs):
                raise UsageError("covariate vector width mismatch")
            if not prob > 0.0:
                raise DomainError(f"history {zs}/{xs} has non-positive probability")
            if not np.isfinite(mean):
                raise DomainError(f"history {zs}/{xs} has non-finite mean")
            total += prob
            contrib = prob * mean
            node = root
            node.mass += prob
            node.ysum += contrib
            key = StratumKey(zs, xs)
            for sym in key.symbols():
                node = node.children.setdefault(sym, TableNode(0.0, 0.0))
                node.mass += prob
                node.ysum += contrib
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DomainError(f"history probabilities sum to {total!r}, expected 1")

        def sort_children(node: TableNode):
            node.children = dict(sorted(node.children.items()))
            for child in node.children.values():
                sort_children(child)

        sort_children(root)
        return cls(horizon, width, root)

    # -- navigation -----------------------------------------------------

    def node(self, key: StratumKey) -> TableNode | None:
        self._check_key(key)
        node = self.root
        for sym in key.symbols():
            node = node.children.get(sym)
            if node is None:
                return None
        return node

    def require(self, key: StratumKey) -> TableNode:
        node = self.node(key)
        if node is None:
            raise EstimabilityError(f"stratum {key.label()} is empty")
        return node

    def _check_key(self, key: StratumKey):
        if key.time > self.horizon:
            raise UsageError(
                f"key {key.label()} runs past horizon {self.horizon}"
            )
        if any(len(vec) != self.covariate_width for vec in key.covariates):
            raise UsageError(f"key {key.label()} has wrong covariate width")

    def mass(self, key: StratumKey):
        return self.require(key).mass

    def mean(self, key: StratumKey) -> float:
        return self.require(key).mean

    def levels(self) -> list[list[tuple[StratumKey, TableNode]]]:
        """All observed strata grouped by interleaved depth, root first.

        Each level is built from the one above in child order, which is
        symbol order, so every level is sorted by key symbols.
        """
        if self._levels is None:
            out = [[(StratumKey(), self.root)]]
            for depth in range(1, 2 * self.horizon):
                extend = (StratumKey.with_covariate, StratumKey.with_treatment)[depth % 2]
                out.append([(extend(key, sym), child) for key, node in out[-1]
                            for sym, child in node.children.items()])
            self._levels = out
        return self._levels

    def level(self, depth: int) -> list[tuple[StratumKey, TableNode]]:
        return self.levels()[depth]

    # -- diagnostics ----------------------------------------------------

    def perturb_mean(self, key: StratumKey, delta: float):
        """Plant an inconsistent stored mean on one stratum.

        Later reads of `mean` report the shifted value while aggregate-based
        recursions keep using the leaf-derived mean, which is exactly the
        discrepancy the decomposition check is designed to flag.
        """
        node = self.require(key)
        node.override = node.mean + delta
