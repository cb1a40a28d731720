"""Stratum mean tables over the interleaved history trie.

One structure and one builder serve both evaluation modes: an empirical
table built from a dataset's records (node masses are integer record
counts) and an exact table built from a law's support cells, each a record
weighted by its probability (masses are probabilities). A stratum's share
of its parent is the ratio of the two node masses. The builder works one
level at a time from records sorted by history and keeps every node's
children in symbol order, so `levels` lists each depth in key-symbol order
without sorting, and code reading children in dict order reads them sorted.
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
    def from_arrays(cls, z: np.ndarray, x: np.ndarray, y: np.ndarray,
                    weights: np.ndarray | None = None) -> "MeanTable":
        """Build the table for records (z, x, y), each weighted by `weights`.

        z is (N, T) int, x is (N, T-1, w) int, y is (N,) float. A sample
        passes no weights, so masses count records; a law passes its cells'
        probabilities (positive, summing to one), and a history's rows, one
        per latent class, merge into one leaf. Records are sorted once by
        history, so every stratum is a contiguous run, and the trie is built
        level by level; a run's parent is the run above holding its start.
        """
        n, horizon = z.shape
        width = x.shape[2] if x.ndim == 3 and x.shape[1] > 0 else 0
        if weights is None:
            weights = np.ones(n, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise UsageError(f"weights must be ({n},), not {weights.shape}")
            if not (np.isfinite(weights).all() and np.isfinite(y).all()):
                raise DomainError("a law's weights and outcomes must be finite")
            if not (weights > 0.0).all():
                raise DomainError("weights must be positive; leave zero-probability cells out")
            if abs(weights.sum() - 1.0) > _PROB_SUM_TOL:
                raise DomainError(f"weights sum to {float(weights.sum())!r}, expected 1")
        order, cols = sort_histories(z, x)
        fs, w = np.column_stack(cols)[order], weights[order]
        outcomes = w * np.asarray(y, dtype=float).reshape(n)[order]
        root = TableNode(w.sum().item(), float(outcomes.sum()))
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
            masses = np.add.reduceat(w, runs).tolist()
            level = []
            for lo, hi, p, row, m in zip(runs.tolist(), ends, parents.tolist(), rows, masses):
                node = TableNode(m, float(outcomes[lo:hi].sum()))
                nodes[p].children[row[0] if depth % 2 else tuple(row)] = node
                level.append(node)
            starts, nodes, a = runs, level, b
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
