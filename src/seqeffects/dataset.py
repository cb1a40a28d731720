"""Loading and indexing longitudinal treatment-sequence records.

The CSV layout is one record per row:

    unit_id,z1,...,zT,x1_1,...,x1_w,...,x{T-1}_w,y

with non-negative integer treatment codes z (0 = control), non-negative
integer covariate components x, and a real outcome y measured after the
last treatment. One file holds one study population.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, UsageError
from .keys import Covariate, MarkovKey, PointEffectKey, StratumKey
from .tables import MeanTable

_Z_COL = re.compile(r"^z(\d+)$")
_X_COL = re.compile(r"^x(\d+)_(\d+)$")


@dataclass(frozen=True)
class ObservationRecord:
    """One unit: full treatment sequence, covariate path, final outcome."""

    unit_id: str
    treatments: tuple[int, ...]
    covariates: tuple[Covariate, ...]
    outcome: float


@dataclass(frozen=True)
class PooledPeriod:
    """One period's pooled arms as arrays over the records.

    Period 1 keeps its arms z1; a later period t pools records on the
    signature (z[t-1], x[t-1], z[t]). `keys` holds the distinct signatures
    in sorted order, `codes[i]` is record i's index into them, and
    `members[bounds[g]:bounds[g + 1]]` lists signature g's records in
    record order.
    """

    keys: tuple[PointEffectKey, ...]
    codes: np.ndarray
    members: np.ndarray
    bounds: np.ndarray

    def records(self, g: int) -> np.ndarray:
        return self.members[self.bounds[g] : self.bounds[g + 1]]


class Dataset:
    """Immutable record collection indexed by a history-prefix trie.

    Pooled-history fits use the per-period signatures in `pooled` instead.

    Attributes
    ----------
    horizon : int
        Number of treatment periods T.
    covariate_width : int
        Components per covariate vector (0 when T == 1).
    n_records : int
        Population size N (>= 1).
    """

    def __init__(self, z, x, y, unit_ids):
        z = np.asarray(z, dtype=np.int64)
        y = np.asarray(y, dtype=float)
        n, horizon = z.shape
        if n < 1:
            raise DomainError("a dataset needs at least one record")
        if horizon < 1:
            raise DomainError("the horizon must be at least 1")
        width = 0
        if horizon > 1:
            x = np.asarray(x, dtype=np.int64)
            if x.shape[:2] != (n, horizon - 1):
                raise UsageError("covariate array must be (n, horizon-1, width)")
            width = x.shape[2]
        else:
            x = np.zeros((n, 0, 0), dtype=np.int64)
        if (z < 0).any() or (x < 0).any():
            raise DomainError("treatment and covariate codes must be non-negative")
        if not np.isfinite(y).all():
            raise DomainError("outcomes must be finite")
        for arr in (z, x, y):
            arr.setflags(write=False)
        self.z = z
        self.x = x
        self.y = y
        self.unit_ids = tuple(str(u) for u in unit_ids)
        if len(self.unit_ids) != n:
            raise UsageError("unit_ids length must match the record count")
        self.horizon = horizon
        self.covariate_width = width
        self.n_records = n
        self._table: MeanTable | None = None
        self._pooled: tuple[PooledPeriod, ...] | None = None
        self._records: tuple[ObservationRecord, ...] | None = None

    # -- derived views --------------------------------------------------

    @property
    def table(self) -> MeanTable:
        """Empirical mean table over the trie (built once, then cached)."""
        if self._table is None:
            self._table = MeanTable.from_arrays(self.z, self.x, self.y)
        return self._table

    @property
    def pooled(self) -> tuple[PooledPeriod, ...]:
        """Pooled arms of periods 1..T, without the trie (built once)."""
        if self._pooled is None:
            self._pooled = tuple(
                self._pooled_period(t) for t in range(1, self.horizon + 1)
            )
        return self._pooled

    def _pooled_period(self, t: int) -> PooledPeriod:
        if t == 1:
            sig = self.z[:, :1]
        else:
            sig = np.column_stack(
                [self.z[:, t - 2], self.x[:, t - 2, :], self.z[:, t - 1]]
            )
        # A stable lexsort sorts the signatures and keeps record order
        # within each, many times faster than np.unique(axis=0).
        members = np.lexsort(sig.T[::-1])
        ordered = sig[members]
        new = np.ones(self.n_records, dtype=bool)
        new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        codes = np.empty(self.n_records, dtype=np.int64)
        codes[members] = np.cumsum(new) - 1
        bounds = np.append(np.flatnonzero(new), self.n_records)
        rows = ordered[new].tolist()
        if t == 1:
            keys = tuple(StratumKey((r[0],), ()) for r in rows)
        else:
            keys = tuple(MarkovKey(t, r[0], tuple(r[1:-1]), r[-1]) for r in rows)
        return PooledPeriod(keys, codes, members, bounds)

    @property
    def records(self) -> tuple[ObservationRecord, ...]:
        if self._records is None:
            recs = []
            for i in range(self.n_records):
                covs = tuple(
                    tuple(int(v) for v in self.x[i, t])
                    for t in range(self.horizon - 1)
                )
                recs.append(
                    ObservationRecord(
                        self.unit_ids[i],
                        tuple(int(v) for v in self.z[i]),
                        covs,
                        float(self.y[i]),
                    )
                )
            self._records = tuple(recs)
        return self._records

    def treatment_levels(self, t: int) -> tuple[int, ...]:
        """Observed treatment codes at period t (1-based), sorted."""
        if not 1 <= t <= self.horizon:
            raise UsageError(f"period {t} outside 1..{self.horizon}")
        return tuple(sorted(int(v) for v in np.unique(self.z[:, t - 1])))

    def history_key(self, i: int) -> StratumKey:
        """Full history of record i as a key."""
        covs = tuple(
            tuple(int(v) for v in self.x[i, t]) for t in range(self.horizon - 1)
        )
        return StratumKey(tuple(int(v) for v in self.z[i]), covs)


def stratum_members(d: Dataset, key: StratumKey) -> set[int]:
    """Record indices whose history starts with the given prefix.

    The depth-0 key selects everyone. Unobserved prefixes give the empty
    set; they are legal queries, not errors.
    """
    node = d.table.node(key)
    if node is None:
        return set()
    return {int(i) for i in d.table.order[node.lo : node.hi]}


def load_dataset(source) -> Dataset:
    """Parse a CSV byte/text stream or path into a Dataset.

    Raises ParseError (malformed text, naming the offending 1-based file
    line) or DomainError (negative codes). The header fixes T and the
    covariate width; every data row must match its arity exactly.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_csv(fh)
    if isinstance(source, bytes):
        return _parse_csv(io.StringIO(source.decode("utf-8")))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return _parse_csv(io.StringIO(data))
    raise UsageError(f"cannot read a dataset from {type(source).__name__}")


def _parse_header(header: list[str]) -> tuple[int, int]:
    if not header or header[0] != "unit_id" or header[-1] != "y":
        raise ParseError("header must start with unit_id and end with y")
    horizon = 0
    i = 1
    while i < len(header) - 1:
        m = _Z_COL.match(header[i])
        if not m or int(m.group(1)) != horizon + 1:
            break
        horizon += 1
        i += 1
    if horizon == 0:
        raise ParseError("header has no z1 column")
    x_cols = header[i:-1]
    expected_periods = horizon - 1
    if expected_periods == 0:
        if x_cols:
            raise ParseError(f"unexpected column {x_cols[0]!r} for horizon 1")
        return horizon, 0
    if not x_cols or len(x_cols) % expected_periods != 0:
        raise ParseError(
            f"covariate columns ({len(x_cols)}) do not split over "
            f"{expected_periods} periods"
        )
    width = len(x_cols) // expected_periods
    pos = 0
    for t in range(1, expected_periods + 1):
        for j in range(1, width + 1):
            m = _X_COL.match(x_cols[pos])
            if not m or int(m.group(1)) != t or int(m.group(2)) != j:
                raise ParseError(
                    f"expected column x{t}_{j}, found {x_cols[pos]!r}"
                )
            pos += 1
    return horizon, width


def _parse_csv(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: no header row") from None
    horizon, width = _parse_header([h.strip() for h in header])
    ncol = 1 + horizon + (horizon - 1) * width + 1

    zs, xs, ys, ids = [], [], [], []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != ncol:
            raise ParseError(
                f"row {line_no}: expected {ncol} fields, found {len(row)}"
            )
        ids.append(row[0].strip())
        try:
            z_row = [int(v) for v in row[1 : 1 + horizon]]
            x_flat = [int(v) for v in row[1 + horizon : ncol - 1]]
        except ValueError as exc:
            raise ParseError(f"row {line_no}: non-integer code ({exc})") from None
        try:
            y_val = float(row[-1])
        except ValueError:
            raise ParseError(f"row {line_no}: non-numeric outcome {row[-1]!r}") from None
        if any(v < 0 for v in z_row) or any(v < 0 for v in x_flat):
            raise DomainError(f"row {line_no}: negative treatment/covariate code")
        zs.append(z_row)
        xs.append(x_flat)
        ys.append(y_val)
    if not zs:
        raise ParseError("no data rows")
    z = np.array(zs, dtype=np.int64)
    if horizon > 1:
        x = np.array(xs, dtype=np.int64).reshape(len(zs), horizon - 1, width)
    else:
        x = np.zeros((len(zs), 0, 0), dtype=np.int64)
    return Dataset(z, x, np.array(ys, dtype=float), ids)


def save_dataset(d: Dataset, path) -> None:
    """Write the canonical CSV layout (inverse of load_dataset)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["unit_id"] + [f"z{t}" for t in range(1, d.horizon + 1)]
        for t in range(1, d.horizon):
            header += [f"x{t}_{j}" for j in range(1, d.covariate_width + 1)]
        header.append("y")
        writer.writerow(header)
        for i in range(d.n_records):
            row = [d.unit_ids[i]]
            row += [str(int(v)) for v in d.z[i]]
            for t in range(d.horizon - 1):
                row += [str(int(v)) for v in d.x[i, t]]
            row.append(repr(float(d.y[i])))
            writer.writerow(row)
