"""Loading and indexing longitudinal treatment-sequence records.

The CSV layout is one record per row:

    unit_id,z1,...,zT,x1_1,...,x1_w,...,x{T-1}_w,y

with non-negative integer treatment codes z (0 = control), non-negative
integer covariate components x, and a real outcome y measured after the
last treatment. One file holds one study population. Files are UTF-8,
with an optional BOM; codes must fit a signed 64-bit integer, and unit
ids lose surrounding whitespace on reading, so `save_dataset` refuses
ids that have it. Both directions work on fixed blocks of rows, one
column at a time, so the memory they take beyond the arrays is bounded
by a block.

A block that needs no csv quoting takes a split path: the writer joins
its fields with commas, and the reader splits its lines on commas when
they hold no quote, no NUL and no line longer than csv's field size
limit. Every other block goes through csv.writer, and the reader hands
the first such block and the rest of the file to csv.reader. The files,
arrays and errors are the same either way.

A Dataset indexes its records two ways. `Dataset.periods` lists each
period's treatment arms as flat arrays, full-history or pooled, and alone
knows where a record sits and turns its rows into each arm's key, label
and statistics; targets, fits and diagnostics read only these.
`Dataset.table` is the history-prefix trie of masses and means behind the
exact recursion, the oracle and the decomposition check.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import ne
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, UsageError
from .keys import MarkovKey, PointEffectKey, StratumKey, _markov_template, _template
from .tables import MeanTable, sort_histories

_Z_COL = re.compile(r"^z(\d+)$")
_X_COL = re.compile(r"^x(\d+)_(\d+)$")
# A line break as csv sees one in a quoted field of a file read with newline="".
_LINE_BREAK = re.compile(r"\r\n?|\n")
# Rows per block of a CSV read or write. Each block is converted a column
# at a time, so the memory beyond the arrays themselves is one block's.
_BLOCK_ROWS = 8192
_CODE_MAX = 2**63 - 1
# Characters csv.writer quotes in a field (NUL too, which some versions
# refuse); a block whose ids hold none is written without csv.writer.
_QUOTED = ',"\r\n\0'
# str(code) for the codes small enough to look up when writing.
_CODE_TEXT = np.array([str(i) for i in range(1024)], dtype=object)


class _PickedKeys(Sequence):
    """Read-only sequence of the keys of arms picked from several periods:
    item i is the key of arm `arms[i]` of `periods[i]`, built when read.
    `labels()` gives every item's label from the heads without building a
    key, and `rows()` each item's row of per-period arrays."""

    __slots__ = ("periods", "arms")

    def __init__(self, periods: Sequence["PeriodArms"], arms: Sequence[int]):
        self.periods = periods
        self.arms = arms

    def __len__(self) -> int:
        return len(self.arms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return self.periods[i].key(self.arms[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        """Equal to any list or tuple of the same items, as a list is."""
        if isinstance(other, (_PickedKeys, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def labels(self) -> list[str]:
        """`[key.label() for key in self]`, formatted a period at a time."""
        return [s for period, at in self._runs() for s in period.labels(self.arms[at])]

    def rows(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Row `arms[i]` of the block of period i's time, for each item:
        `blocks` holds one (arms, k) array per period."""
        parts = [blocks[period.time - 1][self.arms[at]] for period, at in self._runs()]
        return np.concatenate(parts) if parts else np.empty((0, blocks[0].shape[1]))

    def _runs(self):
        """(period, slice of the items) for each run of items from one period."""
        periods = self.periods
        cuts = [i for i in range(1, len(periods)) if periods[i] is not periods[i - 1]]
        for lo, hi in zip([0, *cuts], [*cuts, len(periods)]):
            if hi > lo:
                yield periods[lo], slice(lo, hi)


@dataclass(frozen=True)
class PeriodArms:
    """One period's treatment arms, sorted by key, as arrays over the
    records: record i is in arm `codes[i]`, and arm g holds the outcomes
    `outcomes[bounds[g]:bounds[g + 1]]`, takes treatment `arms[g]`, and
    has its stratum's control arm at `control[g]` (-1 when unobserved);
    it holds `counts[g]` records, whose mean outcome is `means[g]`.

    Arm g's key is the row `heads[g]`: the treatments and covariate
    vectors z[first], x[first], ..., x[time - 1], z[time] interleaved,
    `width` components to a vector, where `first` is 1 for a full-history
    arm and time - 1 for a `pooled` one. `key(g)` builds that key and
    `labels` formats labels from the rows; neither keeps what it makes."""

    time: int
    pooled: bool
    width: int
    heads: np.ndarray
    codes: np.ndarray
    bounds: np.ndarray
    outcomes: np.ndarray
    arms: np.ndarray
    control: np.ndarray

    def key(self, g: int) -> PointEffectKey:
        """Arm g's key, built from its row of `heads`."""
        r = self.heads[g].tolist()
        if self.pooled:
            return MarkovKey(self.time, r[0], tuple(r[1:-1]), r[-1])
        step = 1 + self.width
        covs = (tuple(r[i + 1 : i + step]) for i in range(0, len(r) - 1, step))
        return StratumKey(tuple(r[::step]), tuple(covs))

    def labels(self, index) -> list[str]:
        """The labels of arms `index`, as their keys' `label()` reads."""
        if self.pooled:
            template = _markov_template(self.time, self.width)
        else:
            template = _template(self.time, (self.width,) * (self.time - 1))
        rows = self.heads[np.asarray(index, dtype=np.intp)].tolist()
        return [template.format(*r) for r in rows]

    def values(self, g: int) -> np.ndarray:
        return self.outcomes[self.bounds[g] : self.bounds[g + 1]]

    @cached_property
    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    def _by_count(self):
        """(arms, outcomes) for each record count n: the arms that hold n
        records, and their outcomes as a C-ordered (arms, n) array. A sum
        along its rows adds each row pairwise, as `np.add.reduce` does over
        the arm's own slice, so the bits are those of one arm at a time."""
        order = np.argsort(self.counts, kind="stable")
        cuts = np.flatnonzero(np.diff(self.counts[order])) + 1
        for arms in np.split(order, cuts):
            n = int(self.counts[arms[0]])
            yield arms, self.outcomes[self.bounds[arms, None] + np.arange(n)]

    @cached_property
    def means(self) -> np.ndarray:
        """Each arm's sum over its count: the bits of `values(g).mean()`."""
        sums = np.empty(len(self.arms))
        for arms, y in self._by_count():
            sums[arms] = np.add.reduce(y, axis=1)
        return sums / self.counts

    @cached_property
    def _spreads(self) -> tuple[np.ndarray, np.ndarray]:
        """Each arm's sum of squared deviations from its mean, and whether
        all its outcomes are equal."""
        squares = np.empty(len(self.arms))
        equal = np.empty(len(self.arms), dtype=bool)
        for arms, y in self._by_count():
            squares[arms] = np.add.reduce((y - self.means[arms, None]) ** 2, axis=1)
            equal[arms] = y.min(axis=1) == y.max(axis=1)
        return squares, equal


def _period_arms(order, cols, outcomes, time, pooled, width) -> PeriodArms:
    """The arms of `cols` (last column: the treatment) as the runs of equal
    rows among the records in `order`, whose outcomes in that order are
    `outcomes`; `time`, `pooled` and `width` describe the columns as
    `PeriodArms` does."""
    n = order.size
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in cols:
        ordered = col[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    heads = np.column_stack([col[order[new]] for col in cols])
    stratum = np.ones(len(heads), dtype=bool)
    stratum[1:] = np.any(heads[1:, :-1] != heads[:-1, :-1], axis=1)
    first = np.flatnonzero(stratum)[np.cumsum(stratum) - 1]
    return PeriodArms(
        time,
        pooled,
        width,
        heads,
        codes,
        np.append(np.flatnonzero(new), n),
        outcomes,
        heads[:, -1],
        np.where(heads[first, -1] == 0, first, -1),
    )


class Dataset:
    """Immutable record collection with two indexes over the records.

    `periods` lists each period's treatment arms as flat arrays, and owns
    the record order that targets, pattern fits and the resampling
    diagnostic read; `table` is the history-prefix trie of masses and
    means behind the exact recursion and the decomposition check.

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
        if z.ndim != 2:
            raise UsageError(f"treatment array must be (n, horizon), not {z.shape}")
        n, horizon = z.shape
        if n < 1:
            raise DomainError("a dataset needs at least one record")
        if horizon < 1:
            raise DomainError("the horizon must be at least 1")
        if y.shape != (n,):
            raise UsageError(f"outcome array must be ({n},), not {y.shape}")
        width = 0
        if horizon > 1:
            x = np.asarray(x, dtype=np.int64)
            if x.ndim != 3 or x.shape[:2] != (n, horizon - 1):
                shape = f"({n}, {horizon - 1}, width)"
                raise UsageError(f"covariate array must be {shape}, not {x.shape}")
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
        self._periods: dict[bool, tuple[PeriodArms, ...]] = {}

    # -- derived views --------------------------------------------------

    @property
    def table(self) -> MeanTable:
        """Empirical mean table over the trie (built once, then cached)."""
        if self._table is None:
            self._table = MeanTable.from_arrays(self.z, self.x, self.y)
        return self._table

    def periods(self, markov: bool) -> tuple[PeriodArms, ...]:
        """Arms of periods 1..T, full-history or pooled (built once each).

        A full-history arm at period t is a run of equal prefixes
        z1, x1, ..., zt among the records stably sorted by interleaved
        history; all full-history periods share that one order. A pooled
        arm at t > 1 gathers the records sharing the signature
        (z[t-1], x[t-1], z[t]), in record order; period 1 keeps its arms
        z1 in both modes.
        """
        if markov not in self._periods:
            build = self._pooled_periods if markov else self._full_periods
            self._periods[markov] = build()
        return self._periods[markov]

    def _full_periods(self) -> tuple[PeriodArms, ...]:
        order, cols = sort_histories(self.z, self.x)
        outcomes = self.y[order]
        step = 1 + self.covariate_width
        return tuple(
            _period_arms(
                order, cols[: (t - 1) * step + 1], outcomes, t, False, self.covariate_width
            )
            for t in range(1, self.horizon + 1)
        )

    def _pooled_periods(self) -> tuple[PeriodArms, ...]:
        out = []
        for t in range(1, self.horizon + 1):
            if t == 1:
                cols = [self.z[:, 0]]
            else:
                cols = [self.z[:, t - 2], *self.x[:, t - 2].T, self.z[:, t - 1]]
            # A stable lexsort sorts the signatures and keeps record order
            # within each, many times faster than np.unique(axis=0).
            order = np.lexsort(cols[::-1])
            out.append(
                _period_arms(order, cols, self.y[order], t, t > 1, self.covariate_width)
            )
        return tuple(out)

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


def load_dataset(source) -> Dataset:
    """Parse a CSV byte/text stream or path into a Dataset.

    Raises ParseError (malformed text, a field over csv's size limit
    included, naming the 1-based file line the offending row starts on, or
    the line the reader stopped on, or the offset of the first byte that is
    not UTF-8) or DomainError (negative codes or non-finite outcomes,
    naming the line too); a quoted field may span lines. Paths, bytes and
    binary streams are read as UTF-8 with an optional BOM; a path is
    decoded as it is read, so rows before a bad byte are checked first.
    Lines end in LF, CRLF or CR alike from every kind of source. The header
    fixes T and the covariate width; every data row must match its arity
    exactly, and codes must fit a signed 64-bit integer.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return _parse_csv(fh)
        except UnicodeDecodeError:
            _decode(Path(source).read_bytes())  # raises ParseError naming the byte
            raise
    if isinstance(source, bytes):
        return _parse_csv(io.StringIO(_decode(source), newline=""))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = _decode(data)
        return _parse_csv(io.StringIO(data, newline=""))
    raise UsageError(f"cannot read a dataset from {type(source).__name__}")


def _decode(data: bytes) -> str:
    """UTF-8 text without its BOM; ParseError names the first bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    return text.removeprefix("\ufeff")


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
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None
    horizon, width = _parse_header([h.strip() for h in header])
    ncol = 1 + horizon + (horizon - 1) * width + 1

    ids, codes, ys = [], [], []
    for block_ids, block_codes, block_y in _blocks(fh, reader.line_num, ncol):
        ids += block_ids
        codes.append(block_codes)
        ys.append(block_y)
    if not ids:
        raise ParseError("no data rows")
    codes = np.concatenate(codes)
    z = np.ascontiguousarray(codes[:, :horizon])
    x = np.ascontiguousarray(codes[:, horizon:]).reshape(len(ids), horizon - 1, width)
    return Dataset(z, x, np.concatenate(ys), ids)


def _blocks(fh, lines: int, ncol: int):
    """(ids, codes, y) of each block of the data rows left in `fh`, which
    has `lines` lines read. A block of lines with no quote, no NUL and no
    line over csv's field size limit is split on commas, which reads the
    fields csv.reader would; the first block that has one, and the rest of
    the file, go through csv.reader."""
    limit = csv.field_size_limit()
    while True:
        block, failure = [], None
        try:
            block.extend(islice(fh, _BLOCK_ROWS))
        except UnicodeDecodeError as exc:  # csv.reader re-raises it below
            failure = exc
        if not (block or failure):
            return
        text = "".join(block)
        if failure or '"' in text or "\0" in text or max(map(len, block)) > limit:
            rest = chain(block, _raise(failure)) if failure else chain(block, fh)
            yield from _csv_blocks(csv.reader(rest), lines, ncol)
            return
        # Every line ends in its own line break but perhaps the file's last.
        texts = list(map(str.rstrip, block, repeat("\r\n")))
        if set(map(str.count, texts, repeat(","))) == {ncol - 1}:
            fields = ",".join(texts).split(",")
            parsed = _parse_columns([fields[j::ncol] for j in range(ncol)])
        else:
            parsed = None
        yield parsed or _parse_rows(
            [text.split(",") if text else [] for text in texts], lines + 1, ncol
        )
        lines += len(block)


def _raise(exc):
    """An iterator that raises `exc` when read."""
    raise exc
    yield


def _csv_blocks(reader, lines: int, ncol: int):
    """`_blocks` for rows read by `reader`, whose first line is file line
    `lines + 1`."""
    while True:
        line_no = lines + reader.line_num + 1  # the first line of the block's first row
        rows = []
        try:
            rows.extend(islice(reader, _BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            # extend keeps the rows read before the failure; their errors
            # come first in file order.
            _parse_rows(rows, line_no, ncol)
            if isinstance(exc, csv.Error):
                raise ParseError(f"row {lines + reader.line_num}: {exc}") from None
            raise
        if not rows:
            return
        if any(len(r) != ncol for r in rows):
            parsed = None
        else:
            parsed = _parse_columns(list(zip(*rows)))
        yield parsed or _parse_rows(rows, line_no, ncol)


def _parse_columns(cols: list) -> tuple | None:
    """(ids, codes, y) of a block from its `ncol` columns of fields, or None
    when a code or outcome is malformed; the caller then rescans the block
    row by row. A code column converts each distinct spelling once."""
    n = len(cols[0])
    codes = np.empty((n, len(cols) - 2), dtype=np.int64)
    try:
        for j, col in enumerate(cols[1:-1]):
            value = {s: int(s) for s in set(col)}
            codes[:, j] = np.fromiter(map(value.__getitem__, col), np.int64, count=n)
        y = np.fromiter(map(float, cols[-1]), float, count=n)
    except (ValueError, OverflowError):  # OverflowError: a code beyond int64
        return None
    if (codes < 0).any() or not np.isfinite(y).all():
        return None
    return list(map(str.strip, cols[0])), codes, y


def _parse_rows(rows: list[list[str]], line_no: int, ncol: int):
    """(ids, codes, y) of a block of rows checked one row at a time, the
    first of them starting on file line `line_no`; raises the first row's
    error, naming the line the row starts on. A row spans one line plus the
    line breaks in its quoted fields."""
    ids, codes, ys = [], [], []
    next_line = line_no
    for row in rows:
        line_no = next_line
        next_line += 1 + len(_LINE_BREAK.findall(",".join(row)))
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != ncol:
            raise ParseError(
                f"row {line_no}: expected {ncol} fields, found {len(row)}"
            )
        try:
            row_codes = [int(v) for v in row[1:-1]]
        except ValueError as exc:
            raise ParseError(f"row {line_no}: non-integer code ({exc})") from None
        big = next((v for v in row_codes if v > _CODE_MAX), None)
        if big is not None:
            raise ParseError(
                f"row {line_no}: code {big} out of range (at most 2**63 - 1)"
            )
        try:
            y_val = float(row[-1])
        except ValueError:
            raise ParseError(f"row {line_no}: non-numeric outcome {row[-1]!r}") from None
        if not math.isfinite(y_val):
            raise DomainError(f"row {line_no}: non-finite outcome {row[-1]!r}")
        if any(v < 0 for v in row_codes):
            raise DomainError(f"row {line_no}: negative treatment/covariate code")
        ids.append(row[0].strip())
        codes.append(row_codes)
        ys.append(y_val)
    return (
        ids,
        np.array(codes, dtype=np.int64).reshape(len(ids), ncol - 2),
        np.array(ys, dtype=float),
    )


def save_dataset(d: Dataset, path) -> None:
    """Write the canonical CSV layout (inverse of load_dataset).

    Raises UsageError for a unit id with leading or trailing whitespace,
    which load_dataset would strip.
    """
    ids = d.unit_ids
    spaced = next(compress(ids, map(ne, ids, map(str.strip, ids))), None)
    if spaced is not None:
        raise UsageError(
            f"unit id {spaced!r} has leading or trailing whitespace, "
            "which load_dataset strips"
        )
    codes = [d.z[:, t] for t in range(d.horizon)]
    codes += [d.x[:, t, j] for t in range(d.horizon - 1) for j in range(d.covariate_width)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["unit_id"] + [f"z{t}" for t in range(1, d.horizon + 1)]
        for t in range(1, d.horizon):
            header += [f"x{t}_{j}" for j in range(1, d.covariate_width + 1)]
        header.append("y")
        writer.writerow(header)
        for lo in range(0, d.n_records, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            block_ids = ids[block]
            joined = "".join(block_ids)
            if any(c in joined for c in _QUOTED):
                cols = [c[block].tolist() for c in codes]
                writer.writerows(zip(block_ids, *cols, d.y[block].tolist()))
                continue
            # The bytes csv.writer writes: an int with str(), a float with
            # repr(), no quotes, and CRLF after every row.
            cols = [_code_text(c[block]) for c in codes]
            y = map(float.__repr__, d.y[block].tolist())
            fh.write("\r\n".join(map(",".join, zip(block_ids, *cols, y))))
            fh.write("\r\n")


def _code_text(codes: np.ndarray):
    """`str(code)` for each of a block's codes, from a table when all are small."""
    if codes.max() < _CODE_TEXT.size:
        return _CODE_TEXT[codes].tolist()
    return map(str, codes.tolist())
