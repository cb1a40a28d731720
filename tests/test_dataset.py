import csv
import io
import re
import string
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import load_dataset_reference, save_dataset_reference
from hypothesis import given, settings
from hypothesis import strategies as st

import seqeffects.dataset
from seqeffects import (
    Dataset,
    DomainError,
    ParseError,
    SeqEffectsError,
    UsageError,
    load_dataset,
    save_dataset,
)

# Block sizes that put errors and blank rows on block edges, and the default.
BLOCKS = [1, 2, 3, seqeffects.dataset._BLOCK_ROWS]


def test_roundtrip_through_csv(tmp_path, d16):
    path = tmp_path / "d.csv"
    save_dataset(d16, path)
    back = load_dataset(path)
    assert back.horizon == d16.horizon
    assert back.covariate_width == d16.covariate_width
    assert back.unit_ids == d16.unit_ids
    assert np.array_equal(back.z, d16.z)
    assert np.array_equal(back.x, d16.x)
    np.testing.assert_allclose(back.y, d16.y)


ID_CHARS = string.ascii_letters + string.digits + "_-.,;\"' "
OUTCOMES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310]),
)


@st.composite
def datasets(draw, id_chars=ID_CHARS):
    horizon = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3)) if horizon > 1 else 0
    n = draw(st.integers(1, 12))
    codes = st.integers(0, 2**62)
    z = draw(st.lists(st.lists(codes, min_size=horizon, max_size=horizon), min_size=n, max_size=n))
    cells = (horizon - 1) * width
    x = draw(st.lists(st.lists(codes, min_size=cells, max_size=cells), min_size=n, max_size=n))
    y = draw(st.lists(OUTCOMES, min_size=n, max_size=n))
    ids = draw(st.lists(st.text(id_chars, min_size=1, max_size=6), min_size=n, max_size=n))
    x = np.array(x, dtype=np.int64).reshape(n, horizon - 1, width)
    return Dataset(np.array(z, dtype=np.int64), x, np.array(y), ids)


@settings(max_examples=100, deadline=None)
@given(d=datasets())
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    spaced = [u for u in d.unit_ids if u != u.strip()]
    if spaced:
        with pytest.raises(UsageError, match=f"unit id {re.escape(repr(spaced[0]))}"):
            save_dataset(d, path)
        return
    save_dataset(d, path)
    back = load_dataset(path)
    assert back.unit_ids == d.unit_ids
    assert back.z.shape == d.z.shape and np.array_equal(back.z, d.z)
    assert back.x.shape == d.x.shape and np.array_equal(back.x, d.x)
    assert back.y.tobytes() == d.y.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=60, deadline=None)
@given(d=datasets(id_chars=ID_CHARS.strip()))
def test_save_writes_the_reference_bytes(tmp_path_factory, block, d):
    where = tmp_path_factory.mktemp("save")
    save_dataset_reference(d, where / "reference.csv")
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        save_dataset(d, where / "blocks.csv")
    assert (where / "blocks.csv").read_bytes() == (where / "reference.csv").read_bytes()


def test_save_rejects_an_id_that_loading_would_strip(tmp_path):
    d = Dataset(np.zeros((3, 1), dtype=int), None, np.arange(3.0), ["a", " b", "c "])
    with pytest.raises(UsageError, match="unit id ' b' has leading or trailing whitespace"):
        save_dataset(d, tmp_path / "d.csv")
    assert not (tmp_path / "d.csv").exists()


# Values a corruption writes into a code or outcome field; some of them
# are valid spellings that both readers must accept alike.
BAD_CODES = [
    "1.5", "x", "", "-1", "-7", str(2**63), "99999999999999999999",
    " 3 ", "+2", "1_0", str(2**63 - 1),
]
BAD_OUTCOMES = ["nan", "inf", "-Infinity", "abc", "", " 2.5 ", "1e400"]


@st.composite
def corrupted_files(draw):
    """A saved dataset as bytes with a few rows broken, padded, blank or
    spread over two lines by a quoted id, any of the three line endings,
    perhaps a BOM, and perhaps one byte that is not UTF-8."""
    d = draw(datasets(id_chars=ID_CHARS.strip()))
    header = ["unit_id"] + [f"z{t}" for t in range(1, d.horizon + 1)]
    header += [f"x{t}_{j}" for t in range(1, d.horizon) for j in range(1, d.covariate_width + 1)]
    codes = np.hstack([d.z, d.x.reshape(d.n_records, -1)]).tolist()
    rows = [header + ["y"]]
    rows += [[u, *map(str, c), repr(y)] for u, c, y in zip(d.unit_ids, codes, d.y.tolist())]
    ncol = len(rows[0])
    ending = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(rows)))
        kind = draw(st.sampled_from(["short", "long", "blank", "spaces", "pad", "code", "outcome"]))
        if kind == "blank" or kind == "spaces":
            rows.insert(i, [] if kind == "blank" else ["  "])
            continue
        if i == len(rows) or len(rows[i]) != ncol:
            continue
        row = rows[i]
        if kind == "short":
            del row[draw(st.integers(0, ncol - 1))]
        elif kind == "long":
            row.append("0")
        elif kind == "pad":
            row[0] = f" {row[0]}\t"
        elif kind == "code":
            row[draw(st.integers(1, ncol - 2))] = draw(st.sampled_from(BAD_CODES))
        else:
            row[-1] = draw(st.sampled_from(BAD_OUTCOMES))
    # csv.writer quotes a field that holds a character of the line ending.
    breaks = st.sampled_from([b for b in ("\n", "\r\n", "\r") if b in ending])
    for i in draw(st.sets(st.integers(1, len(rows) - 1), max_size=3)):
        if rows[i]:
            rows[i][0] = draw(breaks).join([rows[i][0], "id"])
    buf = io.StringIO()
    csv.writer(buf, lineterminator=ending).writerows(rows)
    data = buf.getvalue().encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"])) + data[at:]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


def load_outcome(load, source):
    """What a loader makes of `source`: its arrays and ids, or its error."""
    try:
        d = load(source)
    except SeqEffectsError as exc:
        return type(exc), str(exc)
    return d.unit_ids, d.z.shape, d.z.tobytes(), d.x.shape, d.x.tobytes(), d.y.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=150, deadline=None)
@given(data=corrupted_files())
def test_load_matches_the_reference(tmp_path_factory, block, data):
    path = tmp_path_factory.mktemp("load") / "d.csv"
    path.write_bytes(data)
    expected = load_outcome(load_dataset_reference, data)
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        assert load_outcome(load_dataset, data) == expected
        assert load_outcome(load_dataset, io.BytesIO(data)) == expected
        assert load_outcome(load_dataset, path) == load_outcome(load_dataset_reference, path)


def test_load_from_string():
    d = load_dataset(io.StringIO("unit_id,z1,y\na,0,1.5\nb,1,2.5\n"))
    assert d.horizon == 1
    assert d.covariate_width == 0
    assert d.n_records == 2
    assert d.unit_ids == ("a", "b")
    assert d.z[1].tolist() == [1]
    assert d.y.tolist() == [1.5, 2.5]


def test_header_must_be_bracketed():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("z1,y\n0,1\n"))
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1\na,0\n"))


def test_covariate_columns_must_tile_the_horizon():
    # z1,z2 with no x1 block: one covariate vector per gap is required
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,z2,y\na,0,0,1\n"))


def test_x_column_for_single_period_rejected():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,x1_1,y\na,0,0,1\n"))


def test_non_integer_code_rejected():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,y\na,1.5,2\n"))


def test_negative_code_rejected():
    with pytest.raises(DomainError):
        load_dataset(io.StringIO("unit_id,z1,y\na,-1,2\n"))


def test_non_numeric_outcome_rejected():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,y\na,0,abc\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_outcome_names_its_row(value):
    text = f"unit_id,z1,y\na,0,1.5\nb,1,{value}\n"
    with pytest.raises(DomainError, match=f"row 3: non-finite outcome '{value}'"):
        load_dataset(io.StringIO(text))


def test_short_row_rejected():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,z2,x1_1,y\na,0,1\n"))


def test_empty_inputs_rejected():
    with pytest.raises(ParseError):
        load_dataset(io.StringIO(""))
    with pytest.raises(ParseError):
        load_dataset(io.StringIO("unit_id,z1,y\n"))


def test_direct_construction_validates_shapes():
    with pytest.raises(DomainError):
        Dataset(np.array([[0], [1]]), np.zeros((2, 0, 0)), np.array([1.0, np.nan]), ["a", "b"])
    with pytest.raises(DomainError):
        Dataset(np.array([[-1]]), np.zeros((1, 0, 0)), np.array([1.0]), ["a"])


def test_outcomes_must_match_the_record_count():
    z, x = np.zeros((4, 2), dtype=int), np.zeros((4, 1, 1), dtype=int)
    ids = list("abcd")
    for y in (np.arange(6.0), np.arange(3.0), np.zeros((4, 1))):
        with pytest.raises(UsageError, match=r"outcome array must be \(4,\)"):
            Dataset(z, x, y, ids)


def test_covariates_must_be_three_dimensional():
    with pytest.raises(UsageError, match=r"covariate array must be \(4, 1, width\)"):
        Dataset(np.zeros((4, 2), dtype=int), np.zeros((4, 1)), np.arange(4.0), list("abcd"))


def test_treatments_must_be_two_dimensional():
    with pytest.raises(UsageError, match=r"treatment array must be \(n, horizon\)"):
        Dataset(np.zeros(4, dtype=int), np.zeros((4, 0, 0)), np.arange(4.0), list("abcd"))


def test_history_key_and_table_agree(d16):
    key = d16.history_key(0)
    assert key.treatments == tuple(d16.z[0].tolist())
    assert key.covariates == tuple(tuple(v) for v in d16.x[0].tolist())
    leaf = d16.table.require(key)
    assert leaf.mass >= 1


def test_multivalued_treatments_load():
    d = load_dataset(io.StringIO("unit_id,z1,y\na,0,1\nb,1,2\nc,2,3\n"))
    assert d.treatment_levels(1) == (0, 1, 2)


@pytest.mark.parametrize("code", [str(2**63), "99999999999999999999"])
def test_code_above_int64_names_its_row(code):
    text = f"unit_id,z1,z2,x1_1,y\na,0,1,{2**63 - 1},1.5\nb,1,{code},0,2.5\n"
    with pytest.raises(ParseError, match=f"row 3: code {code} out of range"):
        load_dataset(io.StringIO(text))


@pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
def test_non_utf8_byte_names_its_offset(tmp_path, kind):
    data = b"\xef\xbb\xbfunit_id,z1,y\na,0,1.5\nb\xe9,1,2.5\n"
    source = {"path": tmp_path / "d.csv", "bytes": data, "stream": io.BytesIO(data)}[kind]
    (tmp_path / "d.csv").write_bytes(data)
    with pytest.raises(ParseError, match="input is not UTF-8: byte 0xe9 at offset 25"):
        load_dataset(source)


def test_non_utf8_byte_late_in_a_file_names_its_offset(tmp_path):
    rows = [f"u{i:05d},{i % 2},{i}.5" for i in range(4000)]
    data = ("unit_id,z1,y\n" + "\n".join(rows) + "\n").encode() + b"\xff,0,1\n"
    (tmp_path / "d.csv").write_bytes(data)
    match = f"input is not UTF-8: byte 0xff at offset {len(data) - 6}"
    with pytest.raises(ParseError, match=match):
        load_dataset(tmp_path / "d.csv")


@pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
def test_a_bom_is_skipped(tmp_path, kind):
    data = b"unit_id,z1,z2,x1_1,y\na,0,1,1,1.5\nb,1,0,0,-2.5\n"
    boms = []
    for raw in (data, b"\xef\xbb\xbf" + data):
        (tmp_path / "d.csv").write_bytes(raw)
        source = {"path": tmp_path / "d.csv", "bytes": raw, "stream": io.BytesIO(raw)}[kind]
        boms.append(load_outcome(load_dataset, source))
    assert boms[0] == boms[1]
    assert boms[0][0] == ("a", "b")


@pytest.mark.parametrize("block", BLOCKS)
def test_a_reader_error_comes_after_the_rows_before_it(block):
    huge = "9" * 200_000  # over csv's field size limit
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        with pytest.raises(ParseError, match="row 3: expected 3 fields, found 2"):
            load_dataset(io.StringIO(f"unit_id,z1,y\na,0,1\nb,0\nc,0,{huge}\n"))
        with pytest.raises(ParseError, match=r"^row 4: field larger than field limit"):
            load_dataset(io.StringIO(f"unit_id,z1,y\na,0,1\nb,0,2\nc,0,{huge}\n"))
        with pytest.raises(ParseError, match=r"^row 1: field larger than field limit"):
            load_dataset(io.StringIO(f"unit_id,z1,{huge}\na,0,1\n"))


@pytest.mark.parametrize("block", BLOCKS)
def test_errors_name_the_file_line_a_row_starts_on(block):
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        with pytest.raises(ParseError, match="^row 4: expected 3 fields, found 2$"):
            load_dataset(b'unit_id,z1,y\n"a\nb",0,1\nc,0\n')
        with pytest.raises(DomainError, match="^row 7: non-finite outcome"):
            load_dataset(b'unit_id,z1,y\r\n"a\r\nb",0,1\r\n"c\rd",1,2\r\n\r\ne,0,inf\r\n')
        with pytest.raises(ParseError, match="^row 4: field larger than field limit"):
            load_dataset(f'unit_id,z1,y\n"a\nb",0,1\nc,0,{"9" * 200_000}\n'.encode())


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_every_line_ending_loads_alike_from_every_source(tmp_path, ending):
    lines = ["unit_id,z1,z2,x1_1,y", "a,0,1,1,1.5", "", "b,1,0,0,-2.5", '"c",1,1,0,3']
    data = ending.join(lines).encode() + ending.encode()
    (tmp_path / "d.csv").write_bytes(data)
    want = load_outcome(load_dataset, b"unit_id,z1,z2,x1_1,y\na,0,1,1,1.5\nb,1,0,0,-2.5\nc,1,1,0,3\n")
    assert want[0] == ("a", "b", "c")
    for source in (tmp_path / "d.csv", str(tmp_path / "d.csv"), data, io.BytesIO(data)):
        assert load_outcome(load_dataset, source) == want
    assert load_outcome(load_dataset, io.StringIO(data.decode(), newline="")) == want


def test_save_memory_is_bounded_by_a_block(tmp_path):
    rng = np.random.default_rng(5)

    def save_peak(n):
        z = rng.integers(0, 2, size=(n, 3))
        x = rng.integers(0, 2, size=(n, 2, 1))
        d = Dataset(z, x, rng.normal(50, 10, size=n), [f"u{i:06d}" for i in range(n)])
        tracemalloc.start()
        try:
            save_dataset(d, tmp_path / f"{n}.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = save_peak(seqeffects.dataset._BLOCK_ROWS)
    assert save_peak(50_000) - save_peak(25_000) < block


READER = csv.reader  # the real one, for CountingReader to call while it is patched in


class CountingReader:
    """csv.reader that counts the readers made and the rows they yield."""

    made = rows = 0

    def __init__(self, *args, **kwargs):
        self._reader = READER(*args, **kwargs)
        CountingReader.made += 1

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._reader)
        CountingReader.rows += 1
        return row

    @property
    def line_num(self):
        return self._reader.line_num


def through_csv(source):
    """(what load_dataset makes of `source`, csv readers it made, rows they
    yielded): a header reader and one for the blocks that are not split."""
    CountingReader.made = CountingReader.rows = 0
    with mock.patch.object(seqeffects.dataset.csv, "reader", CountingReader):
        outcome = load_outcome(load_dataset, source)
    return outcome, CountingReader.made, CountingReader.rows


@pytest.mark.parametrize("block", BLOCKS)
def test_a_panel_without_quotes_is_split_not_read_by_csv(tmp_path, d16, block):
    save_dataset(d16, tmp_path / "d.csv")
    data = (tmp_path / "d.csv").read_bytes()
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        outcome, made, rows = through_csv(tmp_path / "d.csv")
        assert outcome == load_outcome(load_dataset_reference, data)
        assert (made, rows) == (1, 1)  # the header alone
        last = d16.unit_ids[-1].encode()
        quoted = data.replace(b"\n" + last, b'\n"' + last + b'"')
        outcome, made, rows = through_csv(quoted)
        assert outcome == load_outcome(load_dataset_reference, data)
        assert made == 2 and 1 < rows <= 1 + block


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_a_quoted_line_break_after_split_blocks_keeps_the_line_numbers(block, ending):
    lines = ["unit_id,z1,y", "a,0,1", "b,1,2", "c,0,3", "d,1,4"]
    lines += [f'"e{ending}f",0,5', "g,1,6", "h,1"]  # the quoted row spans lines 6 and 7
    data = ending.join(lines).encode() + ending.encode()
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        outcome, made, rows = through_csv(data)
    assert outcome == (ParseError, "row 9: expected 3 fields, found 2")
    assert outcome == load_outcome(load_dataset_reference, data)
    assert made == 2 and rows < len(lines) - 1  # the first block or more were split


@pytest.mark.parametrize("block", BLOCKS)
def test_nul_and_long_lines_read_as_csv_reads_them(block):
    huge = "9" * 200_000  # over csv's field size limit
    long_id = "u" * 90_000  # a line over the limit whose fields are within it
    cases = {
        f"unit_id,z1,y\na,0,1\nb,0\0,1\n": (
            ParseError,
            "row 3: non-integer code (invalid literal for int() with base 10: '0\\x00')",
        ),
        f"unit_id,z1,y\na,0,1\nb,1,2\nc,0,{huge}\n": (
            ParseError,
            "row 4: field larger than field limit (131072)",
        ),
        f"unit_id,z1,y\na,0,1\nb\0,1,2\n": None,
        f"unit_id,z1,y\na,0,1\n{long_id},1,0.{long_id.replace('u', '0')}5\nc,0,3\n": None,
    }
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        for text, error in cases.items():
            data = text.encode()
            outcome, made, _ = through_csv(data)
            assert outcome == (error or load_outcome(load_dataset_reference, data))
            assert made == 2


@pytest.mark.parametrize("block", BLOCKS)
def test_save_writes_large_codes_as_the_reference(tmp_path, block):
    big = [0, 1023, 1024, 10**6, 2**63 - 1]
    z = np.array([[c, big[-1 - i]] for i, c in enumerate(big)], dtype=np.int64)
    x = np.array(big[::-1], dtype=np.int64).reshape(5, 1, 1)
    d = Dataset(z, x, np.array([0.1, -2.5, 1e300, 5e-324, -0.0]), list("abcde"))
    save_dataset_reference(d, tmp_path / "reference.csv")
    with mock.patch.object(seqeffects.dataset, "_BLOCK_ROWS", block):
        save_dataset(d, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
