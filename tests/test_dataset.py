import io
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqeffects import (
    Dataset,
    DomainError,
    ParseError,
    UsageError,
    load_dataset,
    save_dataset,
)


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


@st.composite
def datasets(draw):
    horizon = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3)) if horizon > 1 else 0
    n = draw(st.integers(1, 12))
    codes = st.integers(0, 2**62)
    z = draw(st.lists(st.lists(codes, min_size=horizon, max_size=horizon), min_size=n, max_size=n))
    cells = (horizon - 1) * width
    x = draw(st.lists(st.lists(codes, min_size=cells, max_size=cells), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    id_chars = string.ascii_letters + string.digits + "_-.,;\"'"
    ids = draw(st.lists(st.text(id_chars, min_size=1, max_size=6), min_size=n, max_size=n))
    x = np.array(x, dtype=np.int64).reshape(n, horizon - 1, width)
    return Dataset(np.array(z, dtype=np.int64), x, np.array(y), ids)


@settings(max_examples=100, deadline=None)
@given(d=datasets())
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    save_dataset(d, path)
    back = load_dataset(path)
    assert back.unit_ids == d.unit_ids
    assert back.z.shape == d.z.shape and np.array_equal(back.z, d.z)
    assert back.x.shape == d.x.shape and np.array_equal(back.x, d.x)
    assert back.y.tobytes() == d.y.tobytes()


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
