"""Coefficient field generation and ASCII I/O tests."""

import numpy as np
import pytest

from mslab import coeff, grid
from mslab.errors import ChannelOverflow, ParseError


@pytest.fixture
def pair():
    return grid.NestedPair(5, 20)


def test_field_positive_required():
    with pytest.raises(ValueError):
        coeff.CoefficientField(np.zeros((4, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_field_finite_required(value):
    v = np.ones((4, 4))
    v[1, 2] = value
    with pytest.raises(ValueError, match="finite and positive"):
        coeff.CoefficientField(v)


def test_field_contrast():
    v = np.ones((4, 4))
    v[0, 0] = 100.0
    f = coeff.CoefficientField(v)
    assert f.contrast == 100.0


def test_per_elem_order():
    v = np.arange(1.0, 17.0).reshape(4, 4)
    f = coeff.CoefficientField(v)
    # element index j*n+i maps to values[j, i]
    assert f.per_elem()[1 * 4 + 2] == v[1, 2]


def test_inclusions_reproducible_and_dense(pair):
    f1 = coeff.gen_inclusions(pair, 0.1, 1e3, seed=7)
    f2 = coeff.gen_inclusions(pair, 0.1, 1e3, seed=7)
    np.testing.assert_array_equal(f1.values, f2.values)
    frac = np.mean(f1.values > 1.0)
    assert frac >= 0.1
    assert f1.contrast == 1e3


def test_inclusions_zero_density(pair):
    f = coeff.gen_inclusions(pair, 0.0, 1e3, seed=0)
    assert np.all(f.values == 1.0)


def test_inclusions_bad_args(pair):
    with pytest.raises(ValueError):
        coeff.gen_inclusions(pair, 1.5, 1e3, seed=0)
    with pytest.raises(ValueError):
        coeff.gen_inclusions(pair, 0.1, 0.5, seed=0)
    with pytest.raises(ValueError, match="contrast must be >= 1"):
        coeff.gen_inclusions(pair, 0.1, np.nan, seed=0)
    with pytest.raises(ValueError, match="contrast must be >= 1 and finite"):
        coeff.gen_inclusions(pair, 0.0, np.inf, seed=0)     # at any density


def test_channels_full_width(pair):
    spec = coeff.ChannelSpec(length_coarse=5, thickness_fine=2, count=2, seed=1)
    f = coeff.gen_channels(pair, spec)
    rows = np.flatnonzero((f.values > 1.0).any(axis=1))
    for j in rows:
        assert np.all(f.values[j] == spec.contrast)


def test_channels_overflow(pair):
    spec = coeff.ChannelSpec(length_coarse=6)
    with pytest.raises(ChannelOverflow):
        coeff.gen_channels(pair, spec)


def test_channels_contrast_below_one_rejected(pair):
    """As for inclusions, a contrast below 1 would invert the field."""
    with pytest.raises(ValueError, match="contrast must be >= 1"):
        coeff.gen_channels(pair, coeff.ChannelSpec(length_coarse=2, contrast=0.5))
    with pytest.raises(ValueError, match="contrast must be >= 1"):
        coeff.gen_channels(pair, coeff.ChannelSpec(length_coarse=2, contrast=np.nan))
    with pytest.raises(ValueError, match="contrast must be >= 1 and finite"):
        coeff.gen_channels(pair, coeff.ChannelSpec(length_coarse=2, contrast=np.inf))
    assert coeff.gen_channels(pair, coeff.ChannelSpec(2, contrast=1.0)).contrast == 1.0


def test_channels_nested_same_seed(pair):
    """Growing the length only extends the existing channels."""
    short = coeff.gen_channels(pair, coeff.ChannelSpec(2, seed=4, count=3))
    long = coeff.gen_channels(pair, coeff.ChannelSpec(5, seed=4, count=3))
    grew = long.values != short.values
    # differences only where the longer channel added cells
    assert np.all(long.values[grew] == 1e4)
    assert np.all(short.values[grew] == 1.0)
    # the short channels are a subset of the long ones
    assert np.all(long.values[short.values > 1.0] > 1.0)


def test_channels_thickness_and_count(pair):
    spec = coeff.ChannelSpec(3, thickness_fine=2, count=4, seed=0)
    f = coeff.gen_channels(pair, spec)
    chan_rows = np.flatnonzero((f.values > 1.0).any(axis=1))
    assert chan_rows.size == 4 * 2
    ncols = (f.values > 1.0).sum(axis=1)
    assert np.all(ncols[chan_rows] == 3 * pair.r)
    with pytest.raises(ValueError, match="channel count must be >= 0, got -1"):
        coeff.gen_channels(pair, coeff.ChannelSpec(3, thickness_fine=2, count=-1, seed=0))


def test_save_load_roundtrip(tmp_path, pair):
    f = coeff.gen_inclusions(pair, 0.1, 1e4, seed=3)
    path = tmp_path / "field.txt"
    coeff.save_field(f, path)
    g = coeff.load_field(path)
    np.testing.assert_array_equal(f.values, g.values)


def test_load_header_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ParseError):
        coeff.load_field(p)
    p.write_text("4\n")
    with pytest.raises(ParseError) as err:
        coeff.load_field(p)
    assert err.value.line == 1


def test_load_bad_row_reports_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ParseError) as err:
        coeff.load_field(p)
    assert err.value.line == 3


def test_load_bad_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3 abc\n")
    with pytest.raises(ParseError):
        coeff.load_field(p)


def test_load_nonpositive_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3 -4\n")
    with pytest.raises(ParseError):
        coeff.load_field(p)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_nonfinite_rejected(tmp_path, token):
    """A value that parses as a float but is not finite is a ParseError
    naming its line and column."""
    p = tmp_path / "bad.txt"
    p.write_text(f"2 2\n1 2\n3 {token}\n")
    with pytest.raises(ParseError, match="not finite and positive") as err:
        coeff.load_field(p)
    assert (err.value.line, err.value.column) == (3, 2)


def test_load_rows_past_header_rejected(tmp_path):
    """Data past the rows the header declares is a ParseError at its first
    line; blank lines after the declared rows are not."""
    p = tmp_path / "long.txt"
    p.write_text("2 2\n1 2\n3 4\n\n5 6\n7 8\n")
    with pytest.raises(ParseError, match="past the 2 rows") as err:
        coeff.load_field(p)
    assert err.value.line == 5
    p.write_text("2 2\n1 2\n3 4\n\n  \n")
    np.testing.assert_array_equal(coeff.load_field(p).values, [[1, 2], [3, 4]])
