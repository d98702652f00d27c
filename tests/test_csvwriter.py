"""The block-wise CSV writer against Python's own formatting, field by field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem._csvwriter import BLOCK_ROWS, format_rows, write_csv


def reference_rows(columns):
    """The per-row f-string formatting the writer replaces."""
    return "".join(
        ",".join(f"{v}" if isinstance(v, (int, np.integer)) else f"{v:.10e}" for v in row)
        + "\n"
        for row in zip(*columns)
    ).encode("ascii")


def float_column(values):
    return np.array(values, dtype=np.float64)


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=60))
@settings(deadline=None, max_examples=300)
def test_any_float_matches_python(rows):
    columns = [float_column(col) for col in zip(*rows)]
    assert format_rows(columns) == reference_rows(columns)


# the doubles nearest to 12-digit decimals ending in 5: all within a few
# ulp of a rounding boundary of the 11-digit mantissa
near_ties = st.builds(
    lambda digits, exp, sign: sign * float(f"{digits}5e{exp}"),
    st.integers(10**10, 10**11 - 1),
    st.integers(-330, 310),
    st.sampled_from([1.0, -1.0]),
)


@given(st.lists(near_ties, min_size=1, max_size=60))
@settings(deadline=None, max_examples=200)
def test_near_ties_match_python(values):
    column = float_column(values)
    assert format_rows([column]) == reference_rows([column])


EDGE_VALUES = [
    5e-324,                      # smallest subnormal
    2.2250738585072014e-308,     # smallest normal
    1.7976931348623157e308,      # largest finite
    9.99999999995e-1,            # rounds up to 1.0000000000e+00
    9.999999999949999e-1,        # rounds down
    1e22,                        # largest exact power of ten
    1e23,                        # inexact power of ten
    -1e-100,                     # negative, 3-digit exponent
    1.2345678901e123,
    -9.8765432109e-250,
    1e-290,
    1e290,
    9.99999999999e289,
    2.0**-16,                    # 1.52587890625e-05, an exact tie: to even
    12345678901.5,               # exact tie, rounds the odd 1 up
    98765432100.5,               # exact tie, keeps the even 0
    -10000000000.5,
    0.0,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_values_match_python(value):
    column = float_column([value, -value])
    assert format_rows([column]) == reference_rows([column])


def test_powers_of_ten_and_their_neighbours():
    powers = float_column([float(f"1e{k}") for k in range(-320, 309)])
    column = np.concatenate(
        [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
    )
    assert format_rows([column]) == reference_rows([column])


def test_integer_column_matches_str():
    ints = np.array([0, 1, 9, 10, 99, 100, 12345, 987654, 1000000, 7], dtype=np.int64)
    floats = np.linspace(-1.0, 1.0, len(ints))
    assert format_rows([ints, floats]) == reference_rows([ints, floats])


@pytest.mark.parametrize(
    "rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2**16 - 1, 2**16, 2**16 + 1]
)
def test_blocks_join_across_boundaries(rows, tmp_path, capsys):
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows), rng.standard_normal(rows) * 10.0 ** rng.integers(-5, 5, rows)]
    expected = b"# head\nindex,x\n" + reference_rows(columns)
    out = tmp_path / "out.csv"
    write_csv(str(out), "# head\nindex,x", columns)
    assert out.read_bytes() == expected
    write_csv(None, "# head\nindex,x", columns)
    assert capsys.readouterr().out.encode("ascii") == expected
