"""The array formatter of snapshot grids against Python's ``repr``."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincat import scenario, snapshot_text
from spincat.dicke import Basis, SectorLabel
from spincat.errors import NumericError
from spincat.float_text import WIDTH, reprs

_LARGEST_SUBNORMAL = math.nextafter(2.2250738585072014e-308, 0.0)


def _texts(values) -> list[str]:
    text, length = reprs(np.array(values, dtype=float))
    assert text.shape == (len(values), WIDTH)
    assert not text[np.arange(WIDTH) >= length[:, None]].any()  # NULs after each text
    return [row[:n].tobytes().decode("ascii") for row, n in zip(text, length)]


def _assert_reprs(values):
    assert _texts(values) == [repr(float(v)) for v in values]


# every positive finite double is the float of a bit pattern in this range
_bit_patterns = st.integers(1, 0x7FEF_FFFF_FFFF_FFFF).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_bit_patterns, st.floats(min_value=5e-324, allow_infinity=False),
                          st.integers(1, 2**60).map(float)), min_size=1, max_size=40))
@example([5e-324, _LARGEST_SUBNORMAL, 2.2250738585072014e-308, 0.5, 1.0])
@example([9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16])
@example([1.7976931348623157e308, 123456.0, 0.1, 0.3, 2.0**53, 2.0**53 + 2, 1e22, 1e23])
def test_reprs_is_repr(values):
    _assert_reprs(values)


def test_reprs_of_powers_and_their_neighbours():
    # every power of 2 and of 10 a double can hold, with the doubles on
    # either side: the bounds of the rounding interval and the exponent edges
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    values = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    _assert_reprs([v for v in values if 0.0 < v < math.inf])


def test_reprs_of_subnormals_and_random_doubles():
    rng = np.random.default_rng(31)
    subnormal = rng.integers(1, 1 << 52, size=20_000, dtype=np.uint64).view(float)
    normal = rng.integers(1 << 52, 0x7FF0_0000_0000_0000, size=20_000, dtype=np.uint64).view(float)
    _assert_reprs(np.concatenate([subnormal, normal]).tolist())


def test_reprs_of_no_values():
    text, length = reprs(np.array([]))
    assert text.shape == (0, WIDTH) and length.shape == (0,)


@pytest.mark.parametrize("bad", [-1.0, -5e-324, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_reprs_refuses_what_is_not_a_finite_positive_float(bad):
    with pytest.raises(NumericError, match="not a finite float > 0"):
        reprs(np.array([0.5, bad, 0.25]))


@pytest.mark.parametrize("bad", [-0.125, math.nan, math.inf])
def test_a_grid_with_a_bad_entry_writes_no_snapshot(tmp_path, bad):
    grid = np.full((5, 5), 0.0625)
    grid[1, 3] = grid[3, 1] = bad
    target = tmp_path / "snapshot_000.csv"
    lines = snapshot_text.snapshot_lines(grid, SectorLabel(4), Basis.LZ, 1.0)
    with pytest.raises(NumericError):
        scenario._write_atomic(str(target), lines)
    assert list(tmp_path.iterdir()) == []
