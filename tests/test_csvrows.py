"""The flow CSV writer against Python's own ``%`` formatting, value by value."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majoranaq._csvrows import _E_HI, _E_LO, _decimal, _digits, format_rows


def _fields(values) -> list:
    """The value fields ``format_rows`` writes for ``values``, one row each."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    lines = format_rows(np.zeros(len(column)), column).decode().split("\n")
    assert lines[-1] == ""
    return [line.split(",")[1] for line in lines[:-1]]


def _assert_matches(values) -> None:
    expected = ["%.16e" % v for v in values]
    assert _fields(values) == expected


def _exact(values) -> np.ndarray:
    """Where the integer path, not ``%``, formats ``values``."""
    return _decimal(np.asarray(values, dtype=float))[2]


def _ties() -> list:
    """Exact decimal ties n / 2^j, with their 18-digit decimals n * 5^j: n is
    odd, so n * 5^j ends in 5 and the 17-digit rounding falls on a half.
    j runs so that the exponent 17 - j covers the exact range."""
    rng = np.random.default_rng(20261020)
    ties = []
    for j in range(17 - _E_HI, 18 - _E_LO):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if lo < hi:
            ties += [(n / 2 ** j, n * 5 ** j)
                     for n in (int(n) | 1 for n in rng.integers(lo, hi, size=60)) if n < hi]
    return ties


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_finite_value_matches_percent_format(values):
    _assert_matches(values)


@given(st.lists(st.floats(min_value=1e-15, max_value=9.999999999999998e16), min_size=1,
                max_size=40))
def test_exact_range_matches_percent_format(values):
    _assert_matches(values + [-v for v in values])


def test_random_values_across_the_exact_range():
    # log-uniform over every decade, so each decade's table entry and every
    # rounding branch (about 1 in 128 values sits within 2^64 of a half) run
    rng = np.random.default_rng(918273)
    values = 10.0 ** rng.uniform(_E_LO, _E_HI + 1, size=40000) * rng.choice([-1.0, 1.0], 40000)
    assert _exact(values).mean() > 0.999
    _assert_matches(values.tolist())


def test_exact_ties_round_half_to_even():
    ties = _ties()
    values = [v for v, _decimal18 in ties]
    assert len(values) > 1000 and _exact(values).all()
    # the 17th digit of the 18-digit decimal is odd (rounds up) or even
    # (rounds down) in about half of the ties each
    assert {decimal18 // 10 % 2 for _v, decimal18 in ties} == {0, 1}
    _assert_matches(values)
    _assert_matches([-v for v in values])


@pytest.mark.parametrize("k", range(_E_LO - 1, _E_HI + 2))
def test_powers_of_ten_and_their_neighbours(k):
    x = 10.0 ** k
    _assert_matches([np.nextafter(x, 0.0), x, np.nextafter(x, math.inf),
                     -np.nextafter(x, 0.0), -x, -np.nextafter(x, math.inf)])


def test_exact_path_covers_its_decades():
    # one value inside each decade of the exact range takes the integer path,
    # and none outside it does
    inside = [3.0 * 10.0 ** k for k in range(_E_LO, _E_HI + 1)]
    assert _exact(inside).all()
    assert not _exact([3.0 * 10.0 ** (_E_LO - 1), 1e17, 0.0]).any()


def test_round_up_to_the_next_power_of_ten():
    # the double nearest 1e-14 lies below it, at 9.99999999999999998...e-15:
    # its 17 digits round up to 10^17, which is 1.0000000000000000e-14
    assert Fraction(1e-14) < Fraction(1, 10 ** 14)
    assert "%.16e" % 1e-14 == "1.0000000000000000e-14"
    _assert_matches([1e-14, -1e-14, 9.99999999999999999e-05])
    # log10 puts it at -14, so % formats it; given the exponent -15 of its
    # decade, the integer path makes the same round-up
    N, E, exact = _digits(np.array([1e-14]), np.array([-15]))
    assert exact[0] and N[0] == 10 ** 16 and E[0] == -14


def test_zeros_and_non_finite_values():
    _assert_matches([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])


def test_rows_join_time_and_values():
    times = np.array([0.0, 5e-05, 1e-3 * 7, 1234567.891011])
    values = np.array([[1.5, -2.0], [0.0, 1e-20], [-3e-16, 7.0], [1e300, -1e-15]])
    expected = "".join(",".join(["%.10g" % t] + ["%.16e" % v for v in row]) + "\n"
                       for t, row in zip(times, values))
    assert format_rows(times, values) == expected.encode()
