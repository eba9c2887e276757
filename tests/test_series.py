import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbound import (
    CapacityError,
    TruncatedSeries,
    ValidationError,
    chern_normal,
)
from torbound.series import MAX_SERIES_ORDER


def test_product_example():
    a = TruncatedSeries((1, 2, 1))
    b = TruncatedSeries((1, -2, 3))
    assert (a * b).coefficients == (1, 0, 0)


def test_invert_example():
    s = TruncatedSeries((1, 2, 1))
    assert s.invert().coefficients == (1, -2, 3)


def test_invert_skips_zero_coefficients():
    # (1 + 10**6 t)**-1 at the order cap: one product per coefficient
    start = time.perf_counter()
    inverse = TruncatedSeries((1, 10**6), order=4000).invert()
    assert time.perf_counter() - start < 2.0
    assert inverse.coefficients == tuple((-10**6) ** i for i in range(4001))


def test_invert_needs_unit_constant_term():
    with pytest.raises(ValidationError):
        TruncatedSeries((2, 1)).invert()
    with pytest.raises(ValidationError):
        TruncatedSeries((0, 1)).invert()


def test_mismatched_orders_are_errors():
    a = TruncatedSeries((1, 2), order=1)
    b = TruncatedSeries((1, 2, 3), order=2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValidationError):
            op()


def test_constructor_pads_but_never_truncates():
    s = TruncatedSeries((1, 2), order=4)
    assert s.coefficients == (1, 2, 0, 0, 0)
    with pytest.raises(ValidationError):
        TruncatedSeries((1, 2, 3), order=1)


def test_scale_variable():
    a, b = 7, -4
    s = TruncatedSeries((1, a, b)).scale_variable(2)
    assert s.coefficients == (1, 2 * a, 4 * b)


def test_immutable():
    s = TruncatedSeries((1, 2))
    with pytest.raises(AttributeError):
        s.order = 5


def test_coefficient_bounds():
    s = TruncatedSeries((1, 2, 3))
    assert s[2] == 3
    with pytest.raises(ValidationError):
        s.coefficient(3)


int_series = st.lists(st.integers(-9, 9), min_size=0, max_size=12).map(
    lambda tail: TruncatedSeries((1, *tail))
)


@given(int_series)
@settings(max_examples=500, deadline=None)
def test_invert_roundtrip(s):
    assert s.invert().invert() == s


@given(int_series)
@settings(max_examples=200, deadline=None)
def test_invert_is_multiplicative_inverse(s):
    assert (s * s.invert()) == TruncatedSeries.one(s.order)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
)
@settings(deadline=None)
def test_mul_commutes(xs, ys):
    n = max(len(xs), len(ys)) - 1
    a = TruncatedSeries(tuple(xs), order=n)
    b = TruncatedSeries(tuple(ys), order=n)
    assert a * b == b * a


def test_fraction_coefficients_supported():
    s = TruncatedSeries((1, Fraction(1, 2), Fraction(-3, 4)))
    inv = s.invert()
    assert inv.coefficients == (1, Fraction(-1, 2), Fraction(1, 1))
    assert (s * inv).coefficients == (1, 0, 0)


def test_float_coefficients_rejected():
    with pytest.raises(ValidationError):
        TruncatedSeries((1.0, 2.0))


# the exact-rational substrate: canonical form is part of the contract
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals)
@settings(deadline=None)
def test_rational_canonical_form(x, y):
    z = x * y + x - y
    assert z.denominator > 0
    assert math.gcd(z.numerator, z.denominator) == 1


@given(rationals, rationals)
@settings(deadline=None)
def test_rational_add_sub_roundtrip(x, y):
    assert (x + y) - y == x


@given(rationals, rationals.filter(lambda v: v != 0))
@settings(deadline=None)
def test_rational_mul_div_roundtrip(x, y):
    assert (x * y) / y == x


def test_order_cap_refuses_before_padding():
    assert TruncatedSeries((1,), order=MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    past = MAX_SERIES_ORDER + 1
    for make in [
        lambda: TruncatedSeries((1,), order=past),
        lambda: TruncatedSeries((0,) * (past + 1)),
        lambda: TruncatedSeries.one(past),
        lambda: chern_normal(1, (1,), past),
    ]:
        with pytest.raises(CapacityError, match="series order cap exceeded"):
            make()



def test_repr_prints_big_coefficients_exactly_from_library_code():
    limit = sys.get_int_max_str_digits()
    big = 10**5000  # past CPython's 4300-digit int-to-str limit
    assert repr(TruncatedSeries((1, big), order=1)) == (
        "TruncatedSeries((1, 1" + "0" * 5000 + "))"
    )
    assert sys.get_int_max_str_digits() == limit
