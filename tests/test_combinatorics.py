import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbound import (
    CapacityError,
    CompositionMultiset,
    TruncatedSeries,
    ValidationError,
    enumerate_compositions,
    inverse_series_coeff,
    signed_multinomial,
    sym_complete,
    sym_elementary,
    w_coeff,
    z_coeff,
)


def partition_count(m):
    # independent oracle: Euler's recurrence-free DP over part sizes
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def test_enumeration_weight_three():
    got = [b.multiplicities for b in enumerate_compositions(3)]
    assert got == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


def test_enumeration_counts_match_partition_numbers():
    for m in range(0, 21):
        assert len(enumerate_compositions(m)) == partition_count(m)


def test_enumeration_weights_and_canonical_order():
    for m in range(0, 12):
        multisets = enumerate_compositions(m)
        assert all(b.weight == m for b in multisets)
        largest = [max(b.parts()) if b.parts() else 0 for b in multisets]
        assert largest == sorted(largest, reverse=True)
        assert len(set(multisets)) == len(multisets)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_compositions(65)
    with pytest.raises(ValidationError):
        enumerate_compositions(-1)
    # the kernel and the coefficients built on it pass the cap error through
    with pytest.raises(CapacityError):
        w_coeff(65, 2)
    with pytest.raises(CapacityError):
        z_coeff(65, 2, (1, 2))


def test_composition_multiset_validation():
    with pytest.raises(ValidationError):
        CompositionMultiset((1, -2))
    for mults in [(1.7, 2), (True, 0), (1, "2")]:
        with pytest.raises(ValidationError):
            CompositionMultiset(mults)
    with pytest.raises(ValidationError):
        signed_multinomial((2.0,))
    b = CompositionMultiset((2, 0, 1))
    assert b.weight == 5
    assert b.parts() == [3, 1, 1]


def test_signed_multinomial_examples():
    assert signed_multinomial((1,)) == -1
    assert signed_multinomial((2, 0)) == 1
    assert signed_multinomial((1, 1)) == 2


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(deadline=None)
def test_signed_multinomial_sign_and_magnitude(mults):
    value = signed_multinomial(tuple(mults))
    total = sum(mults)
    assert value * (-1) ** total > 0 or total == 0 and value == 1
    expected = math.factorial(total)
    for r in mults:
        expected //= math.factorial(r)
    assert abs(value) == expected


def test_w_coeff_examples():
    assert w_coeff(1, 3) == -3
    assert w_coeff(2, 3) == 6
    assert w_coeff(2, 2) == 3
    assert w_coeff(0, 7) == 1


def test_w_coeff_closed_form_and_series_oracle():
    for c in range(1, 11):
        # (1+t)^c assembled by repeated multiplication, inverted once
        n = 12
        base = TruncatedSeries((1, 1), order=n)
        power = TruncatedSeries.one(n)
        for _ in range(c):
            power = power * base
        inv = power.invert()
        for m in range(0, 13):
            w = w_coeff(m, c)
            assert w == (-1) ** m * math.comb(c + m - 1, m)
            assert w == inv.coefficient(m)


def test_sym_elementary_values():
    vals = (1, 2, 3)
    assert [sym_elementary(vals, j) for j in range(5)] == [1, 6, 11, 6, 0]
    assert sym_elementary((), 0) == 1
    with pytest.raises(ValidationError):
        sym_elementary(vals, -1)
    # values are exponents: ints only, never InternalConsistencyError
    for bad in [(Fraction(1, 2), Fraction(1, 3)), (1.5, 2), (True, 2), (1, "2")]:
        with pytest.raises(ValidationError):
            sym_elementary(bad, 1)


def test_sym_elementary_matches_monomial_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        vals = tuple(rng.randint(-6, 9) for _ in range(rng.randint(0, 9)))
        for j in range(len(vals) + 2):
            brute = sum(math.prod(combo) for combo in itertools.combinations(vals, j))
            assert sym_elementary(vals, j) == brute


def test_sym_elementary_is_polynomial_in_the_number_of_values():
    # 2**40 monomials at j = 20; the identities need a few hundred products
    assert sym_elementary((1,) * 40, 20) == math.comb(40, 20)
    assert sym_elementary(range(1, 31), 30) == math.factorial(30)


def test_sym_complete_values():
    assert sym_complete((1, 2), 2) == 7
    assert [sym_complete((2,), i) for i in range(4)] == [1, 2, 4, 8]
    assert sym_complete((), 2) == 0
    for bad in [(Fraction(1, 2), Fraction(1, 3)), (1.5, 2), (True, 2)]:
        with pytest.raises(ValidationError):
            sym_complete(bad, 2)


def test_z_coeff_example():
    assert z_coeff(2, 2, (1, 2)) == 7 * (-1) ** 2
    assert z_coeff(2, 2, (1, 2)) == 7


def test_z_coeff_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        z_coeff(2, 3, (1, 2))


def test_z_coeff_series_oracle():
    for exps in [(1, 2), (3, 3, 4), (2, 5, 7, 9), (1, 1, 1)]:
        c = len(exps)
        order = 8
        prod = TruncatedSeries.one(order)
        for e in exps:
            prod = prod * TruncatedSeries((1, e), order=order)
        inv = prod.invert()
        for i in range(order + 1):
            assert z_coeff(i, c, exps) == inv.coefficient(i)
            assert z_coeff(i, c, exps) == (-1) ** i * sym_complete(exps, i)


def test_z_uniform_specializes_to_w():
    for c in range(1, 6):
        for e in range(1, 6):
            for i in range(0, 7):
                assert z_coeff(i, c, (e,) * c) == e**i * w_coeff(i, c)


def test_inverse_series_coeff_examples():
    # head of an inverse of 1+t
    for m in range(0, 8):
        head = (1,) + (0,) * max(0, m - 1)
        assert inverse_series_coeff(head, m) == (-1) ** m
    assert inverse_series_coeff((), 0) == 1
    with pytest.raises(ValidationError):
        inverse_series_coeff((1,), 3)


@given(st.lists(st.integers(-6, 6), min_size=0, max_size=9))
@settings(max_examples=200, deadline=None)
def test_inverse_series_coeff_matches_recurrence(head):
    m = len(head)
    series = TruncatedSeries((1, *head), order=m)
    assert inverse_series_coeff(tuple(head), m) == series.invert().coefficient(m)


def test_double_inversion_over_w_sequence():
    for c in range(1, 6):
        for m in range(0, 9):
            head = tuple(w_coeff(i, c) for i in range(1, m + 1))
            assert inverse_series_coeff(head, m) == math.comb(c, m)


def test_double_inversion_over_z_sequence():
    for exps in [(2,), (1, 3), (4, 4, 5), (9, 2, 6, 1, 5)]:
        c = len(exps)
        for m in range(0, 9):
            head = tuple(z_coeff(i, c, exps) for i in range(1, m + 1))
            assert inverse_series_coeff(head, m) == sym_elementary(exps, m)
