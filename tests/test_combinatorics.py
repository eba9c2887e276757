import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel import inverse_series_coeff, partitions, w_coeff, z_coeff

from torbound import CapacityError, TruncatedSeries, ValidationError, sym_complete, sym_elementary
from torbound.combinatorics import check_weight, sym_complete_table, sym_elementary_table


def partition_count(m):
    # independent oracle: Euler's recurrence-free DP over part sizes
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def test_partitions_of_three():
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_counts_match_partition_numbers():
    for m in range(0, 21):
        assert len(list(partitions(m))) == partition_count(m)


def test_partitions_weights_and_canonical_order():
    for m in range(0, 12):
        parts = list(partitions(m))
        assert all(sum(p) == m and list(p) == sorted(p, reverse=True) for p in parts)
        largest = [p[0] if p else 0 for p in parts]
        assert largest == sorted(largest, reverse=True)
        assert len(set(parts)) == len(parts)


def test_check_weight_holds_the_cap():
    # the cap the series tables read: 64 is admitted, 65 refused as capacity
    assert check_weight(64, "m") == 64
    assert check_weight(0, "m") == 0
    with pytest.raises(CapacityError, match=r"^composition weight cap exceeded \(64\)$"):
        check_weight(65, "m")
    for bad in (-1, 2.0, True, None):
        with pytest.raises(ValidationError, match="^m$"):
            check_weight(bad, "m")


def test_the_tables_check_the_values_at_every_degree():
    # degree 0 reads no value, and the values are still checked
    for table in (sym_elementary_table, sym_complete_table):
        for i in range(3):
            for bad in [(1.5,), (Fraction(1, 2),), (True,), ("1",)]:
                with pytest.raises(ValidationError):
                    table(bad, i)


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


def test_sym_complete_matches_monomial_enumeration():
    rng = random.Random(11)
    for k in range(7):
        for i in range(7):
            for _ in range(5):
                vals = tuple(rng.randint(-6, 9) for _ in range(k))
                brute = sum(
                    math.prod(combo)
                    for combo in itertools.combinations_with_replacement(vals, i)
                )
                assert sym_complete(vals, i) == brute


def test_sym_complete_is_polynomial_in_the_degree():
    # comb(79, 40) monomials; the recurrence needs 40 * 40 products
    assert sym_complete((1,) * 40, 40) == math.comb(79, 40)


def test_z_coeff_example():
    assert z_coeff(2, (1, 2)) == 7


def test_z_coeff_series_oracle():
    for exps in [(1, 2), (3, 3, 4), (2, 5, 7, 9), (1, 1, 1)]:
        order = 8
        prod = TruncatedSeries.one(order)
        for e in exps:
            prod = prod * TruncatedSeries((1, e), order=order)
        inv = prod.invert()
        for i in range(order + 1):
            assert z_coeff(i, exps) == inv.coefficient(i)
            assert z_coeff(i, exps) == (-1) ** i * sym_complete(exps, i)


def test_z_uniform_specializes_to_w():
    for c in range(1, 6):
        for e in range(1, 6):
            for i in range(0, 7):
                assert z_coeff(i, (e,) * c) == e**i * w_coeff(i, c)


def test_inverse_series_coeff_examples():
    # head of an inverse of 1+t
    for m in range(0, 8):
        head = (1,) + (0,) * max(0, m - 1)
        assert inverse_series_coeff(head, m) == (-1) ** m
    assert inverse_series_coeff((), 0) == 1


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
        for m in range(0, 9):
            head = tuple(z_coeff(i, exps) for i in range(1, m + 1))
            assert inverse_series_coeff(head, m) == sym_elementary(exps, m)


def test_symmetric_tables_end_in_the_single_values():
    rng = random.Random(5)
    for _ in range(40):
        vals = tuple(rng.randint(-4, 6) for _ in range(rng.randint(0, 6)))
        top = rng.randint(0, 9)
        e_table = sym_elementary_table(vals, top)
        h_table = sym_complete_table(vals, top)
        assert len(e_table) == len(h_table) == top + 1
        assert e_table == tuple(sym_elementary(vals, j) for j in range(top + 1))
        assert h_table == tuple(sym_complete(vals, i) for i in range(top + 1))
        # E(t) * H(-t) = 1
        for k in range(1, top + 1):
            assert sum((-1) ** i * h_table[i] * e_table[k - i] for i in range(k + 1)) == 0
