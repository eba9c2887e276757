import math
import random

import pytest
from kernel import w_coeff

import torbound
from torbound import (
    InternalConsistencyError,
    TruncatedSeries,
    ValidationError,
    chern_normal,
    chern_tangent,
    cotangent_chern,
    deg_cotangent,
    frobenius_scale,
    segre_cotangent,
    sym_elementary,
    top_integral,
)


def test_chern_normal_is_elementary_symmetric():
    s = chern_normal(3, (1, 2, 4), 5)
    assert s.coefficients == (1, 7, 14, 8, 0, 0)
    for j in range(6):
        assert s.coefficient(j) == sym_elementary((1, 2, 4), j)


def test_chern_normal_equals_the_product_of_factor_series():
    rng = random.Random(8)
    for _ in range(60):
        c = rng.randint(1, 8)
        exps = tuple(rng.randint(1, 9) for _ in range(c))
        order = rng.randint(0, 10)
        product = TruncatedSeries.one(order)
        for e in exps:
            product = product * TruncatedSeries((1, e)[: order + 1], order=order)
        assert chern_normal(c, exps, order) == product


def test_chern_normal_times_tangent_is_one():
    for exps in [(2,), (1, 1), (3, 5), (2, 3, 4)]:
        c = len(exps)
        n = chern_normal(c, exps, 6)
        t = chern_tangent(c, exps, 6)
        assert n * t == TruncatedSeries.one(6)


def test_chern_tangent_uniform_coefficients():
    # uniform exponents: coefficient i is e^i times the inverse-power table
    for c in range(1, 7):
        for e in range(1, 6):
            t = chern_tangent(c, (e,) * c, 10)
            for i in range(11):
                assert t.coefficient(i) == e**i * w_coeff(i, c)


def test_chern_tangent_frozen_value():
    assert chern_tangent(2, (1, 1), 3).coefficient(2) == 3


def test_cotangent_chern_alternates_signs():
    t = chern_tangent(2, (2, 3), 5)
    o = cotangent_chern(2, (2, 3), 5)
    for j in range(6):
        assert o.coefficient(j) == (-1) ** j * t.coefficient(j)


def test_frobenius_scale_example():
    a, b = 11, -6
    s = frobenius_scale(TruncatedSeries((1, a, b)), 2)
    assert s.coefficients == (1, 2 * a, 4 * b)


def test_frobenius_scale_is_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        xs = [1] + [rng.randint(-5, 5) for _ in range(5)]
        ys = [1] + [rng.randint(-5, 5) for _ in range(5)]
        a = TruncatedSeries(tuple(xs))
        b = TruncatedSeries(tuple(ys))
        assert frobenius_scale(a * b, 3) == frobenius_scale(a, 3) * frobenius_scale(b, 3)


def test_frobenius_scale_commutes_with_invert():
    s = TruncatedSeries((1, 4, -2, 5))
    assert frobenius_scale(s, 5).invert() == frobenius_scale(s.invert(), 5)


def test_frobenius_scale_validation():
    with pytest.raises(ValidationError):
        frobenius_scale(TruncatedSeries((1, 2)), 1)
    with pytest.raises(ValidationError):
        frobenius_scale((1, 2), 2)


def test_segre_cotangent_uniform_closed_form():
    for c in range(1, 6):
        for e in range(1, 6):
            order = 8
            for m in range(order + 1):
                expected = (-e) ** m * math.comb(c, m)
                assert segre_cotangent(m, c, (e,) * c, order) == expected


def test_segre_cotangent_frozen_value():
    assert segre_cotangent(1, 1, (2,), 1) == -2


def test_segre_cotangent_nonuniform_paths_agree():
    # the function itself dual-checks recurrence vs closed form; exercise it
    rng = random.Random(12)
    for _ in range(40):
        c = rng.randint(1, 5)
        exps = tuple(rng.randint(1, 6) for _ in range(c))
        order = rng.randint(1, 7)
        for m in range(order + 1):
            segre_cotangent(m, c, exps, order)


def test_segre_cotangent_refuses_a_negative_order():
    for m in (0, -1):
        with pytest.raises(ValidationError, match=r"^series order must be >= 0$"):
            segre_cotangent(m, 1, (1,), -1)


def test_segre_cotangent_route_fires(monkeypatch):
    # S(t) = (1 - t)**2 for c = 2, e = (1, 1): coefficient 2 is 1
    real = torbound.chern._elementary_table
    monkeypatch.setattr(torbound.chern, "_elementary_table",
                        lambda vals, j: tuple(x + 1 for x in real(vals, j)))
    with pytest.raises(InternalConsistencyError, match="segre coefficient") as info:
        segre_cotangent(2, 2, (1, 1), 3)
    assert str(info.value) == "segre coefficient 2 disagrees: recurrence 1, closed form 2"


def test_top_integral():
    assert top_integral(2, 1, (3,), 1) == 3
    assert top_integral(4, 2, (2, 3), 5) == 30
    with pytest.raises(ValidationError):
        top_integral(2, 2, (1, 1), 1)


def test_deg_cotangent_examples():
    assert deg_cotangent(2, 1, (3,), 1) == 9
    assert deg_cotangent(4, 2, (2, 3), 1) == 30
    # uniform closed form: c * e^(c+1) * d
    for n, c, e, d in [(4, 2, 3, 2), (5, 3, 2, 1), (6, 4, 1, 7)]:
        assert deg_cotangent(n, c, (e,) * c, d) == c * e ** (c + 1) * d


def test_deg_cotangent_validation():
    with pytest.raises(ValidationError):
        deg_cotangent(1, 1, (1,), 1)
    with pytest.raises(ValidationError):
        deg_cotangent(3, 3, (1, 1, 1), 1)
    with pytest.raises(ValidationError):
        deg_cotangent(3, 2, (1,), 1)
    with pytest.raises(ValidationError):
        deg_cotangent(3, 2, (1, 0), 1)
    with pytest.raises(ValidationError):
        deg_cotangent(3, 2, (1, 1), 0)
