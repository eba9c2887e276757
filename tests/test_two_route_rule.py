"""The two-route rule: two independent routes to one value must agree.

`errors.check_routes` compares them, as scalars or one coefficient at a time,
and names the first disagreement; every cross-check of the bound path goes
through it.
"""

import re

import pytest

import torbound
from torbound import BoundInput, torsion_bound
from torbound.errors import InternalConsistencyError, check_routes


def test_agreeing_routes_return_the_first_values():
    assert check_routes("w", ("a", (1, -2, 3)), ("b", [1, -2, 3]), "t**{}") == (1, -2, 3)
    assert check_routes("w", ("a", ()), ("b", ()), "t**{}") == ()
    assert check_routes("w", ("a", 7), ("b", 7)) == 7


def test_first_mismatch_names_its_index_and_both_values():
    with pytest.raises(InternalConsistencyError) as info:
        check_routes("w_table", ("closed form", (1, 5, 9, 4)),
                     ("tangent series", (1, 2, 3, 4)), "t**{}")
    assert str(info.value) == "w_table disagrees at t**1: closed form 5, tangent series 2"


def test_unequal_lengths_are_a_disagreement():
    for a, b in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (0,))]:
        with pytest.raises(InternalConsistencyError) as info:
            check_routes("w", ("a", a), ("b", b), "p**{}")
        assert str(info.value) == f"w disagrees in length: a {len(a)}, b {len(b)}"


def test_scalar_form_names_no_index():
    with pytest.raises(InternalConsistencyError) as info:
        check_routes("cotangent degree", ("closed form", 12), ("integral", 13))
    assert str(info.value) == "cotangent degree disagrees: closed form 12, integral 13"


def test_uniform_message_names_both_routes(monkeypatch):
    real = torbound.bounds._closed_form_rows

    def corrupted(n, c, exps, d, uniform):
        rows, table = real(n, c, exps, d, uniform)
        if uniform:
            rows = rows[:1] + ((1,) + rows[1][1:3] + (rows[1][3] + 1,),) + rows[2:]
        return rows, table

    monkeypatch.setattr(torbound.bounds, "_closed_form_rows", corrupted)
    general = real(4, 2, (2, 2), 1, False)[0][1][3]
    message = f"uniform specialization disagrees at h=1: uniform {general + 1}, general {general}"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        torsion_bound(BoundInput(4, 2, (2, 2), 1))


def test_big_values_print_in_exact_digits():
    # past CPython's 4300-digit int-to-str limit, outside the CLI too
    big = 10**5000
    with pytest.raises(InternalConsistencyError) as info:
        check_routes("w", ("a", (1, big)), ("b", (1, big + 1)), "t**{}")
    assert str(info.value) == f"w disagrees at t**1: a 1{'0' * 5000}, b 1{'0' * 4999}1"
