"""A refusal message that names an input int prints it with digits.

str of an int past the interpreter's 4300-digit limit raises ValueError, so
each of these sites once answered a huge input with ValueError instead of
ValidationError. `TruncatedSeries.coefficient` builds its message only on a
refusal, not on each valid call.
"""

import re

import pytest

from torbound import (TruncatedSeries, ValidationError, chern_normal, cotangent_chern,
                      segre_cotangent, series)
from torbound.errors import digits

HUGE = 10**5000


def refused(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("j", [HUGE, -HUGE], ids=["huge", "minus-huge"])
def test_a_huge_coefficient_index(j):
    s = TruncatedSeries((1, 2))
    refused(lambda: s.coefficient(j), f"coefficient index {digits(j)} outside [0, 1]")
    refused(lambda: s[j], f"coefficient index {digits(j)} outside [0, 1]")


def test_a_coefficient_index_that_is_not_an_int():
    for j in (1.0, "1", True, None):
        refused(lambda: TruncatedSeries((1, 2)).coefficient(j), "coefficient index must be an int")


def test_a_valid_coefficient_builds_no_message(monkeypatch):
    printed = []
    monkeypatch.setattr(series, "digits", lambda n: printed.append(n) or str(n))
    s = TruncatedSeries((1, 2, 3))
    assert [s.coefficient(j) for j in range(3)] == [s[j] for j in range(3)] == [1, 2, 3]
    assert printed == []
    refused(lambda: s[3], "coefficient index 3 outside [0, 2]")
    assert printed == [3]


def test_chern_normal_with_a_huge_c():
    refused(lambda: chern_normal(HUGE, (1,), 3), f"exponents length 1 != c = {digits(HUGE)}")


def test_cotangent_chern_with_a_huge_c():
    refused(lambda: cotangent_chern(HUGE, (1,), 3), f"exponents length 1 != c = {digits(HUGE)}")


def test_segre_cotangent_with_a_huge_index():
    refused(lambda: segre_cotangent(HUGE, 1, (1,), 3),
            f"coefficient index {digits(HUGE)} outside [0, 3]")
    refused(lambda: segre_cotangent(4.0, 1, (1,), 3), "coefficient index must be an int")
