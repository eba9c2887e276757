"""deg_abelian_bound holds its exponent 2n to the bound size cap, after the
checks of its three arguments and before the power, so a huge n is refused at
once instead of running without end."""

import re
import time

import pytest

import torbound
from torbound import ValidationError, deg_abelian_bound
from torbound.errors import CapacityError

SIZE_MESSAGE = f"bound size cap exceeded ({torbound.bounds.MAX_BOUND_BITS})"


@pytest.mark.parametrize("args", [(10**30, 1, 5), (10**6, 1, 10**20 + 39), (525313, 1, 2)])
def test_a_huge_n_is_refused_at_once(args):
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"^{re.escape(SIZE_MESSAGE)}$"):
        deg_abelian_bound(*args)
    assert time.perf_counter() - start < 1


def test_the_cap_admits_every_n_a_report_reaches():
    assert torbound.bounds.MAX_BOUND_BITS // 2 == 525312
    assert deg_abelian_bound(525312, 1, 2) == 2**1050624


@pytest.mark.parametrize("args, message", [
    ((10**30, 0, 5), "degL >= 1 violated"),
    ((10**30, 1, 9), "p must be prime"),
    ((0, 1, 5), "n >= 1 violated"),
])
def test_the_argument_checks_come_first(args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        deg_abelian_bound(*args)
