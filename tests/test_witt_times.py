"""k x in closed form, and the checked public carry.

`WittPair.times(k)` reads k (a0, a1) off the ghost map as
(k a0, k a1 + ((k - k^p) / p) a0^p): no carry, no field element, and a cost
that does not depend on k. `WittRing.carry_index` is public and refuses any
index that is not an int in [0, q - 1]; the pair operators take the
unchecked `_carry_index`.
"""

import random

import pytest

from torbound import FiniteField, FqElement, ValidationError, WittPair, WittRing

FIELDS = {
    "F2": (2, None),
    "F3": (3, None),
    "F101": (101, None),
    "F4": (2, (1, 1, 1)),
    "F8": (2, (1, 1, 0, 1)),
    "F9": (3, (2, 2, 1)),
    "F25": (5, (2, 0, 1)),
}


def sample(ring, rng, count):
    q = ring.field.order
    return [WittPair(ring, rng.randrange(q), rng.randrange(q)) for _ in range(count)]


@pytest.mark.parametrize("p, modulus", FIELDS.values(), ids=FIELDS.keys())
def test_times_is_repeated_addition(p, modulus):
    ring = WittRing(FiniteField(p, modulus))
    rng = random.Random(p * 1000 + ring.field.degree)
    for x in sample(ring, rng, 12):
        sums = [ring.zero]
        for _ in range(60):
            sums.append(sums[-1] + x)
        for k in rng.sample(range(61), 20) + [0, 60]:
            assert x.times(k) == sums[k], (x, k)


@pytest.mark.parametrize("p, modulus", FIELDS.values(), ids=FIELDS.keys())
def test_a_huge_multiple_reads_k_mod_p_squared(p, modulus):
    ring = WittRing(FiniteField(p, modulus))
    k = 10**30 + 7
    for x in sample(ring, random.Random(p), 8):
        assert x.times(k) == x.times(k % p**2)


@pytest.mark.parametrize("p, modulus", [FIELDS["F2"], FIELDS["F9"], FIELDS["F101"]],
                         ids=["F2", "F9", "F101"])
def test_times_makes_no_carry_and_builds_no_field_element(p, modulus, monkeypatch):
    ring = WittRing(FiniteField(p, modulus))
    x, y = WittPair(ring, 1, 1), WittPair(ring, ring.field.order - 1, 0)
    carries, built = [], []
    carry, init = WittRing._carry_index, FqElement.__init__

    def counting_carry(self, a, b):
        carries.append((a, b))
        return carry(self, a, b)

    def counting_init(self, field, index):
        built.append(index)
        init(self, field, index)

    monkeypatch.setattr(WittRing, "_carry_index", counting_carry)
    monkeypatch.setattr(FqElement, "__init__", counting_init)
    for k in (0, 1, 2, 7, 60, p, p * p + 1, 10**30):
        x.times(k), y.times(k)
    assert carries == [] and built == []
    x + y  # the operators do carry, through the same method
    assert len(carries) == 1


@pytest.mark.parametrize("p, modulus", [FIELDS["F9"], FIELDS["F101"]], ids=["F9", "F101"])
def test_carry_index_refuses_what_is_not_an_index(p, modulus):
    ring = WittRing(FiniteField(p, modulus))
    q = ring.field.order
    message = r"^carry indices must be ints in \[0, q - 1\]$"
    for bad in (1.0, "x", None, True, q, 10**30, -1, -(10**5000), 10**5000):
        for a, b in ((bad, 1), (1, bad)):
            with pytest.raises(ValidationError, match=message):
                ring.carry_index(a, b)
    for a, b in ((0, q - 1), (q - 1, q - 1), (1, 2)):
        assert ring.carry_index(a, b) == ring._carry_index(a, b)
        assert ring.carry_index(a, b) == (WittPair(ring, a, 0) + WittPair(ring, b, 0)).i1
