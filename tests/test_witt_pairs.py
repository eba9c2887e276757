"""A Witt pair is the ring and the residue indices of its two components.

Pair arithmetic, `ghost` and `WittRing.elements()` work on those ints alone
and build no field element, nor does `WittRing.element`, which reads each
input's index through the field's residue rule; `a0` and `a1` build the
`FqElement` on read, so reprs, equality and the outside view are those of a
pair of field elements. A prime-field ring computes its carry in Z/p^2 and
builds no carry table. A field pickles as its definition, a shallow copy of a
field is the field itself, and the ghost map reduces modulo p^2 as it goes.
"""

import copy
import pickle
import random

import pytest

from torbound import FiniteField, ValidationError, WittRing, witt

F9 = (3, (2, 2, 1))


def sample(ring, rng, count):
    elems = list(ring.field.elements())
    return [ring.element(rng.choice(elems), rng.choice(elems)) for _ in range(count)]


@pytest.mark.parametrize("p, modulus", [F9, (101, None)], ids=["F9", "F101"])
def test_pair_arithmetic_builds_no_field_element(p, modulus, monkeypatch):
    ring = WittRing(FiniteField(p, modulus))
    rng = random.Random(10)
    pairs = sample(ring, rng, 40)
    built = []
    build = witt._fq  # the package's one unchecked FqElement build

    def counting_build(field, index):
        built.append(index)
        return build(field, index)

    monkeypatch.setattr(witt, "_fq", counting_build)
    deg = ring.field.degree
    for _ in range(20):
        pairs.append(ring.element(rng.randrange(-p, 2 * p), rng.randrange(p)))
        pairs.append(ring.element(tuple(rng.randrange(p) for _ in range(deg)),
                                  [rng.randrange(p) for _ in range(rng.randrange(deg + 1))]))
    for x, y in zip(pairs, pairs[1:]):
        x + y, x - y, -x, x * y, x.frobenius(), x.verschiebung()
        x.times(rng.randrange(2, 30))
        if modulus is None:
            x.ghost()
        else:
            with pytest.raises(ValidationError, match="^integer lift needs a prime field$"):
                x.ghost()
    ring.zero, ring.one, list(ring.elements())
    assert built == []
    x.a0  # the edge of the ring does build one
    assert len(built) == 1


def test_only_an_extension_ring_builds_the_carry_coefficients(monkeypatch):
    asked = []

    def refuse(p):
        asked.append(p)
        raise RuntimeError("carry coefficients built")

    monkeypatch.setattr(witt, "carry_coefficients", refuse)
    p = 101
    ring = WittRing(FiniteField(p))
    pairs = sample(ring, random.Random(13), 30)
    for x, y in zip(pairs, pairs[1:]):
        assert (x + y).ghost() == (x.ghost() + y.ghost()) % p**2
    assert asked == []
    with pytest.raises(RuntimeError, match="carry coefficients built"):
        WittRing(FiniteField(*F9))
    assert asked == [3]


def test_pinned_pair_reprs():
    assert (
        repr(WittRing(FiniteField(5)).element(1, 2))
        == "WittPair(FqElement(1 mod 5), FqElement(2 mod 5))"
    )
    assert repr(WittRing(FiniteField(*F9)).element((1, 2), (0, 1))) == (
        "WittPair(FqElement((1, 2) over FiniteField(3, modulus=(2, 2, 1))), "
        "FqElement((0, 1) over FiniteField(3, modulus=(2, 2, 1))))"
    )


@pytest.mark.parametrize("p, modulus", [F9, (7, None)], ids=["F9", "F7"])
def test_components_read_back_as_the_elements_passed_in(p, modulus):
    field = FiniteField(p, modulus)
    ring = WittRing(field)
    for a0 in field.elements():
        for a1 in (field.zero, field.one, a0):
            x = ring.element(a0, a1)
            assert x.a0 == a0 and x.a1 == a1
            assert x.a0.coeffs == a0.coeffs and x.a1.coeffs == a1.coeffs


@pytest.mark.parametrize("p, modulus", [F9, (101, None)], ids=["F9", "F101"])
def test_pair_built_by_element_equals_the_same_pair_reached_by_arithmetic(p, modulus):
    field = FiniteField(p, modulus)
    ring = WittRing(field)
    for x in sample(ring, random.Random(11), 30):
        reached = (x + ring.one) - ring.one
        built = ring.element(x.a0, x.a1)
        assert reached == built and hash(reached) == hash(built)
        assert len({reached, built}) == 1
    assert ring.zero + ring.one == ring.element(field.one, 0)
    assert ring.one.verschiebung() == ring.element(0, 1)


def test_ghost_matches_the_full_integer_power_over_a_large_prime():
    p = 1009
    ring = WittRing(FiniteField(p))
    for x in sample(ring, random.Random(12), 50):
        a0, a1 = x.a0.lift(), x.a1.lift()
        assert x.ghost() == (a0**p + p * a1) % p**2


def test_extension_field_pickles_as_its_definition():
    field = FiniteField(2, (1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,))  # x^18 + x^7 + 1
    data = pickle.dumps(field)
    assert len(data) < 1000
    for twin in (pickle.loads(data), copy.deepcopy(field)):
        assert twin is not field
        assert twin == field and hash(twin) == hash(field)
        assert twin._exp == field._exp


def test_a_shallow_copy_of_a_field_is_the_field():
    for field in (FiniteField(*F9), FiniteField(101)):
        assert copy.copy(field) is field
        twin = copy.deepcopy(field)
        assert twin == field and hash(twin) == hash(field)
