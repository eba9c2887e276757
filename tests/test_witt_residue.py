"""How a field reads a residue: FiniteField.element and WittRing.element read a
coefficient tuple or list in one pass, to the index sum (x mod p) * p**i,
and refuse what is no residue with the messages below. Operands of equal
but distinct rings and fields are matched like those of one."""

import operator
import random
import re
import time

import pytest

from torbound import FiniteField, ValidationError, WittRing

FIELDS = [
    FiniteField(2),
    FiniteField(101),
    FiniteField(2, (1, 1, 1)),        # F_4
    FiniteField(2, (1, 1, 0, 1)),     # F_8
    FiniteField(3, (1, 0, 1)),        # F_9, x^2 + 1
    FiniteField(3, (2, 2, 1)),        # F_9, x^2 + 2x + 2
    FiniteField(5, (2, 0, 1)),        # F_25
    FiniteField(7, (4, 0, 0, 1)),     # F_343
]


def reference_index(coeffs, p):
    return sum(x % p * p**i for i, x in enumerate(coeffs))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_coefficient_tuple_reads_to_its_index(field):
    p = field.p
    entries = (-10**30, -1, 0, 1, p - 1, p, 2**64, 10**30)
    ring = WittRing(field)
    rng = random.Random(p * 1000 + field.degree)
    for length in range(field.degree + 1):
        for kind in (tuple, list):
            for _ in range(40):
                v = kind(rng.choice(entries) for _ in range(length))
                w = kind(rng.choice(entries) for _ in range(length))
                assert field.element(v).index == reference_index(v, p)
                pair = ring.element(v, w)
                assert (pair.i0, pair.i1) == (reference_index(v, p), reference_index(w, p))


F9 = FIELDS[4]
TYPE_MESSAGE = "coefficients must be ints"
LENGTH_MESSAGE = "coefficient tuple longer than extension degree 2"
ELEMENT_MESSAGE = "element must be an int or a coefficient tuple"

REFUSALS = [
    ((1.0, 2), TYPE_MESSAGE),
    ((True,), TYPE_MESSAGE),
    ((1, "x"), TYPE_MESSAGE),
    ((1, 2, 3), LENGTH_MESSAGE),
    ([1, 2, 3, 4], LENGTH_MESSAGE),
    ((1, 2, 1.0), TYPE_MESSAGE),    # too long, but the type check comes first
    ((1.0, 2, 3), TYPE_MESSAGE),
    (1.5, ELEMENT_MESSAGE),
    ("12", ELEMENT_MESSAGE),
    (None, ELEMENT_MESSAGE),
    ({1}, ELEMENT_MESSAGE),
]


@pytest.mark.parametrize("value, message", REFUSALS, ids=repr)
def test_a_value_that_is_no_residue_is_refused(value, message):
    ring = WittRing(F9)
    for read in (F9.element, lambda v: ring.element(v, 0), lambda v: ring.element(0, v)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read(value)


def test_a_long_list_is_refused_in_linear_time():
    value = [10**30] * 10**6
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"^{LENGTH_MESSAGE}$"):
        F9.element(value)
    with pytest.raises(ValidationError, match=f"^{TYPE_MESSAGE}$"):
        F9.element(value + [1.0])
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_equal_distinct_rings_compute_alike(op):
    one, other = WittRing(F9), WittRing(FiniteField(3, (1, 0, 1)))
    assert one == other and one is not other and one.field is not other.field
    rng = random.Random(9)
    values = [(rng.randrange(3), rng.randrange(3)) for _ in range(40)]
    for a, b in zip(values, reversed(values)):
        want = getattr(operator, op)(one.element(a, b), one.element(b, a))
        assert getattr(operator, op)(one.element(a, b), other.element(b, a)) == want
        x, y = one.field.element(a), other.field.element(b)
        assert getattr(operator, op)(x, y) == getattr(operator, op)(x, one.field.element(b))
        assert one.element(y, x) == one.element(b, a)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_the_two_moduli_of_f9_stay_apart(op):
    f9a, f9b = FIELDS[4], FIELDS[5]
    with pytest.raises(ValidationError, match="^mixed Witt rings rejected$"):
        getattr(operator, op)(WittRing(f9a).one, WittRing(f9b).one)
    with pytest.raises(ValidationError, match="^mixed base fields rejected$"):
        getattr(operator, op)(f9a.one, f9b.one)
    with pytest.raises(ValidationError, match="^element belongs to a different field$"):
        WittRing(f9a).element(f9b.one, 0)
