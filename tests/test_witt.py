import random
import re

import pytest

from torbound import (
    CapacityError,
    FiniteField,
    ValidationError,
    WittRing,
    carry_coefficients,
    is_prime,
)


def test_carry_coefficients_small_primes():
    assert carry_coefficients(2) == (1,)
    assert carry_coefficients(3) == (1, 1)
    assert carry_coefficients(5) == (1, 2, 2, 1)
    assert carry_coefficients(7) == (1, 3, 5, 5, 3, 1)


def test_carry_coefficients_divisibility_up_to_37():
    p = 2
    while p <= 37:
        coeffs = carry_coefficients(p)
        assert len(coeffs) == p - 1
        assert coeffs == tuple(reversed(coeffs))
        p = next(q for q in range(p + 1, 50) if is_prime(q))


def test_carry_coefficients_reject_composite():
    with pytest.raises(ValidationError):
        carry_coefficients(6)


def test_carry_characteristic_cap():
    field = FiniteField(3001)  # the first prime past the cap; fields stay uncapped
    with pytest.raises(CapacityError, match="carry characteristic cap exceeded"):
        carry_coefficients(3001)
    # a prime-field ring reads no carry coefficients, so the cap does not
    # reach it: its add and mul are those of Z/p^2 under the ghost map
    ring = WittRing(field)
    p, rng = field.p, random.Random(3001)
    for _ in range(200):
        x = ring.element(rng.randrange(p), rng.randrange(p))
        y = ring.element(rng.randrange(p), rng.randrange(p))
        assert (x + y).ghost() == (x.ghost() + y.ghost()) % p**2
        assert (x * y).ghost() == (x.ghost() * y.ghost()) % p**2


def test_carry_matches_definition():
    # over F_p, in plain ints: P_p(a, b) = (a^p + b^p - (a+b)^p) / p mod p
    for p in (2, 3, 5, 7, 11, 13):
        field = FiniteField(p)
        ring = WittRing(field)
        for a in range(p):
            for b in range(p):
                expected = ((a**p + b**p - (a + b) ** p) // p) % p
                assert ring.carry(field.element(a), field.element(b)).lift() == expected
    # over the extension fields: -sum c_k a^k b^(p-k), written out term by term
    for p, modulus in ((2, (1, 1, 1)), (3, (2, 2, 1)), (5, (2, 0, 1)), (7, (4, 0, 0, 1))):
        field = FiniteField(p, modulus)
        ring = WittRing(field)
        elems = list(field.elements())
        if field.order <= 25:
            pairs = [(a, b) for a in elems for b in elems]
        else:
            rng = random.Random(343)
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]
        for a, b in pairs:
            expected = field.zero
            for k, ck in enumerate(carry_coefficients(p), start=1):
                expected = expected - field.element(ck) * a**k * b ** (p - k)
            assert ring.carry(a, b) == expected


def test_carry_reads_its_operands_as_element_does():
    # an element of another field, or a value that is no residue, is refused
    # as WittRing.element refuses it; an int or a coefficient tuple is read
    ring = WittRing(FiniteField(3, (2, 2, 1)))
    field, foreign = ring.field, FiniteField(3).element(1)
    for a0, b0 in ((foreign, field.one), (field.one, foreign)):
        with pytest.raises(ValidationError, match="^element belongs to a different field$"):
            ring.carry(a0, b0)
    for bad in (2.5, None, "1", True):
        for a0, b0 in ((bad, 1), (1, bad)):
            with pytest.raises(ValidationError) as refused:
                ring.element(a0, b0)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
                ring.carry(a0, b0)
    assert ring.carry(1, (2, 1)) == ring.carry(field.one, field.element((2, 1)))


class TestFiniteField:
    def test_prime_field_basics(self):
        f5 = FiniteField(5)
        a, b = f5.element(3), f5.element(4)
        assert (a + b).lift() == 2
        assert (a * b).lift() == 2
        assert (-a).lift() == 2
        assert (a - b).lift() == 4
        assert (a ** 0).lift() == 1
        assert a.inverse().lift() == 2
        assert len(list(f5.elements())) == 5

    def test_characteristic_must_be_prime(self):
        with pytest.raises(ValidationError):
            FiniteField(8)

    def test_extension_field_f4(self):
        f4 = FiniteField(2, modulus=(1, 1, 1))
        assert f4.order == 4
        x = f4.element((0, 1))
        # x^2 = x + 1 under x^2 + x + 1 = 0
        assert (x * x).coeffs == (1, 1)
        assert len(set(f4.elements())) == 4
        nonzero = [a for a in f4.elements() if not a.is_zero]
        for a in nonzero:
            assert (a * a.inverse()) == f4.one

    def test_extension_field_f9(self):
        f9 = FiniteField(3, modulus=(1, 0, 1))
        assert f9.order == 9
        i = f9.element((0, 1))
        assert (i * i) == -f9.one
        # multiplicative group has order 8
        assert i ** 8 == f9.one

    def test_reducible_moduli_rejected(self):
        with pytest.raises(ValidationError):
            FiniteField(2, modulus=(1, 0, 1))  # (x+1)^2 over F_2
        with pytest.raises(ValidationError):
            FiniteField(3, modulus=(1, 2, 1))  # (x+1)^2 over F_3
        with pytest.raises(ValidationError):
            FiniteField(5, modulus=(0, 1, 1))  # divisible by x

    def test_modulus_must_be_monic_degree_two_plus(self):
        with pytest.raises(ValidationError):
            FiniteField(3, modulus=(1, 1))
        with pytest.raises(ValidationError):
            FiniteField(3, modulus=(1, 0, 2))

    def test_irreducibility_search_capacity(self):
        big = 10**7 + 19  # prime; degree-2 search space past the cap
        with pytest.raises(CapacityError):
            FiniteField(big, modulus=(1, 0, 1, 0, 1))

    def test_mixed_fields_rejected(self):
        a = FiniteField(3).element(1)
        b = FiniteField(5).element(1)
        with pytest.raises(ValidationError):
            a + b

    def test_field_ops_match_integers_mod_p(self):
        f7 = FiniteField(7)
        for a in range(7):
            for b in range(7):
                assert (f7.element(a) + f7.element(b)).lift() == (a + b) % 7
                assert (f7.element(a) * f7.element(b)).lift() == (a * b) % 7


class TestWittFrozenOps:
    def test_add_p3(self):
        ring = WittRing(FiniteField(3))
        out = ring.element(1, 0) + ring.element(2, 0)
        assert (out.a0.lift(), out.a1.lift()) == (0, 0)

    def test_add_p2(self):
        ring = WittRing(FiniteField(2))
        out = ring.element(1, 0) + ring.element(1, 0)
        assert (out.a0.lift(), out.a1.lift()) == (0, 1)
        assert out.ghost() == 2

    def test_mul_verschiebung_square_vanishes(self):
        ring = WittRing(FiniteField(2))
        v1 = ring.element(0, 1)
        assert (v1 * v1) == ring.zero

    def test_frobenius_verschiebung(self):
        ring = WittRing(FiniteField(5))
        x = ring.element(3, 2)
        assert (x.frobenius().a0.lift(), x.frobenius().a1.lift()) == (3 ** 5 % 5, 2 ** 5 % 5)
        assert (x.verschiebung().a0.lift(), x.verschiebung().a1.lift()) == (0, 3)

    def test_ghost_example(self):
        ring = WittRing(FiniteField(3))
        assert ring.element(2, 1).ghost() == (8 + 3) % 9


def all_pairs(ring):
    return list(ring.elements())


@pytest.mark.parametrize("p", [2, 3])
def test_ring_axioms_exhaustive_small(p):
    ring = WittRing(FiniteField(p))
    elems = all_pairs(ring)
    zero, one = ring.zero, ring.one
    for x in elems:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        assert x - x == zero
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
    for x in elems:
        for y in elems:
            for z in elems:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize(
    "field",
    [FiniteField(7), FiniteField(2, modulus=(1, 1, 1)), FiniteField(3, modulus=(1, 0, 1))],
    ids=["F7", "F4", "F9"],
)
def test_ring_axioms_random_triples(field):
    ring = WittRing(field)
    elems = list(ring.elements())
    rng = random.Random(2024)
    zero, one = ring.zero, ring.one
    for _ in range(10_000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
    for x in elems:
        assert x + zero == x and x * one == x and x + (-x) == zero


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_verschiebung_compose_to_times_p(p):
    ring = WittRing(FiniteField(p))
    for x in ring.elements():
        fv = x.verschiebung().frobenius()
        vf = x.frobenius().verschiebung()
        assert fv == vf == x.times(p)


def test_fv_composition_extension_fields():
    for field in (FiniteField(2, modulus=(1, 1, 1)), FiniteField(3, modulus=(1, 0, 1))):
        ring = WittRing(field)
        for x in ring.elements():
            assert x.verschiebung().frobenius() == x.frobenius().verschiebung() == x.times(field.p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ghost_is_ring_isomorphism_onto_z_mod_p_squared(p):
    ring = WittRing(FiniteField(p))
    elems = list(ring.elements())
    images = [x.ghost() for x in elems]
    assert sorted(images) == list(range(p * p))
    ghost = dict(zip(elems, images))
    assert ring.zero.ghost() == 0
    assert ring.one.ghost() == 1
    for x in elems:
        for y in elems:
            assert (x + y).ghost() == (ghost[x] + ghost[y]) % p**2
            assert (x * y).ghost() == (ghost[x] * ghost[y]) % p**2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ghost_reduction_mod_p(p):
    ring = WittRing(FiniteField(p))
    for x in ring.elements():
        assert x.ghost() % p == pow(x.a0.lift(), p, p)


def test_ghost_requires_prime_field():
    ring = WittRing(FiniteField(2, modulus=(1, 1, 1)))
    with pytest.raises(ValidationError):
        ring.element((0, 1), 0).ghost()


def test_teichmuller_is_multiplicative():
    f7 = FiniteField(7)
    ring = WittRing(f7)
    for a in f7.elements():
        for b in f7.elements():
            assert ring.teichmuller(a) * ring.teichmuller(b) == ring.teichmuller(a * b)


def test_mixed_rings_rejected():
    x = WittRing(FiniteField(3)).element(1, 0)
    y = WittRing(FiniteField(5)).element(1, 0)
    with pytest.raises(ValidationError):
        x + y


def test_times_validation():
    x = WittRing(FiniteField(3)).element(1, 1)
    assert x.times(0) == WittRing(FiniteField(3)).zero
    with pytest.raises(ValidationError):
        x.times(-1)


def horner_carry(coeffs, p, a, b):
    # -b^p sum_k c_k t^k with t = a / b in F_p, by Horner's rule in t; the
    # c_k come reduced mod p
    if not b:
        return 0
    t = a * pow(b, -1, p) % p
    acc = 0
    for ck in reversed(coeffs):
        acc = (acc * t + ck) % p
    return -acc * t * pow(b, p, p) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_prime_field_carry_is_horner_on_the_coefficients(p):
    # the ring reads the carry in Z/p^2; the c_k route is the second one
    coeffs = [ck % p for ck in carry_coefficients(p)]
    ring = WittRing(FiniteField(p))
    for a in range(p):
        for b in range(p):
            assert ring.carry_index(a, b) == horner_carry(coeffs, p, a, b), (a, b)


def test_prime_field_carry_is_horner_on_the_coefficients_at_2999():
    p = 2999
    coeffs = [ck % p for ck in carry_coefficients(p)]
    ring = WittRing(FiniteField(p))
    rng = random.Random(p)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(p)
        assert ring.carry_index(a, b) == horner_carry(coeffs, p, a, b), (a, b)


def test_prime_field_carry_memo_is_bounded_by_p():
    # one entry per residue, u^p mod p^2, however many distinct pairs are added
    p = 31123
    ring = WittRing(FiniteField(p))
    rng = random.Random(31123)
    for _ in range(20000):
        x = ring.element(rng.randrange(p), rng.randrange(p))
        y = ring.element(rng.randrange(p), rng.randrange(p))
        assert (x + y).ghost() == (x.ghost() + y.ghost()) % p**2
    assert len(ring._carry_memo) <= p


def test_extension_carry_memo_is_bounded_by_q_minus_one():
    # one entry per log t, t = a / b, after all 343**2 pairs of first components
    field = FiniteField(7, (4, 0, 0, 1))
    ring = WittRing(field)
    elements = list(field.elements())
    for a in elements:
        for b in elements:
            total = ring.element(a, 0) + ring.element(b, 0)
            assert total.i1 == ring.carry_index(b.index, a.index)  # P_p is symmetric
    assert len(ring._carry_memo) <= field.order - 1
