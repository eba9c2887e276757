"""The value rule's fields: `Frozen` builds from positional fields only, and a
slot named with a leading _ is derived data, outside equality, hash and repr.

Also pins public refusals and values of `series` and `witt` that no other
test reaches.
"""

import re

import pytest

from torbound import FiniteField, TruncatedSeries, ValidationError, WittRing
from torbound.bounds import BoundReport, BoundShape, PexTerm, SlopeChainReport
from torbound.errors import Frozen

F5 = FiniteField(5)
F9 = FiniteField(3, modulus=(1, 0, 1))
PEX_FIELDS = ("h", "binom_coeff", "inner_sum", "term_paper", "term_dual")


class _Cached(Frozen):
    __slots__ = ("value", "_cache")


@pytest.mark.parametrize("args", [(), (0, 1, 2, -6), (0, 1, 2, -6, 6, 7)],
                         ids=["none", "one short", "one over"])
def test_a_wrong_field_count_is_a_type_error(args):
    message = f"^PexTerm takes the fields {re.escape(str(PEX_FIELDS))}$"
    with pytest.raises(TypeError, match=message):
        PexTerm(*args)


def test_a_record_refuses_keyword_fields():
    with pytest.raises(TypeError):
        PexTerm(h=0, binom_coeff=1, inner_sum=2, term_paper=-6, term_dual=6)
    with pytest.raises(TypeError):
        PexTerm(0, 1, 2, -6, term_dual=6)


@pytest.mark.parametrize("cls, fields", [
    (PexTerm, PEX_FIELDS),
    (BoundShape, ("n", "c", "exponents", "d", "threshold", "deg_cotangent", "w_table", "rows")),
    (BoundReport, BoundReport.__slots__),
    (SlopeChainReport, SlopeChainReport.__slots__),
    (FiniteField, ("p", "degree", "modulus")),
    (WittRing, ("field",)),
])
def test_fields_are_the_slots_not_named_with_an_underscore(cls, fields):
    assert cls._fields == fields


def test_an_underscore_slot_stays_out_of_the_value():
    a, b = _Cached(1, {"warm": 1}), _Cached(1, None)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "_Cached(value=1)"
    assert a._cache == {"warm": 1} and b._cache is None
    assert a != _Cached(2, {"warm": 1})


def test_extension_fields_and_rings_compare_by_their_definition():
    assert FiniteField(3, modulus=(1, 0, 1)) == F9
    assert hash(FiniteField(3, modulus=(1, 0, 1))) == hash(F9)
    assert FiniteField(3, modulus=(2, 2, 1)) != F9
    warm, cold = WittRing(F9), WittRing(F9)
    warm.element(1, 2) + warm.element(2, 2)
    assert warm._carry_memo and not cold._carry_memo
    assert warm == cold and hash(warm) == hash(cold)


# public refusals of series and witt, each with the message it gives
REFUSALS = {
    "empty series": (lambda: TruncatedSeries(()),
                     "series needs at least the constant coefficient"),
    "series + int": (lambda: TruncatedSeries((1,)) + 1, "expected a TruncatedSeries operand"),
    "float coefficient": (lambda: F9.element((1.0, 2)), "coefficients must be ints"),
    "FqElement + int": (lambda: F5.one + 1, "expected an FqElement operand"),
    "inverse of zero": (lambda: F5.zero.inverse(), "zero is not invertible"),
    "lift in an extension": (lambda: F9.element((1, 2)).lift(),
                             "integer lift needs a prime field"),
    "ring over an int": (lambda: WittRing(3), "expected a FiniteField"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_public_refusal_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_series_sum_and_difference():
    a, b = TruncatedSeries((1, 2)), TruncatedSeries((3, 4))
    assert a + b == TruncatedSeries((4, 6))
    assert a - b == TruncatedSeries((-2, -2))


def test_a_negative_power_inverts():
    assert repr(F5.element(2) ** -1) == "FqElement(3 mod 5)"


def test_prime_field_and_ring_reprs():
    assert repr(FiniteField(5)) == "FiniteField(5)"
    assert repr(WittRing(FiniteField(3))) == "WittRing(FiniteField(3))"

