"""The public constructors `FqElement(field, index)` and `WittPair(ring, i0,
i1)` refuse an owner of the wrong type and any index that is not an int in
[0, q - 1]; the package's own builds go through unchecked module builders."""

import copy
import pickle
import re

import pytest

from torbound import FiniteField, FqElement, ValidationError, WittPair, WittRing

F5 = FiniteField(5)
F9 = FiniteField(3, modulus=(1, 0, 1))
R9 = WittRing(F9)
FIELD = "expected a FiniteField"
RING = "expected a WittRing"
INDEX = "element index must be an int in [0, q - 1]"
PAIR = "pair indices must be ints in [0, q - 1]"

REFUSALS = {
    "FqElement(F5, 7)": (lambda: FqElement(F5, 7), INDEX),
    "FqElement(F5, -1)": (lambda: FqElement(F5, -1), INDEX),
    "FqElement(F9, 100)": (lambda: FqElement(F9, 100), INDEX),
    "FqElement(F9, 1.0)": (lambda: FqElement(F9, 1.0), INDEX),
    "FqElement(F9, True)": (lambda: FqElement(F9, True), INDEX),
    "FqElement(F9, 10**5000)": (lambda: FqElement(F9, 10**5000), INDEX),
    "FqElement(5, 1)": (lambda: FqElement(5, 1), FIELD),
    "FqElement(R9, 1)": (lambda: FqElement(R9, 1), FIELD),
    "WittPair(R9, 100, 0)": (lambda: WittPair(R9, 100, 0), PAIR),
    "WittPair(R9, 0, 9)": (lambda: WittPair(R9, 0, 9), PAIR),
    "WittPair(R9, 1.5, 0)": (lambda: WittPair(R9, 1.5, 0), PAIR),
    "WittPair(R9, 0, '1')": (lambda: WittPair(R9, 0, "1"), PAIR),
    "WittPair(R9, -1, 0)": (lambda: WittPair(R9, -1, 0), PAIR),
    "WittPair(None, 1, 0)": (lambda: WittPair(None, 1, 0), RING),
    "WittPair(F9, 1, 0)": (lambda: WittPair(F9, 1, 0), RING),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_bad_build_is_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_a_checked_build_is_the_value_the_package_builds():
    assert FqElement(F5, 2) == F5.element(7) and repr(FqElement(F5, 2)) == "FqElement(2 mod 5)"
    assert FqElement(F9, 8) * F9.one == F9.element((2, 2))
    assert WittPair(R9, 8, 3) == R9.element((2, 2), (0, 1))
    assert WittPair(R9, 8, 0) + R9.one == R9.element((2, 2), 0) + R9.element(1, 0)
    assert {FqElement(F9, i) for i in range(9)} == set(F9.elements())


@pytest.mark.parametrize("value", [FqElement(F5, 4), FqElement(F9, 8), WittPair(R9, 8, 3),
                                   WittPair(WittRing(F5), 0, 4)],
                         ids=["F5 element", "F9 element", "F9 pair", "F5 pair"])
def test_valid_values_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
