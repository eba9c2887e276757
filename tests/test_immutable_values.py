"""The package's one immutable-value rule, checked on every value class."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import torbound
from torbound import (
    BoundInput,
    FiniteField,
    TruncatedSeries,
    WittRing,
    bound_shape,
    torsion_bound,
    verify_slope_chain,
)


def f9():
    return FiniteField(3, modulus=(1, 0, 1))


# class name -> a fresh value of that class, built anew on each call
VALUES = {
    "PexTerm": lambda: bound_shape(3, 2, (1, 1), 1).terms(3)[0],
    "BoundInput": lambda: BoundInput(3, 2, [1, 1], 1),
    "BoundReport": lambda: torsion_bound(BoundInput(3, 2, (1, 2), 1)),
    "BoundShape": lambda: bound_shape(3, 2, (1, 2), 1),
    "SlopeChainReport": lambda: verify_slope_chain(3, 5, 47),
    "TruncatedSeries": lambda: TruncatedSeries((1, 2, 3)),
    "FiniteField": f9,
    "FqElement": lambda: f9().element((1, 2)),
    "WittRing": lambda: WittRing(f9()),
    "WittPair": lambda: WittRing(f9()).element((1, 1), (0, 2)),
}

# the reprs these records printed as frozen dataclasses, kept byte for byte
RECORD_REPRS = {
    "PexTerm": "PexTerm(h=0, binom_coeff=1, inner_sum=2, term_paper=-6, term_dual=6)",
    "BoundInput": "BoundInput(n=3, c=2, exponents=(1, 1), d=1, p='auto', mode='both')",
    "BoundReport": (
        "BoundReport(n=3, c=2, exponents=(1, 2), d=1, p_request='auto', mode='both', "
        "threshold=6, prime_used=7, deg_cotangent=6, w_table=(1, -3), "
        "terms=(PexTerm(h=0, binom_coeff=1, inner_sum=3, term_paper=-42, term_dual=42), "
        "PexTerm(h=1, binom_coeff=2, inner_sum=1, term_paper=4, term_dual=4)), "
        "deg_pex_paper=-38, deg_pex_dual=46, deg_abelian=117649, bound_paper=-4470662, "
        "bound_dual=5411854, flags=frozenset({'paper_mode_nonpositive'}))"
    ),
    "SlopeChainReport": (
        "SlopeChainReport(dim=3, deg_omega=5, p=47, threshold=45, mu_min=Fraction(1, 3), "
        "mu_max=Fraction(4, 1), above_degree_threshold=True, above_semistable_bound=True, "
        "slope_inequality=True)"
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_is_immutable(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    field = value.__slots__[0]
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == VALUES[name]()


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_types_compare_unequal():
    values = [make() for make in VALUES.values()]
    for a in values:
        fields = tuple(getattr(a, name) for name in a.__slots__)
        assert a != fields
        for b in values:
            if b is not a:
                assert a != b


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_copy_round_trip(name):
    value = VALUES[name]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_witt_ring_round_trips_with_a_warm_carry_memo():
    ring = WittRing(f9())
    x, y = ring.element((1, 1), (0, 2)), ring.element((2, 0), (1, 1))
    total = x + y
    assert ring._carry_memo
    for twin in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
        assert twin == ring and twin._carry_memo == ring._carry_memo
        assert twin.element((1, 1), (0, 2)) + twin.element((2, 0), (1, 1)) == total


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_reprs_are_pinned(name):
    assert repr(VALUES[name]()) == RECORD_REPRS[name]


def test_bound_input_stores_exponents_as_a_tuple():
    assert BoundInput(3, 2, [1, 1], 1).exponents == (1, 1)
    assert "exponents=(1,)," in repr(BoundInput(2, 1, (1,), 1))


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # each costs milliseconds of CLI start-up; the value base needs neither
    src = Path(torbound.__file__).resolve().parents[1]
    probe = "import sys, torbound.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
