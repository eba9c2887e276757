"""F_q as integer-indexed tables, checked against the schoolbook reference.

An extension field stores each residue as an index in 0..q-1 whose base-p
digits are its coefficients, and adds, multiplies, negates, inverts and
raises to the p-th power through exp, log and Zech-log tables. These tests
hold the tables to the polynomial multiply-and-reduce that built them, pin
the value rules of the new representation, the table cap, and `times`.
"""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import torbound

from torbound import CapacityError, FiniteField, ValidationError, WittRing
from torbound import fieldtables, witt

EXTENSIONS = {
    "F4": (2, (1, 1, 1)),
    "F8": (2, (1, 1, 0, 1)),
    "F9": (3, (1, 0, 1)),
    "F25": (5, (2, 0, 1)),
}


def reference(p, modulus):
    """+, -, * and powers on coefficient tuples, schoolbook."""
    f = len(modulus) - 1

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def sub(u, v):
        return tuple((a - b) % p for a, b in zip(u, v))

    def mul(u, v):
        return fieldtables.poly_mul(u, v, p, modulus)

    def power(u, e):
        out = (1,) + (0,) * (f - 1)
        for _ in range(e):
            out = mul(out, u)
        return out

    return add, sub, mul, power


def check_pairs(field, pairs):
    p, modulus = field.p, field.modulus
    add, sub, mul, power = reference(p, modulus)
    one = field.one.coeffs
    for a, b in pairs:
        u, v = a.coeffs, b.coeffs
        assert (a + b).coeffs == add(u, v)
        assert (a - b).coeffs == sub(u, v)
        assert (a * b).coeffs == mul(u, v)
        assert (-a).coeffs == sub((0,) * field.degree, u)
        assert (a**p).coeffs == power(u, p)
        if not a.is_zero:
            assert mul(u, a.inverse().coeffs) == one  # inverses are unique


@pytest.mark.parametrize("name", EXTENSIONS)
def test_tables_match_the_schoolbook_product_on_every_pair(name):
    field = FiniteField(*EXTENSIONS[name])
    elems = list(field.elements())
    check_pairs(field, [(a, b) for a in elems for b in elems])


def test_tables_match_the_schoolbook_product_on_a_sample_of_f343():
    field = FiniteField(7, (4, 0, 0, 1))
    elems = list(field.elements())
    rng = random.Random(343)
    check_pairs(field, [(rng.choice(elems), rng.choice(elems)) for _ in range(2000)])


@pytest.mark.parametrize("name", [*EXTENSIONS, "F343"])
def test_indices_round_trip_coefficients_in_lexicographic_order(name):
    p, modulus = EXTENSIONS.get(name, (7, (4, 0, 0, 1)))
    field = FiniteField(p, modulus)
    tuples = list(itertools.product(range(p), repeat=len(modulus) - 1))
    assert [a.coeffs for a in field.elements()] == tuples
    for c in tuples:
        assert field.element(c).coeffs == c
    assert sorted(a.index for a in field.elements()) == list(range(field.order))


def test_prime_fields_build_no_tables():
    field = FiniteField(101)
    assert (field._exp, field._log, field._zech) == (None, None, None)
    assert (field.element(100) * field.element(100)).lift() == 1
    assert field.element(3).inverse().lift() == 34


def test_only_an_extension_field_loads_fieldtables():
    src = Path(torbound.__file__).resolve().parents[1]
    probe = (
        "import sys, torbound, torbound.cli\n"
        "loaded = lambda: 'torbound.fieldtables' in sys.modules\n"
        "torbound.WittRing(torbound.FiniteField(101)).element(3, 4).times(5)\n"
        "before = loaded()\n"
        "torbound.FiniteField(3, (1, 0, 1))\n"
        "print(before, loaded())"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False True\n", "")


def test_two_builds_of_an_extension_field_are_one_value():
    f1, f2 = FiniteField(3, (1, 0, 1)), FiniteField(3, [1, 0, 1])
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    a, b = f1.element((1, 2)), f2.element((2, 2))
    assert a + b == f2.element((0, 1)) and hash(a + b) == hash(f1.element((0, 1)))
    assert a * b == b * a == f1.element((1, 0))
    assert f1.element(f2.element((1, 2))) == a
    r1, r2 = WittRing(f1), WittRing(f2)
    mixed = r1.element(a, b) + r2.element(b, a)
    assert mixed == r1.element(a, b) + r1.element(b, a)
    assert hash(mixed) == hash(r2.element(a, b) + r2.element(b, a))


def test_element_reprs_are_pinned():
    assert repr(FiniteField(5).element(3)) == "FqElement(3 mod 5)"
    f9 = FiniteField(3, modulus=(1, 0, 1))
    assert repr(f9.element((1, 2))) == "FqElement((1, 2) over FiniteField(3, modulus=(1, 0, 1)))"


def test_largest_field_at_the_cap_builds():
    assert witt._FIELD_TABLE_CAP == 2**18
    field = FiniteField(2, (1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,))  # x^18 + x^7 + 1
    assert field.order == 2**18
    x = field.element((0, 1))
    assert x ** (2**18 - 1) == field.one
    assert (x**18).coeffs == (1,) + (0,) * 6 + (1,) + (0,) * 10
    assert x * x.inverse() == field.one


@pytest.mark.parametrize(
    "p, modulus",
    [(521, (3, 0, 1)), (521, (0, 0, 1)), (2, (1,) + (0,) * 18 + (1,)), (3, (1,) * 12 + (1,))],
    ids=["521^2", "521^2-reducible", "2^19", "3^12"],
)
def test_field_past_the_cap_is_refused_before_table_work(p, modulus, monkeypatch):
    def refuse(*args):
        raise AssertionError("table work ran")

    monkeypatch.setattr(fieldtables, "is_irreducible", refuse)
    monkeypatch.setattr(fieldtables, "tables", refuse)
    with pytest.raises(CapacityError, match=r"field table cap exceeded \(262144\)"):
        FiniteField(p, modulus)


def test_cap_follows_the_monic_and_degree_checks():
    with pytest.raises(ValidationError, match="monic"):
        FiniteField(521, (3, 0, 2))
    with pytest.raises(ValidationError, match="degree >= 2"):
        FiniteField(10**7 + 19, (3, 1))


def repeated(x, k):
    out = x.ring.zero
    for _ in range(k):
        out = out + x
    return out


@pytest.mark.parametrize(
    "field",
    [FiniteField(2), FiniteField(2, (1, 1, 1)), FiniteField(3, (1, 0, 1))],
    ids=["F2", "F4", "F9"],
)
def test_times_equals_repeated_addition(field):
    ring = WittRing(field)
    for x in ring.elements():
        for k in range(21):
            assert x.times(k) == repeated(x, k)


def test_times_equals_repeated_addition_on_a_sample_of_f101():
    ring = WittRing(FiniteField(101))
    rng = random.Random(101)
    for _ in range(20):
        x = ring.element(rng.randrange(101), rng.randrange(101))
        for k in range(21):
            assert x.times(k) == repeated(x, k)


def test_equal_fields_share_one_set_of_tables(monkeypatch):
    f1 = FiniteField(3, (2, 2, 1))
    calls = []
    for name in ("is_irreducible", "tables"):
        work = getattr(fieldtables, name)
        monkeypatch.setattr(fieldtables, name, lambda *a, work=work: calls.append(a) or work(*a))
    f2 = FiniteField(3, [2, 2, 1])
    assert f1._exp is f2._exp and f1._log is f2._log and f1._zech is f2._zech
    for twin in (pickle.loads(pickle.dumps(f1)), copy.deepcopy(f1)):
        assert twin == f1 and twin._exp is f1._exp
    assert calls == []  # the second build, the unpickled and the copied field look up


def test_a_reducible_modulus_is_refused_on_every_build():
    for _ in range(2):  # x^2 + 2 = (x + 1)(x + 2) over F_3
        with pytest.raises(ValidationError, match="extension modulus is reducible"):
            FiniteField(3, (2, 0, 1))
    assert (3, (2, 0, 1)) not in witt._TABLES


def test_the_field_cache_holds_at_most_the_cap_in_residues():
    big = FiniteField(2, (1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,))  # x^18 + x^7 + 1
    assert (big.p, big.modulus) in witt._TABLES
    FiniteField(3, (2, 2, 1))
    FiniteField(5, (2, 0, 1))
    assert sum(len(log) for _, log, _ in witt._TABLES.values()) <= witt._FIELD_TABLE_CAP
    assert (big.p, big.modulus) not in witt._TABLES  # least recently used, so dropped
    assert {(3, (2, 2, 1)), (5, (2, 0, 1))} <= set(witt._TABLES)


def test_threads_building_fields_at_once_get_equal_fields_on_shared_tables():
    fields = ((3, (2, 2, 1)), (5, (2, 0, 1)), (7, (4, 0, 0, 1)))
    built, errors = [], []

    def build():
        try:
            built.append([FiniteField(p, m) for _ in range(50) for p, m in fields])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    with witt._TABLES_LOCK:
        witt._TABLES.clear()  # so the first builds of each field race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(built) == 4
    for i, (p, m) in enumerate(fields):
        same = [run[j] for run in built for j in range(i, len(run), len(fields))]
        assert all(f == FiniteField(p, m) for f in same)
        assert len({id(f._exp) for f in same}) == 1  # one set of tables per field
