"""errors.digits, the package's printing rule: the exact decimal string of an
int of any length. CPython's int-to-str digit limit is one per interpreter;
digits never reads or sets it, so threads that print at once need no lock and
a limit the caller set stays as it was.
"""

import decimal
import functools
import random
import sys
import threading
from pathlib import Path

import pytest

from torbound.errors import digits

SRC = Path(__file__).resolve().parents[1] / "src"

EDGES = (0, -1, 2**2048 - 1, -(2**2048 - 1), 2**2048, -(2**2048), 10**639, 10**640, 10**5000)


def lifted_str(n):
    # str(n) past CPython's 4300-digit limit, which is restored after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@functools.cache
def cases():
    # (n, str(n)) at the edges and for seeded ints of both signs and up to
    # 200k bits (about 60k digits), one at the top
    rng = random.Random(22)
    sizes = [rng.randrange(1, 200_001) for _ in range(40)] + [200_000]
    seeded = tuple(rng.choice((1, -1)) * (rng.getrandbits(b) | 1 << (b - 1)) for b in sizes)
    return tuple((n, lifted_str(n)) for n in EDGES + seeded)


@pytest.mark.parametrize("limit", [None, 640, 0], ids=["as-found", "640", "0"])
def test_every_value_prints_exactly_and_nothing_changes(limit):
    saved, context = sys.get_int_max_str_digits(), decimal.getcontext()
    state = repr(context)
    expected = cases()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        got = tuple((n, digits(n)) for n, _ in expected)
        assert sys.get_int_max_str_digits() == (saved if limit is None else limit)
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == expected
    assert decimal.getcontext() is context and repr(context) == state


def test_threads_printing_at_once_all_get_exact_digits():
    # the overlap is forced with events: no thread prints until all four are in
    limit = sys.get_int_max_str_digits()
    ready = [threading.Event() for _ in range(4)]
    results = {}

    def run(i):
        ready[i].set()
        try:
            for event in ready:
                event.wait(10)
            results[i] = digits(10**5000 + i)
        except BaseException as exc:  # reported by the test thread
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert results == {i: "1" + "0" * 4999 + str(i) for i in range(4)}
    assert sys.get_int_max_str_digits() == limit


def test_src_never_touches_the_interpreter_limit():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    assert [p.name for p in sources if "int_max_str_digits" in p.read_text()] == []
