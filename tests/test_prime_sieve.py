"""primes_from on a bounded range walks is_prime to its first prime and sieves
the rest when isqrt(hi) is small against the range left: either way it yields
exactly what is_prime admits, and a sieve segment holds at most SIEVE_SEGMENT
odd candidates."""

import itertools
import math
import random
import time
import tracemalloc

import pytest

import torbound.primes
from torbound import is_prime
from torbound.primes import SIEVE_SEGMENT, primes_from


def by_is_prime(lo, hi):
    return list(filter(is_prime, range(max(lo, 0), hi + 1)))


@pytest.fixture
def segments(monkeypatch):
    # (a, b) of each sieve segment of the range, which starts past an odd
    # prime, not of the sieving primes _odd_primes_to finds from 3 on
    seen = []
    real = torbound.primes._segment

    def recorded(a, b, base):
        assert (b - a) // 2 + 1 <= SIEVE_SEGMENT
        if a > 3:
            seen.append((a, b))
        return real(a, b, base)

    monkeypatch.setattr(torbound.primes, "_segment", recorded)
    return seen


def sieves(lo, hi):
    # primes_from's rule on the range past its first odd prime q
    q = next((k for k in range(max(lo, 3) | 1, hi + 1, 2) if is_prime(k)), None)
    r = math.isqrt(hi)
    return q is not None and r <= SIEVE_SEGMENT and 3 * r <= (hi - q) * r.bit_length()


def test_seeded_ranges_on_both_sides_of_the_sieve_rule(segments):
    rng = random.Random(32)
    ranges = []
    for _ in range(300):
        hi = rng.choice((10**3, 10**5, 10**7, 2**32, 2**40))
        hi = rng.randrange(hi // 2, hi)
        ranges.append((hi - rng.choice((0, 1, 20, 200, 2000, 6000)), hi))
    # wide enough for the sieve, but isqrt(hi) = 2**17 is past SIEVE_SEGMENT
    ranges.append((2**34 - 140_000, 2**34))
    sides = set()
    for lo, hi in ranges:
        segments.clear()
        assert list(primes_from(lo, hi)) == by_is_prime(lo, hi), (lo, hi)
        sides.add(sieves(lo, hi))
        assert bool(segments) == sieves(lo, hi), (lo, hi)
    assert sides == {True, False}


def test_a_range_ending_on_a_prime_square():
    # the square is the sieve's first multiple of its largest sieving prime;
    # 65521 is the largest prime the sieve takes, from a width of 2 * 65521 on
    cases = [(p, hi, width) for p in range(3, 200) if is_prime(p)
             for hi in (p * p - 2, p * p, p * p + 2) for width in (0, 2, 30, 2 * p, 1000)]
    cases += [(p, p * p, width) for p in (65521, 65537) for width in (30, 1000, 2 * p)]
    for p, hi, width in cases:
        lo = max(hi - width, 0)
        assert list(primes_from(lo, hi)) == by_is_prime(lo, hi), (lo, hi)


def test_ranges_that_start_below_the_square_root(segments):
    # the sieving primes then lie in the range: each strikes from its square
    for lo, hi in [(0, 100), (3, 169), (4, 361), (10, 3000), (0, 300_000), (500, 262_150)]:
        segments.clear()
        assert list(primes_from(lo, hi)) == by_is_prime(lo, hi), (lo, hi)
        assert segments and segments[0][0] <= math.isqrt(hi)
    # a range wider than a segment is sieved a segment at a time
    segments.clear()
    list(primes_from(0, 300_000))
    assert len(segments) == 3


def test_empty_ranges_and_ranges_from_two_or_below():
    for lo in range(-3, 4):
        for hi in itertools.chain(range(-3, 12), (lo - 1, 168, 169, 1000)):
            assert list(primes_from(lo, hi)) == by_is_prime(lo, hi), (lo, hi)
    assert list(primes_from(10**6, 10**6 - 1)) == []


def test_a_huge_bounded_range_streams_in_bounded_memory():
    # isqrt(10**12) is past SIEVE_SEGMENT: the range is walked, never held
    expected = by_is_prime(0, 104_729)
    start = time.perf_counter()
    assert list(itertools.islice(primes_from(0, 10**12), 10**4)) == expected
    assert time.perf_counter() - start < 5
    tracemalloc.start()
    try:
        for _ in itertools.islice(primes_from(0, 10**12), 10**4):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * SIEVE_SEGMENT


def test_a_range_at_ten_to_the_twenty_tests_each_odd_candidate_once(monkeypatch, segments):
    tested = []
    real = torbound.primes.is_prime
    monkeypatch.setattr(torbound.primes, "is_prime", lambda n: tested.append(n) or real(n))
    lo = 10**20
    primes = list(primes_from(lo, lo + 2000))
    assert tested == list(range(lo + 1, lo + 2001, 2))
    assert primes == list(filter(real, tested)) and len(primes) > 10
    assert segments == []
