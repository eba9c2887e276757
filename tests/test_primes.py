import itertools
import math
import random
import re

import pytest

import torbound.primes
from torbound import DETERMINISTIC_LIMIT, CapacityError, ValidationError, is_prime, next_prime
from torbound.cli import main
from torbound.primes import check_prime, primes_from

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233),
# with its known factors
PSI = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    8: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
    10: (3825123056546413051, (149491, 747451, 34233211)),
    11: (3825123056546413051, (149491, 747451, 34233211)),
    12: (318665857834031151167461, (399165290221, 798330580441)),
    13: (3317044064679887385961981, (1287836182261, 2575672364521)),
}
PSI_12 = PSI[12][0]


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_agrees_with_sieve_below_ten_thousand():
    flags = sieve(10_000)
    for n in range(0, 10_001):
        assert is_prime(n) == bool(flags[n]), n


def test_known_composites():
    # 561 is the smallest Carmichael number; Fermat-only tests miss it
    assert not is_prime(561)
    assert not is_prime(41 * 43)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_large_prime():
    assert is_prime(2**61 - 1)


def test_next_prime_examples():
    assert next_prime(0) == 2
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(36) == 37
    assert next_prime(432) == 433
    assert next_prime(1296) == 1297


def test_next_prime_strictly_greater():
    p = 2
    for _ in range(200):
        q = next_prime(p)
        assert q > p and is_prime(q)
        assert all(not is_prime(k) for k in range(p + 1, q))
        p = q


def test_capacity_error_beyond_witness_range():
    with pytest.raises(CapacityError):
        is_prime(DETERMINISTIC_LIMIT)
    with pytest.raises(CapacityError):
        is_prime(DETERMINISTIC_LIMIT + 12)
    with pytest.raises(CapacityError):
        next_prime(DETERMINISTIC_LIMIT - 1)


def test_bad_inputs_rejected():
    with pytest.raises(ValidationError):
        is_prime(-3)
    with pytest.raises(ValidationError):
        is_prime(6.0)
    with pytest.raises(ValidationError):
        next_prime(-1)


def test_primes_from_equals_a_sieve_on_seeded_ranges():
    limit = 20_000
    flags = sieve(limit)
    rng = random.Random(24)
    ranges = [(lo, hi) for lo in (0, 1, 2, 3) for hi in [-1, 0, 1, 2, 3, 4, 5]
              + [rng.randrange(limit) for _ in range(10)]]
    ranges += [(lo, rng.randrange(lo - 5, limit)) for lo in rng.sample(range(-10, limit), 40)]
    for lo, hi in ranges:
        expected = [k for k in range(max(lo, 0), hi + 1) if flags[k]]
        assert list(primes_from(lo, hi)) == expected, (lo, hi)
    for lo in (-3, 0, 1, 2, 3, 4, 9_973, 9_974):
        expected = [k for k in range(max(lo, 0), limit) if flags[k]][:200]
        assert list(itertools.islice(primes_from(lo), 200)) == expected, lo


def test_next_prime_reads_the_walk():
    for x in itertools.chain(range(3000), range(PSI_12 - 200, PSI_12)):
        assert next_prime(x) == next(primes_from(x + 1))


def test_a_bounded_range_reaching_the_limit_is_refused_on_the_call(monkeypatch):
    # the refusal names the range's first odd candidate at or past the limit
    # and comes from the call itself: no candidate below the limit is tested
    tested = []
    real = torbound.primes.is_prime
    monkeypatch.setattr(torbound.primes, "is_prime", lambda n: tested.append(n) or real(n))
    for lo, hi, named in [(DETERMINISTIC_LIMIT - 301, DETERMINISTIC_LIMIT, DETERMINISTIC_LIMIT),
                          (0, DETERMINISTIC_LIMIT + 5, DETERMINISTIC_LIMIT),
                          (DETERMINISTIC_LIMIT + 1, DETERMINISTIC_LIMIT + 2,
                           DETERMINISTIC_LIMIT + 2)]:
        tested.clear()
        message = f"{named} is beyond the deterministic witness range (< {DETERMINISTIC_LIMIT})"
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            primes_from(lo, hi)
        assert tested == [named]
    # a range that stops short of the limit walks up to it; an empty one past it is empty
    assert len(list(primes_from(DETERMINISTIC_LIMIT - 301, DETERMINISTIC_LIMIT - 1))) == 5
    assert list(primes_from(DETERMINISTIC_LIMIT + 3, DETERMINISTIC_LIMIT + 2)) == []


def test_primes_from_refuses_bounds_that_are_not_ints():
    for lo, hi in [(2.0, None), (True, 5), (1, 5.0), ("1", 5), (1, "5")]:
        with pytest.raises(ValidationError, match="^prime range bounds must be ints$"):
            primes_from(lo, hi)


def test_check_prime():
    assert check_prime(7, "m") == 7
    for p in (0, 1, 9, PSI_12):
        with pytest.raises(ValidationError, match="^m$"):
            check_prime(p, "m")
    with pytest.raises(CapacityError):
        check_prime(DETERMINISTIC_LIMIT, "m")


def test_agrees_with_sieve_below_two_million():
    flags = sieve(2 * 10**6)
    for n in range(2 * 10**6):
        assert is_prime(n) == bool(flags[n]), n


def test_the_last_psi_is_the_limit():
    assert PSI[13][0] == DETERMINISTIC_LIMIT


@pytest.mark.parametrize("k", sorted(PSI))
def test_psi_is_the_product_of_its_factors(k):
    psi, factors = PSI[k]
    assert math.prod(factors) == psi
    assert all(f > 1 for f in factors)


@pytest.mark.parametrize("k", range(1, 13))
def test_psi_fools_the_first_k_bases_and_not_is_prime(k):
    # the table cannot be shortened: the first k bases alone call psi_k prime
    psi = PSI[k][0]
    assert all(strong_probable_prime(psi, base) for base in BASES[:k])
    assert not is_prime(psi)


def test_next_prime_skips_psi_12():
    assert next_prime(PSI_12 - 1) == 318665857834031151167483


def test_cli_refuses_psi_12_as_a_prime(capsys):
    code = main(["bound", "--n", "2", "--c", "1", "--e", "1", "--degL", "1",
                 "--p", str(PSI_12), "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: p must be prime\n")
    code = main(["threshold", "--kind", "lemma-p", "--n", "1",
                 "--deg-omega", str(PSI_12 - 1)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, f"{PSI_12 - 1} 318665857834031151167483\n", "")


@pytest.mark.parametrize("n, powers", [(31741, 2), (2**61 - 1, 9)])
def test_is_prime_runs_only_the_bases_n_needs(monkeypatch, n, powers):
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(torbound.primes, "pow", counting_pow, raising=False)
    assert is_prime(n)
    assert len(calls) == powers
