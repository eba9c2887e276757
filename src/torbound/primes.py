"""Deterministic primality, and the package's one prime rule: primes_from
walks or sieves the candidates, check_prime admits a prime.

Miller-Rabin to the first k prime bases is deterministic below psi_k, the
least strong pseudoprime to all of them (OEIS A014233): 2 and 3 decide every
n < psi_2 = 1373653, the twelve bases 2..37 every n < psi_12 (~3.2e23) and
the thirteen bases 2..41 every n < psi_13 = 3317044064679887385961981
(~3.3e24). is_prime runs the first k bases for the least k with n < psi_k.
The psi_k table is Jaeschke's, "On strong pseudoprimes to several bases"
(Math. Comp. 61, 1993), whose bounds for psi_9..psi_11 Jiang & Deng proved
exact (Math. Comp. 83, 2014); psi_12 and psi_13 are from Sorenson & Webster,
"Strong pseudoprimes to twelve prime bases" (Math. Comp. 86, 2017). Inputs
at or past psi_13 raise rather than silently degrading to a probabilistic
answer.
"""

import bisect
import itertools
import math

from .errors import CapacityError, ValidationError, check_int, digits

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# _PSI[k - 1] = psi_k; psi_7 = psi_8 and psi_9 = psi_10 = psi_11
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
_BASES_PRODUCT = math.prod(_BASES)
DETERMINISTIC_LIMIT = _PSI[-1]


def is_prime(n):
    """Deterministic primality for 0 <= n < DETERMINISTIC_LIMIT."""
    if type(n) is not int:  # exact ints skip the call: ~5 per prime-sweep op
        check_int(n, "primality input must be an int")
    if n < 0:
        raise ValidationError("primality input must be >= 0")
    if n >= DETERMINISTIC_LIMIT:
        raise CapacityError(
            f"{digits(n)} is beyond the deterministic witness range (< {DETERMINISTIC_LIMIT})"
        )
    if n <= _BASES[-1]:
        return n in _BASES
    if math.gcd(n, _BASES_PRODUCT) != 1:
        return False
    # n odd, coprime to all bases; write n-1 = d * 2**s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for w in _BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p, message):
    """The package's must-be-prime rule: p, or ValidationError(message)."""
    if not is_prime(p):
        raise ValidationError(message)
    return p


# Odd candidates per sieve segment, and the largest isqrt(hi) a bounded range
# is sieved with: a segment's flags take 64 KiB, its sieving primes 6542 ints.
SIEVE_SEGMENT = 2**16


def primes_from(lo, hi=None):
    """The primes in [lo, hi] ascending, without end when hi is None: 2 when in
    range, then each odd candidate tested by is_prime as the iterator is read.
    A bounded range stops testing at its first odd prime q when the odd primes
    up to r = isqrt(hi) are few against the candidates left: when 3 * r is at
    most (hi - q) * r.bit_length() and r is at most SIEVE_SEGMENT, the rest
    of the range is sieved, a segment at a time as it is read, by every odd
    prime up to r, so each survivor is proven prime. A bounded range reaching
    DETERMINISTIC_LIMIT is refused on the call, before any test, by
    is_prime's CapacityError for its first odd candidate there."""
    message = "prime range bounds must be ints"
    start = max(check_int(lo, message), 3) | 1
    if hi is None:
        odds = filter(is_prime, itertools.count(start, 2))
    elif max(start, DETERMINISTIC_LIMIT) <= check_int(hi, message):
        is_prime(max(start, DETERMINISTIC_LIMIT))  # raises CapacityError
    else:
        odds = _walk_then_sieve(start, hi)
    two = (2,) if lo <= 2 and (hi is None or hi >= 2) else ()
    return itertools.chain(two, odds)


def _walk_then_sieve(start, hi):
    # The odd primes in [start, hi], start odd: is_prime up to the first one,
    # then the sieve when primes_from's rule admits it, else is_prime on. The
    # sieve costs about one slice per sieving prime, r / ln(r) of them, and the
    # walk one test per odd candidate, (hi - q) / 2. The sieve measured faster
    # below a ratio r / (hi - q) of about 2 at r = 45, 3.5 at r = 177 and 5 at
    # r = 447; the rule's bound on it, r.bit_length() / 3, is 2, 2.7 and 3.
    for q in range(start, hi + 1, 2):
        if is_prime(q):
            yield q
            break
    else:
        return
    root = math.isqrt(hi)
    if root > SIEVE_SEGMENT or 3 * root > (hi - q) * root.bit_length():
        yield from filter(is_prime, range(q + 2, hi + 1, 2))
        return
    base = _odd_primes_to(root)
    for a in range(q + 2, hi + 1, 2 * SIEVE_SEGMENT):
        yield from _segment(a, min(a + 2 * SIEVE_SEGMENT - 2, hi), base)


def _odd_primes_to(r):
    # the odd primes <= r, each proven by the sieve of the odd primes <= isqrt(r)
    return list(_segment(3, r, _odd_primes_to(math.isqrt(r)))) if r >= 3 else []


def _segment(a, b, base):
    # The odd candidates in [a, b], a odd, that no prime in base divides,
    # ascending, base being the odd primes up to at least isqrt(b). Each prime
    # p strikes its odd multiples from p * p on, so a base prime in the
    # segment survives and every odd composite there is struck. When p * p is
    # below a, the first odd multiple from a on is a + 2i, i = -a / 2 mod p,
    # and 1 / 2 is (p + 1) / 2 mod p.
    size = (b - a) // 2 + 1
    flags = bytearray(b"\x01") * size  # flags[i] stands for a + 2 * i
    for p in base:
        m = p * p
        if m > b:
            break
        i = (m - a) >> 1 if m >= a else -a * (p + 1 >> 1) % p
        if i < size:
            flags[i::p] = bytes((size - 1 - i) // p + 1)
    return itertools.compress(range(a, b + 1, 2), flags)


def next_prime(x):
    """Smallest prime strictly greater than x."""
    if check_int(x, "next_prime input must be an int") < 0:
        raise ValidationError("next_prime input must be >= 0")
    return next(primes_from(x + 1))
