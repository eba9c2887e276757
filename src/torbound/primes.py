"""Deterministic primality, and the package's one prime rule: primes_from
walks the candidates, check_prime admits a prime.

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
    if type(n) is not int:  # exact ints skip the call: runs per candidate
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


def primes_from(lo, hi=None):
    """The primes in [lo, hi] ascending, without end when hi is None: 2 when in
    range, then each odd candidate tested once as the iterator is read. A bounded
    range reaching DETERMINISTIC_LIMIT is refused on the call, before any test,
    by is_prime's CapacityError for its first odd candidate there."""
    message = "prime range bounds must be ints"
    start = max(check_int(lo, message), 3) | 1
    if hi is not None and max(start, DETERMINISTIC_LIMIT) <= check_int(hi, message):
        is_prime(max(start, DETERMINISTIC_LIMIT))  # raises CapacityError
    odds = itertools.count(start, 2) if hi is None else range(start, hi + 1, 2)
    two = (2,) if lo <= 2 and (hi is None or hi >= 2) else ()
    return itertools.chain(two, filter(is_prime, odds))


def next_prime(x):
    """Smallest prime strictly greater than x."""
    if check_int(x, "next_prime input must be an int") < 0:
        raise ValidationError("next_prime input must be >= 0")
    return next(primes_from(x + 1))
