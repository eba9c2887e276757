"""Deterministic primality testing and next-prime search.

Miller-Rabin with the fixed witness set {2, ..., 37} is deterministic for
all n < 3317044064679887385961981 (~3.3e24); see Sorenson & Webster,
"Strong pseudoprimes to twelve prime bases" (Math. Comp. 86, 2017), or
https://en.wikipedia.org/wiki/Miller%E2%80%93Rabin_primality_test
Inputs at or past that limit raise rather than silently degrading to a
probabilistic answer.
"""

from .errors import CapacityError, ValidationError, check_int

DETERMINISTIC_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic primality for 0 <= n < DETERMINISTIC_LIMIT."""
    if type(n) is not int:  # exact ints skip the call: runs per candidate
        check_int(n, "primality input must be an int")
    if n < 0:
        raise ValidationError("primality input must be >= 0")
    if n >= DETERMINISTIC_LIMIT:
        raise CapacityError(
            f"{n} is beyond the deterministic witness range (< {DETERMINISTIC_LIMIT})"
        )
    if n < 2:
        return False
    for w in _WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    # n odd, coprime to all witnesses; write n-1 = d * 2**s
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
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


def next_prime(x):
    """Smallest prime strictly greater than x."""
    if check_int(x, "next_prime input must be an int") < 0:
        raise ValidationError("next_prime input must be >= 0")
    n = x + 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            return n
        n += 2
