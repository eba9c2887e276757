"""The paper's composition sums, by their definition: the tests' oracle.

Coefficient m of the inverse of 1 + a_1 t + a_2 t^2 + ... is a sum over the
partitions of m. A partition with r_i parts of size i and R = sum r_i parts
adds (-1)**R * R! / prod(r_i!) * prod(a_i**r_i). The library reads closed
forms instead; this module is slow on purpose and imports nothing from it.
"""

import math
from collections import Counter
from itertools import combinations


def partitions(m, largest=None):
    """The partitions of m, each a decreasing tuple of parts."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def inverse_series_coeff(head, m):
    """Coefficient m of 1 / (1 + head[0] t + head[1] t^2 + ...)."""
    total = 0
    for parts in partitions(m):
        mults = Counter(parts).items()
        multinomial = math.factorial(len(parts))
        for _, r in mults:
            multinomial //= math.factorial(r)
        total += (-1) ** len(parts) * multinomial * math.prod(head[i - 1] ** r for i, r in mults)
    return total


def w_coeff(m, c):
    """Coefficient m of 1 / (1 + t)**c."""
    return inverse_series_coeff([math.comb(c, j) for j in range(1, m + 1)], m)


def z_coeff(i, exps):
    """Coefficient i of 1 / prod(1 + e t for e in exps)."""
    head = [sum(math.prod(s) for s in combinations(exps, j)) for j in range(1, i + 1)]
    return inverse_series_coeff(head, i)
