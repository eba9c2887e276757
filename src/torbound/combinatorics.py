"""Composition multisets and the coefficient sums built on them.

A composition multiset of weight m records how many parts of each size a
partition of m has: multiplicities (r_1, r_2, ...) with sum i*r_i = m.
Summing signed multinomials over all of them, weighted by powers of a head
sequence, yields the coefficients of an inverted power series in closed form
(inverse_series_coeff); the series module's recurrence is its oracle.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import CapacityError, InternalConsistencyError, ValidationError, check_int

# Enumeration is exponential in the weight (partition count); anything past
# this cap is a sign the caller is misusing a desk-scale tool.
MAX_COMPOSITION_WEIGHT = 64


def check_weight(m, message):
    """m as a composition weight: an int >= 0 (else message), at most the cap."""
    if check_int(m, message, low=0) > MAX_COMPOSITION_WEIGHT:
        raise CapacityError(
            f"composition weight cap exceeded ({MAX_COMPOSITION_WEIGHT})"
        )
    return m


@dataclass(frozen=True)
class CompositionMultiset:
    """Multiplicity vector of a partition: entry i-1 counts parts of size i."""

    multiplicities: tuple

    def __post_init__(self):
        mults = tuple(self.multiplicities)
        for r in mults:
            if type(r) is not int:  # exact ints skip the call: runs per enumerated part
                check_int(r, "multiplicities must be ints")
        if any(r < 0 for r in mults):
            raise ValidationError("multiplicities must be >= 0")
        object.__setattr__(self, "multiplicities", mults)

    @property
    def weight(self):
        return sum(i * r for i, r in enumerate(self.multiplicities, start=1))

    def parts(self):
        """Expand back to a decreasing list of parts."""
        out = []
        for i, r in enumerate(self.multiplicities, start=1):
            out.extend([i] * r)
        out.reverse()
        return out


def _partitions_desc(m, largest):
    # parts in decreasing order, branching on the largest part first
    if m == 0:
        yield []
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions_desc(m - first, first):
            yield [first] + rest


def enumerate_compositions(m):
    """All composition multisets of weight m, canonically ordered.

    Order: by decreasing largest part (recursive descent). Each multiset is
    padded to length m. The count equals the number of partitions of m.
    """
    check_weight(m, "weight must be >= 0")
    out = []
    for parts in _partitions_desc(m, m):
        mults = [0] * m
        for p in parts:
            mults[p - 1] += 1
        out.append(CompositionMultiset(tuple(mults)))
    return tuple(out)


def _mults(beta):
    if isinstance(beta, CompositionMultiset):
        return beta.multiplicities
    return CompositionMultiset(tuple(beta)).multiplicities


def signed_multinomial(beta):
    """(-1)**(sum r_i) times the multinomial (sum r_i; r_1, r_2, ...)."""
    mults = _mults(beta)
    total = sum(mults)
    coeff = math.factorial(total)
    for r in mults:
        coeff //= math.factorial(r)
    return (-1) ** total * coeff


def w_coeff(m, c):
    """Coefficient m of the inverse of (1+t)**c, by composition sums.

    Definitional route: the composition-sum kernel over the head
    binom(c, 1..m); sizes past c weigh binom(c, j) = 0. Closed form (test
    identity): (-1)**m * binom(c+m-1, m).
    """
    check_weight(m, "m must be >= 0")
    check_int(c, "c must be >= 1", low=1)
    return inverse_series_coeff(tuple(math.comb(c, j) for j in range(1, m + 1)), m)


def _sym_values(values):
    return tuple(check_int(v, "symmetric-function values must be ints") for v in values)


def sym_elementary(values, j):
    """Elementary symmetric polynomial e_j, by Newton's identities.

    k * e_k = sum_{i=1..k} (-1)**(i-1) * e_{k-i} * p_i over the power sums
    p_i, so e_0..e_j cost O(j * (j + len(values))) products instead of one
    per monomial. Returns 0 for j beyond the number of values.
    """
    vals = _sym_values(values)
    check_int(j, "symmetric-function degree must be >= 0", low=0)
    if j > len(vals):
        return 0
    power_sums = [None] + [sum(v**i for v in vals) for i in range(1, j + 1)]
    e = [1]
    for k in range(1, j + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * power_sums[i] for i in range(1, k + 1))
        ek, rem = divmod(total, k)
        if rem:
            raise InternalConsistencyError(
                f"Newton's identity for e_{k} leaves remainder {rem} mod {k}"
            )
        e.append(ek)
    return e[j]


def sym_complete(values, i):
    """Complete homogeneous symmetric polynomial h_i, by monomial enumeration."""
    vals = _sym_values(values)
    check_int(i, "symmetric-function degree must be >= 0", low=0)
    if i == 0:
        return 1
    if not vals:
        return 0
    return sum(
        math.prod(combo)
        for combo in itertools.combinations_with_replacement(vals, i)
    )


def z_coeff(i, c, exponents):
    """Coefficient i of the inverse of prod_j (1 + e_j t), by composition sums.

    The composition-sum kernel over the head of elementary symmetric values
    e_1..e_i of the exponents, which must have length c. Closed form (test
    identity): (-1)**i * sym_complete(exponents, i).
    """
    check_weight(i, "i must be >= 0")
    check_int(c, "c must be >= 1", low=1)
    exps = tuple(exponents)
    if len(exps) != c:
        raise ValidationError(f"exponent sequence length {len(exps)} != c = {c}")
    head = tuple(sym_elementary(exps, j) for j in range(1, i + 1))
    return inverse_series_coeff(head, i)


def inverse_series_coeff(head, m):
    """Coefficient m of the inverse of 1 + a_1 t + ... + a_m t^m, closed form.

    The one composition-sum kernel: signed multinomials times the product of
    a_i**r_i, summed over the composition multisets of weight m.

    head is (a_1, ..., a_m); entries beyond index m are ignored by weight.
    Must agree with TruncatedSeries.invert on the padded series; that
    agreement is a standing test, not an assumption.
    """
    check_weight(m, "m must be >= 0")
    a = tuple(head)
    if len(a) < m:
        raise ValidationError(f"head too short: need {m} coefficients, got {len(a)}")
    total = 0
    for beta in enumerate_compositions(m):
        prod = 1
        for i, r in enumerate(beta.multiplicities, start=1):
            if r:
                prod *= a[i - 1] ** r
        total += signed_multinomial(beta) * prod
    return total
