"""Composition multisets and the coefficient sums built on them.

A composition multiset of weight m records how many parts of each size a
partition of m has: multiplicities (r_1, r_2, ...) with sum i*r_i = m.
Summing signed multinomials over all of them, weighted by powers of a head
sequence, yields the coefficients of an inverted power series in closed form
(inverse_series_coeff); the series module's recurrence is its oracle.
That kernel is the definition w_coeff, z_coeff and the tests check against.
The bound, the series tables and segre_cotangent read the elementary and
complete symmetric tables instead, which are polynomial in the degree.
"""

import math

from .errors import (Frozen, InternalConsistencyError, ValidationError, check_cap, check_int,
                     check_ints, check_tuple, digits)
from .series import _check_scalars, check_order

# Enumeration is exponential in the weight (partition count); anything past
# this cap is a sign the caller is misusing a desk-scale tool.
MAX_COMPOSITION_WEIGHT = 64


def check_weight(m, message):
    """m as a composition weight: an int >= 0 (else message), at most the cap."""
    return check_cap(check_int(m, message, low=0), MAX_COMPOSITION_WEIGHT, "composition weight")


class CompositionMultiset(Frozen):
    """Multiplicity vector of a partition: entry i-1 counts parts of size i."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities):
        mults = check_ints(multiplicities, "multiplicities must be ints")
        if any(r < 0 for r in mults):
            raise ValidationError("multiplicities must be >= 0")
        check_cap(sum(mults), MAX_COMPOSITION_WEIGHT, "composition weight")  # weight >= parts
        super().__init__(mults)

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
    return CompositionMultiset(beta).multiplicities


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


def sym_elementary_table(values, j):
    """Elementary symmetric polynomials e_0..e_j, by Newton's identities.

    k * e_k = sum_{i=1..k} (-1)**(i-1) * e_{k-i} * p_i over the power sums
    p_i, so the table costs O(j * (j + len(values))) products instead of one
    per monomial. Entries beyond the number of values are 0.
    """
    return _elementary_table(check_ints(values, "symmetric-function values must be ints"),
                             check_order(j, "symmetric-function degree must be >= 0"))


def _elementary_table(vals, j):
    top = min(j, len(vals))
    power_sums = [None] + [sum(v**i for v in vals) for i in range(1, top + 1)]
    e = [1]
    for k in range(1, top + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * power_sums[i] for i in range(1, k + 1))
        ek, rem = divmod(total, k)
        if rem:
            raise InternalConsistencyError(
                f"Newton's identity for e_{k} leaves remainder {rem} mod {k}"
            )
        e.append(ek)
    return tuple(e) + (0,) * (j - top)


def sym_elementary(values, j):
    """Elementary symmetric polynomial e_j: the last entry of its table."""
    return sym_elementary_table(values, j)[j]


def sym_complete_table(values, i):
    """Complete homogeneous symmetric polynomials h_0..h_i, by the recurrence
    h_j(x_1..x_k) = h_j(x_1..x_{k-1}) + x_k * h_{j-1}(x_1..x_k).

    O(k * i) products over k values, with no call to the composition kernel,
    so it stays an independent oracle for z_coeff.
    """
    return _complete_table(check_ints(values, "symmetric-function values must be ints"),
                           check_order(i, "symmetric-function degree must be >= 0"))


def _complete_table(vals, i):
    h = [1] + [0] * i  # h_0..h_i of the values seen so far
    for x in vals:
        for j in range(1, i + 1):
            h[j] += x * h[j - 1]
    return tuple(h)


def _closed_forms(order, c, exps=None):
    # coefficients 0..order of prod_j (1 + e_j t) and of its inverse, e_i and
    # (-1)**i * h_i of exps; with no exps, of (1 + t)**c and of its inverse,
    # binom(c, i) and (-1)**i * binom(c + i - 1, i), the h_i of c ones
    if exps is None:
        return (tuple(math.comb(c, i) for i in range(order + 1)),
                tuple((-1) ** i * math.comb(c + i - 1, i) for i in range(order + 1)))
    return _elementary_table(exps, order), tuple(
        (-1) ** i * h for i, h in enumerate(_complete_table(exps, order)))


def sym_complete(values, i):
    """Complete homogeneous symmetric polynomial h_i: the last entry of its table."""
    return sym_complete_table(values, i)[i]


def z_coeff(i, c, exponents):
    """Coefficient i of the inverse of prod_j (1 + e_j t), by composition sums.

    The composition-sum kernel over the head of elementary symmetric values
    e_1..e_i of the exponents, which must have length c. Closed form (test
    identity): (-1)**i * sym_complete(exponents, i).
    """
    check_weight(i, "i must be >= 0")
    check_int(c, "c must be >= 1", low=1)
    exps = check_tuple(exponents, "symmetric-function values must be ints")
    if len(exps) != c:
        raise ValidationError(f"exponent sequence length {len(exps)} != c = {digits(c)}")
    return inverse_series_coeff(sym_elementary_table(exps, i)[1:], i)


def inverse_series_coeff(head, m):
    """Coefficient m of the inverse of 1 + a_1 t + ... + a_m t^m, closed form.

    The one composition-sum kernel: signed multinomials times the product of
    a_i**r_i, summed over the composition multisets of weight m.

    head is (a_1, ..., a_m); entries beyond index m are ignored by weight.
    Must agree with TruncatedSeries.invert on the padded series; that
    agreement is a standing test, not an assumption.
    """
    check_weight(m, "m must be >= 0")
    a = _check_scalars(head)
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
