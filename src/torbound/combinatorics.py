"""Elementary and complete symmetric tables, and the closed forms built on them.

The paper writes the jet-bundle degree as a double sum over compositions:
signed multinomials times powers of a head sequence, the coefficients of an
inverted power series. Those coefficients have closed forms in the
elementary and complete symmetric polynomials of the exponents, which take
time polynomial in the degree. The bound, the series tables and the normal
Chern series read them here; the tests keep the composition sums, by their
definition, to check them against.
"""

import math

from .errors import InternalConsistencyError, check_cap, check_int, check_ints
from .series import check_order

# The cap guards the series tables, whose coefficients grow with the weight:
# with c = 1000000 the weight-1000 entry of the w-table has 11403 bits, and
# the recurrence that checks the table is quadratic in the weight over such
# integers. That table and its check take 7 s at weight 1000 and did not end
# in 300 s at weight 4000 (2-vCPU Xeon, CPython 3.11). The cap stays until the
# tables have an output budget.
MAX_COMPOSITION_WEIGHT = 64


def check_weight(m, message):
    """m as a composition weight: an int >= 0 (else message), at most the cap."""
    return check_cap(check_int(m, message, low=0), MAX_COMPOSITION_WEIGHT, "composition weight")


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

    O(k * i) products over k values. The bound's closed form reads these as
    the inverse of prod_j (1 + x_j t), up to sign; the series recurrence
    checks them.
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
