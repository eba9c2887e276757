"""Characteristic-class series for complete intersections in abelian varieties.

Setting: X is the intersection of c general hypersurfaces, the j-th cut out
by a section of the e_j-th power of a fixed ample line bundle l with top
self-intersection number d. The ambient tangent bundle is trivial, so the
normal-bundle series determines everything: every class here is an integer
multiple of a power of l, and series coefficient j is that multiple in
codimension j.
"""

import math

from .combinatorics import inverse_series_coeff
from .errors import InternalConsistencyError, ValidationError, check_int
from .series import CycleClass, TruncatedSeries


def _validate_geometry(n, c, exponents, d):
    check_int(n, "n >= 2 violated", low=2)
    check_int(c, "1 <= c <= n-1 violated", low=1, high=n - 1)
    exps = tuple(exponents)
    if len(exps) != c:
        raise ValidationError(f"exponents length {len(exps)} != c = {c}")
    for e in exps:
        check_int(e, "exponents >= 1 violated", low=1)
    check_int(d, "degL >= 1 violated", low=1)
    return exps


def chern_normal(c, exponents, order):
    """Chern series of the normal bundle: product of (1 + e_j t).

    Built by series multiplication, so coefficient j equals the j-th
    elementary symmetric value of the exponents (zero past j = c) without
    calling sym_elementary, which belongs to the closed-form route.
    """
    check_int(c, "c must be >= 1", low=1)
    exps = tuple(exponents)
    if len(exps) != c:
        raise ValidationError(f"exponents length {len(exps)} != c = {c}")
    for e in exps:
        check_int(e, "exponents >= 1 violated", low=1)
    out = TruncatedSeries.one(order)  # validates the order
    for e in exps:
        out = out * TruncatedSeries((1, e)[: order + 1], order=order)
    return out


def chern_tangent(c, exponents, order):
    """Chern series of the tangent bundle: inverse of the normal series.

    Trivial ambient tangent bundle makes this exact, not just a truncation
    artifact.
    """
    return chern_normal(c, exponents, order).invert()


def cotangent_chern(c, exponents, order):
    """Chern series of the cotangent bundle: alternate signs of the tangent one."""
    tangent = chern_tangent(c, exponents, order)
    return TruncatedSeries(
        tuple((-1) ** j * a for j, a in enumerate(tangent.coefficients)),
        order=order,
    )


def frobenius_scale(series, p):
    """Pullback along multiplication by p on codimension-j pieces: times p**j."""
    if not isinstance(series, TruncatedSeries):
        raise ValidationError("expected a TruncatedSeries")
    check_int(p, "scaling prime must be an int >= 2", low=2)
    return series.scale_variable(p)


def segre_cotangent(m, c, exponents, order):
    """Coefficient m of the Segre series of the cotangent bundle.

    Computed twice: by the inversion recurrence and by the closed-form
    composition sum over the cotangent Chern head. Disagreement is a hard
    error, never reconciled silently.
    """
    check_int(order, "series order must be >= 0")
    check_int(m, f"coefficient index {m} outside [0, {order}]", low=0, high=order)
    comega = cotangent_chern(c, exponents, order)
    by_recurrence = comega.invert().coefficient(m)
    head = tuple(comega.coefficient(j) for j in range(1, m + 1))
    by_closed_form = inverse_series_coeff(head, m)
    if by_recurrence != by_closed_form:
        raise InternalConsistencyError(
            f"segre coefficient {m} disagrees: recurrence {by_recurrence}, "
            f"closed form {by_closed_form}"
        )
    return by_recurrence


def top_integral(n, c, exponents, d):
    """Degree of l**(n-c) on X: product of the exponents times d."""
    exps = _validate_geometry(n, c, exponents, d)
    return math.prod(exps) * d


def deg_cotangent(n, c, exponents, d):
    """Degree of the cotangent bundle of X against l.

    Closed form (sum of exponents) * (product of exponents) * d, cross-checked
    against integrating the first cotangent Chern class times l**(n-c-1).
    """
    exps = _validate_geometry(n, c, exponents, d)
    closed = sum(exps) * math.prod(exps) * d
    # independent route: c_1 of the cotangent bundle is (sum e_j) * l
    dim = n - c
    ti = top_integral(n, c, exponents, d)
    c1_mult = cotangent_chern(c, exps, dim).coefficient(1) if dim >= 1 else 0
    c1_class = CycleClass(
        tuple(c1_mult if j == 1 else 0 for j in range(dim + 1)),
        ti,
        top_codim=dim,
    )
    via_integral = (
        c1_class * CycleClass.divisor_power(dim - 1, dim, ti)
    ).integrate()
    if closed != via_integral:
        raise InternalConsistencyError(
            f"cotangent degree disagrees: closed form {closed}, integral {via_integral}"
        )
    return closed
