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
from .errors import InternalConsistencyError, ValidationError
from .series import CycleClass, TruncatedSeries


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _validate_geometry(n, c, exponents, d):
    if not _is_int(n) or n < 2:
        raise ValidationError("n >= 2 violated")
    if not _is_int(c) or not 1 <= c <= n - 1:
        raise ValidationError("1 <= c <= n-1 violated")
    exps = tuple(exponents)
    if len(exps) != c:
        raise ValidationError(f"exponents length {len(exps)} != c = {c}")
    if any(not _is_int(e) or e < 1 for e in exps):
        raise ValidationError("exponents >= 1 violated")
    if not _is_int(d) or d < 1:
        raise ValidationError("degL >= 1 violated")
    return exps


def chern_normal(c, exponents, order):
    """Chern series of the normal bundle: product of (1 + e_j t).

    Built by series multiplication, so coefficient j equals the j-th
    elementary symmetric value of the exponents (zero past j = c) without
    calling sym_elementary, which belongs to the closed-form route.
    """
    if c < 1:
        raise ValidationError("c must be >= 1")
    exps = tuple(exponents)
    if len(exps) != c:
        raise ValidationError(f"exponents length {len(exps)} != c = {c}")
    if any(e < 1 for e in exps):
        raise ValidationError("exponents >= 1 violated")
    if order < 0:
        raise ValidationError("series order must be >= 0")
    out = TruncatedSeries.one(order)
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
    if not isinstance(p, int) or p < 2:
        raise ValidationError("scaling prime must be an int >= 2")
    return series.scale_variable(p)


def segre_cotangent(m, c, exponents, order):
    """Coefficient m of the Segre series of the cotangent bundle.

    Computed twice: by the inversion recurrence and by the closed-form
    composition sum over the cotangent Chern head. Disagreement is a hard
    error, never reconciled silently.
    """
    if not 0 <= m <= order:
        raise ValidationError(f"coefficient index {m} outside [0, {order}]")
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
