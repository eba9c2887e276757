"""Characteristic-class series for complete intersections in abelian varieties.

Setting: X is the intersection of c general hypersurfaces, the j-th cut out
by a section of the e_j-th power of a fixed ample line bundle l with top
self-intersection number d. The ambient tangent bundle is trivial, so the
normal-bundle series determines everything: every class here is an integer
multiple of a power of l, and series coefficient j is that multiple in
codimension j.
"""

import math

from .combinatorics import _elementary_table
from .errors import ValidationError, check_int, check_ints, check_routes, check_tuple, digits
from .series import TruncatedSeries, check_index, check_order


def _validate_geometry(n, c, exponents, d):
    _check_codimension(n, c)
    exps = _check_exponents(c, exponents)
    check_int(d, "degL >= 1 violated", low=1)
    return exps


def _check_codimension(n, c):
    check_int(n, "n >= 2 violated", low=2)
    check_int(c, "1 <= c <= n-1 violated", low=1, high=n - 1)


def _check_exponents(c, exponents):
    exps = check_tuple(exponents, "exponents >= 1 violated")
    if len(exps) != c:  # the length before the entries
        raise ValidationError(f"exponents length {len(exps)} != c = {digits(c)}")
    return check_ints(exps, "exponents >= 1 violated", low=1)


def chern_normal(c, exponents, order):
    """Chern series of the normal bundle: product of (1 + e_j t).

    Multiplies a coefficient list by each factor in place, top degree
    first, so coefficient j equals the j-th elementary symmetric value of
    the exponents (zero past j = c) without calling sym_elementary, which
    belongs to the closed-form route. O(order) products per factor.
    """
    check_int(c, "c must be >= 1", low=1)
    return _normal_series(_check_exponents(c, exponents), order)


def _normal_series(exps, order):
    # chern_normal on checked exponents
    coeffs = list(TruncatedSeries.one(order).coefficients)  # validates the order
    for k, e in enumerate(exps[:order], start=1):  # factor k reaches degree k
        for j in range(k, 0, -1):
            coeffs[j] += e * coeffs[j - 1]
    steps = range(order, 0, -1)  # every later factor reaches the order
    for e in exps[order:]:
        for j in steps:
            coeffs[j] += e * coeffs[j - 1]
    return TruncatedSeries(coeffs, order=order)


def chern_tangent(c, exponents, order):
    """Chern series of the tangent bundle: inverse of the normal series.

    Trivial ambient tangent bundle makes this exact, not just a truncation
    artifact.
    """
    return chern_normal(c, exponents, order).invert()


def cotangent_chern(c, exponents, order):
    """Chern series of the cotangent bundle: the tangent one at t -> -t."""
    return chern_tangent(c, exponents, order).scale_variable(-1)


def frobenius_scale(series, p):
    """Pullback along multiplication by p on codimension-j pieces: times p**j."""
    if not isinstance(series, TruncatedSeries):
        raise ValidationError("expected a TruncatedSeries")
    check_int(p, "scaling prime must be an int >= 2", low=2)
    return series.scale_variable(p)


def segre_cotangent(m, c, exponents, order):
    """Coefficient m of the Segre series of the cotangent bundle.

    Computed twice: by inverting the cotangent Chern series, and in closed
    form as (-1)**m * e_m of the exponents (the normal series at t -> -t).
    Disagreement is a hard error, never reconciled silently.
    """
    check_order(order, "series order must be >= 0")
    check_index(m, order)
    exps = _check_exponents(check_int(c, "c must be >= 1", low=1), exponents)
    comega = _normal_series(exps, order).invert().scale_variable(-1)  # cotangent_chern
    return check_routes(f"segre coefficient {m}", ("recurrence", comega.invert().coefficient(m)),
                        ("closed form", (-1) ** m * _elementary_table(exps, m)[m]))


def top_integral(n, c, exponents, d):
    """Degree of l**(n-c) on X: product of the exponents times d."""
    exps = _validate_geometry(n, c, exponents, d)
    return math.prod(exps) * d


def deg_cotangent(n, c, exponents, d):
    """Degree of the cotangent bundle of X against l.

    Closed form (sum of exponents) * (product of exponents) * d, cross-checked
    against integrating the first cotangent Chern class times l**(n-c-1):
    c_1 is read from the tangent series at order 1, since no higher class
    enters, and c_1 * l**(n-c-1) is c_1 times the top class l**(n-c).
    """
    exps = _validate_geometry(n, c, exponents, d)
    return _cotangent_degree(exps, d, _normal_series(exps, 1).invert())


def _cotangent_degree(exps, d, tangent):
    # deg_cotangent's two routes on checked exponents: c_1 of the cotangent
    # bundle is minus the t-coefficient of tangent, their tangent series
    top = math.prod(exps) * d  # top_integral
    return check_routes("cotangent degree", ("closed form", sum(exps) * top),
                        ("integral", -tangent.coefficient(1) * top))
