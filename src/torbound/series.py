"""Truncated formal power series, exact arithmetic.

A series of order N is the dense coefficient list (a_0, ..., a_N); all
operations truncate at N and never leave exact scalars (int or Fraction).
The inversion recurrence here is the reference oracle for every closed-form
inverse coefficient elsewhere in the package. A class sum g_k l**k on a
variety of dimension N, with l a fixed polarization, is a series of order N.
"""

from fractions import Fraction

from .errors import (Frozen, ValidationError, _exact_repr, check_cap, check_int, check_tuple,
                     digits)

# Inversion and products are quadratic in the order: inverting (1, 1) at
# order 4000 takes about 0.7 s (2-vCPU Xeon, CPython 3.11).
MAX_SERIES_ORDER = 4000


def check_order(order, message):
    """order as a series order: an int >= 0 (else message), at most the cap."""
    return check_cap(check_int(order, message, low=0), MAX_SERIES_ORDER, "series order")


def check_index(j, order):
    """j as a coefficient index of a series of this order: an int in [0, order],
    else ValidationError, whose message is built only then."""
    if not 0 <= check_int(j, "coefficient index must be an int") <= order:
        raise ValidationError(f"coefficient index {digits(j)} outside [0, {order}]")
    return j


def _check_scalars(values):
    # the scalar rule: values, any iterable, as a tuple of ints and Fractions
    values = check_tuple(values, "coefficients must be a sequence of int or Fraction")
    for x in values:
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise ValidationError(f"coefficients must be int or Fraction, got {type(x).__name__}")
    return values


class TruncatedSeries(Frozen):
    """Formal power series truncated at a fixed order.

    Immutable. Operations on series of different orders are errors; nothing
    is ever re-truncated silently.
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, coefficients, order=None):
        coeffs = _check_scalars(coefficients)
        if order is None:
            if not coeffs:
                raise ValidationError("series needs at least the constant coefficient")
            order = len(coeffs) - 1
        check_order(order, "series order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValidationError(
                f"got {len(coeffs)} coefficients for order {order}; refusing to truncate"
            )
        # pad with zeros up to the requested order
        super().__init__(order, coeffs + (0,) * (order + 1 - len(coeffs)))

    @classmethod
    def one(cls, order):
        return cls((1,), order=order)

    def coefficient(self, j):
        return self.coefficients[check_index(j, self.order)]

    def __getitem__(self, j):
        return self.coefficient(j)

    def _match(self, other):
        if not isinstance(other, TruncatedSeries):
            raise ValidationError("expected a TruncatedSeries operand")
        if other.order != self.order:
            raise ValidationError(
                f"order mismatch: {self.order} vs {other.order}"
            )
        return other

    def __add__(self, other):
        other = self._match(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
            order=self.order,
        )

    def __sub__(self, other):
        other = self._match(other)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
            order=self.order,
        )

    def __mul__(self, other):
        """Cauchy product, truncated at the common order."""
        other = self._match(other)
        n = self.order
        a, b = self.coefficients, other.coefficients
        out = []
        for m in range(n + 1):
            out.append(sum(a[k] * b[m - k] for k in range(m + 1)))
        return TruncatedSeries(tuple(out), order=n)

    def invert(self):
        """Multiplicative inverse, requires constant term exactly 1.

        b_0 = 1, b_m = -sum_{k=1..m} a_k b_{m-k}, over the nonzero a_k only.
        """
        a = self.coefficients
        if a[0] != 1:
            raise ValidationError("constant term must be 1 to invert")
        b, live = [1], []  # live: the (k, a_k) with a_k nonzero and 1 <= k <= m
        for m in range(1, self.order + 1):
            if a[m]:
                live.append((m, a[m]))
            b.append(-sum(x * b[m - k] for k, x in live))
        return TruncatedSeries(tuple(b), order=self.order)

    def scale_variable(self, factor):
        """Substitute t -> factor*t: coefficient j picks up factor**j."""
        _check_scalars((factor,))
        return TruncatedSeries(
            tuple(a * factor**j for j, a in enumerate(self.coefficients)),
            order=self.order,
        )

    def __repr__(self):
        return f"TruncatedSeries({_exact_repr(self.coefficients)})"
