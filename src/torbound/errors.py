"""Exception types shared across the package, its one integer rule, its
one sequence rule, its one cap rule, its one two-route rule, its one
immutable-value base and its one printing rule, digits.

Validation failures and internal consistency failures are kept distinct so
callers (and the CLI exit-code mapping) can tell bad input apart from a bug
in the arithmetic itself.
"""

import decimal
from fractions import Fraction


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def check_int(value, message, low=None, high=None):
    """The package's integer rule: value is an int, never a bool, in [low, high].

    Returns value, or raises ValidationError(message). Nothing is coerced: a
    float, a string or a Fraction is refused even when it holds an integer.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        raise ValidationError(message)
    return value


def check_tuple(values, message):
    """values, any iterable, as a tuple, or ValidationError(message) when it is
    not iterable: check_ints' first step, for a site that reads its length first."""
    try:
        entries = iter(values)
    except TypeError:
        raise ValidationError(message) from None
    return tuple(entries)


def check_ints(values, message, low=None):
    """The package's sequence rule: check_tuple(values, message), each entry
    then passing check_int(entry, message, low); no fast path. Returns the tuple."""
    values = check_tuple(values, message)
    for value in values:
        check_int(value, message, low)
    return values


def check_cap(value, cap, what):
    """The package's cap rule: value is at most cap.

    Returns value, or raises CapacityError("<what> cap exceeded (<cap>)").
    """
    if value > cap:
        raise CapacityError(f"{what} cap exceeded ({cap})")
    return value


# str of an int under 2**2048 has at most 617 digits, below 640, the least
# nonzero int-to-str limit CPython accepts, so no limit can refuse it
_LEAF_BITS = 2048
_SHORT = 1 << _LEAF_BITS
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact])


def digits(n):
    """The package's printing rule: the exact decimal string of the int n.

    It never reads or sets CPython's int-to-str digit limit. A short int is
    str(n). A longer one is split by bits down to _LEAF_BITS-bit leaves, each
    leaf converted by decimal, which has no such limit, and the halves joined
    with powers of 2 in an exact context: int_to_decimal_string in CPython
    3.12's Lib/_pylong.py, subquadratic on every supported Python.
    """
    if -_SHORT < n < _SHORT:
        return str(n)
    powers = {}

    def power(w):  # Decimal 2**w
        if w not in powers:
            half = w >> 1
            powers[w] = (_EXACT.power(2, w) if w <= _LEAF_BITS
                         else _EXACT.multiply(power(half), power(w - half)))
        return powers[w]

    def convert(m, w):  # Decimal m, for 0 <= m < 2**w
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        high = m >> half
        return _EXACT.fma(convert(high, w - half), power(half), convert(m - (high << half), half))

    return ("-" if n < 0 else "") + str(convert(abs(n), abs(n).bit_length()))


def check_routes(what, first, second, where=None):
    """The package's two-route rule: two independent routes to one value agree.

    first and second are (route, values): scalars when where is None, else
    sequences compared one coefficient at a time, where formatting the index
    ("t**{}"). The first mismatch, or unequal lengths, raises
    InternalConsistencyError("<what> disagrees[ at <where>]: <route> <x>,
    <route> <y>") in exact digits. Returns the first values.
    """
    (route_a, a), (route_b, b) = first, second
    if where is None:
        a, b, where = (a,), (b,), ""
    elif len(a) != len(b):
        raise InternalConsistencyError(
            f"{what} disagrees in length: {route_a} {len(a)}, {route_b} {len(b)}"
        )
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            at = where and " at " + where.format(i)
            raise InternalConsistencyError(
                f"{what} disagrees{at}: {route_a} {digits(x)}, {route_b} {digits(y)}"
            )
    return first[1]


class Frozen:
    """The package's immutable-value base: fields are the subclass's __slots__,
    which the generic __init__ takes by position, in __slots__ order.

    A slot named with a leading _ holds derived data, outside equality, hash
    and repr; _fields are the others. Values of the same type with equal
    _fields compare equal and hash alike; the repr names _fields, ints in exact
    digits. Pickling and copying restore every slot through __setstate__.
    _setters are the __set__ of the slots' member descriptors, in order. A
    subclass ends its __init__ in this one. Where a benchmarked workload
    builds it many times per item, the package's own builds may skip
    __init__ for an unchecked builder that unrolls the fields over _setters,
    with a comment naming that traffic: FqElement and WittPair in witt,
    BoundReport in bounds.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *args):
        if len(args) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():  # (None, slots) from object.__reduce_ex__
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={_exact_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _exact_repr(value):
    """repr(value) with its ints, in a tuple or a Fraction too, printed by digits."""
    if type(value) is int:
        return digits(value)
    if type(value) is tuple:
        items = ", ".join(map(_exact_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    if type(value) is Fraction:
        return f"Fraction({digits(value.numerator)}, {digits(value.denominator)})"
    return repr(value)


class CapacityError(ValidationError):
    """An input is beyond the range this implementation certifies.

    Raised instead of silently degrading (e.g. primality testing past the
    deterministic witness range).
    """


class InternalConsistencyError(RuntimeError):
    """Two independent computation paths disagreed.

    This is never caught and resolved silently; it means the library itself
    is wrong and the result cannot be trusted.
    """
