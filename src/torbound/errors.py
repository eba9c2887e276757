"""Exception types shared across the package, its one integer rule, its
one sequence rule, its one cap rule, its one two-route rule, its one
immutable-value base and its one rule for printing big integers.

Validation failures and internal consistency failures are kept distinct so
callers (and the CLI exit-code mapping) can tell bad input apart from a bug
in the arithmetic itself.
"""

import functools
import sys
import threading


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


class _Depth(threading.local):
    depth = 0  # exact_digits blocks this thread has open


class exact_digits:
    """Print exact integers of any length: lift CPython's 4300-digit
    int-to-str limit for a with-block or a decorated call. The limit is the
    interpreter's, so one lift serves every thread: the first thread in saves
    and lifts it, the last one out restores it. Blocks and calls nest."""

    __slots__ = ()
    _lock = threading.Lock()
    _held = [0, None]  # threads inside a block, and the limit the first one found
    _local = _Depth()

    def __enter__(self):
        if not self._local.depth:
            with self._lock:
                held = self._held
                if not held[0]:
                    held[1] = sys.get_int_max_str_digits()
                    sys.set_int_max_str_digits(0)
                held[0] += 1
        self._local.depth += 1

    def __exit__(self, *exc_info):
        self._local.depth -= 1
        if not self._local.depth:
            with self._lock:
                held = self._held
                held[0] -= 1
                if not held[0]:
                    sys.set_int_max_str_digits(held[1])

    def __call__(self, fn):
        local = self._local

        @functools.wraps(fn)
        def exact(*args, **kwargs):
            if local.depth:  # this thread holds the lift: the per-row case
                return fn(*args, **kwargs)
            with self:
                return fn(*args, **kwargs)
        return exact


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
            with exact_digits():
                message = f"{what} disagrees{at}: {route_a} {x}, {route_b} {y}"
            raise InternalConsistencyError(message)
    return first[1]


class Frozen:
    """The package's immutable-value base: fields are the subclass's __slots__.

    Values compare equal, and hash alike, when they have the same type and the
    same _key(), which is every field unless a subclass narrows it. The repr
    names every field, integers in exact digits. Pickling and copying restore
    the fields through __setstate__. Each subclass gets _setters, the __set__
    of its slots' own member descriptors in __slots__ order: the generic
    __init__ sets fields through it, and subclasses built per operation or per
    row unroll their __init__ over it instead of calling object.__setattr__.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):  # not every field given positionally
            if len(args) + len(kwargs) != len(fields) or not all(
                name in kwargs for name in fields[len(args):]
            ):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            args += tuple(kwargs[name] for name in fields[len(args):])
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():  # (None, slots) from object.__reduce_ex__
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @exact_digits()
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
