"""Length-2 Witt vectors over small finite fields.

W2(F_q) is the ring of pairs (a0, a1) with the universal addition carry
P_p(X, Y) = (X^p + Y^p - (X+Y)^p) / p, whose integer coefficients are built
once per characteristic (exact divisibility by p asserted) and cached. For
q = p the first ghost component identifies W2(F_p) with Z/p^2; that map is
the module's external correctness anchor.
"""

import itertools
import math

from .errors import CapacityError, ValidationError, check_int
from .primes import is_prime

# brute-force irreducibility search is exponential in the extension degree
_IRREDUCIBILITY_SEARCH_CAP = 10**6
# the exact binomials grow like p**2.7: a ring over F_2999 builds and makes
# its first carry in about 0.7 s (2-vCPU Xeon, CPython 3.11)
_CARRY_CAP = 3000

_carry_cache = {}


def carry_coefficients(p):
    """Coefficients c_1..c_{p-1} with P_p(X,Y) = -sum c_k X^k Y^(p-k).

    c_k = binom(p, k) / p; the division must be exact, and is asserted.
    Cached per characteristic (build once, read many).
    """
    if not is_prime(p):
        raise ValidationError("characteristic must be prime")
    if p > _CARRY_CAP:
        raise CapacityError(f"carry characteristic cap exceeded ({_CARRY_CAP})")
    cached = _carry_cache.get(p)
    if cached is None:
        out = []
        for k in range(1, p):
            b = math.comb(p, k)
            if b % p != 0:
                raise ValidationError(f"binom({p},{k}) not divisible by {p}")
            out.append(b // p)
        cached = _carry_cache.setdefault(p, tuple(out))
    return cached


def _poly_mod(num, den, p):
    # remainder of num by monic den over F_p; both dense low-to-high lists
    num = [x % p for x in num]
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        coeff = num[k]
        if coeff:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - coeff * den[j]) % p
    return num[:dd]


def _is_irreducible(modulus, p):
    f = len(modulus) - 1
    if modulus[0] == 0 and f > 1:
        return False  # divisible by x
    half = f // 2
    if half >= 1 and p**half > _IRREDUCIBILITY_SEARCH_CAP:
        raise CapacityError(
            f"irreducibility search space {p}**{half} beyond desk scale"
        )
    for deg in range(1, half + 1):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            if not any(_poly_mod(list(modulus), den, p)):
                return False
    return True


class FiniteField:
    """F_{p^f}: the prime field when no modulus is given, else residues
    modulo a caller-supplied monic irreducible polynomial (validated here
    by exhaustive trial division)."""

    __slots__ = ("p", "degree", "modulus", "_reduce_tail")

    def __init__(self, p, modulus=None):
        if not is_prime(p):
            raise ValidationError("field characteristic must be prime")
        object.__setattr__(self, "p", p)
        if modulus is None:
            object.__setattr__(self, "degree", 1)
            object.__setattr__(self, "modulus", None)
            object.__setattr__(self, "_reduce_tail", None)
            return
        mod = tuple(check_int(x, "modulus entries must be ints") % p for x in modulus)
        if len(mod) < 3:
            raise ValidationError("extension modulus must have degree >= 2")
        if mod[-1] != 1:
            raise ValidationError("extension modulus must be monic")
        if not _is_irreducible(mod, p):
            raise ValidationError("extension modulus is reducible")
        object.__setattr__(self, "degree", len(mod) - 1)
        object.__setattr__(self, "modulus", mod)
        # x^f = -(m_0 + m_1 x + ... + m_{f-1} x^{f-1})
        object.__setattr__(
            self, "_reduce_tail", tuple((-m) % p for m in mod[:-1])
        )

    def __setattr__(self, name, value):
        raise AttributeError("FiniteField is immutable")

    @property
    def order(self):
        return self.p**self.degree

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, modulus={self.modulus!r})"

    def element(self, value):
        if isinstance(value, FqElement):
            if value.field != self:
                raise ValidationError("element belongs to a different field")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            coeffs = (value % self.p,) + (0,) * (self.degree - 1)
            return FqElement(self, coeffs)
        if not isinstance(value, (tuple, list)):
            raise ValidationError("element must be an int or a coefficient tuple")
        coeffs = tuple(check_int(x, "coefficients must be ints") % self.p for x in value)
        if len(coeffs) > self.degree:
            raise ValidationError(
                f"coefficient tuple longer than extension degree {self.degree}"
            )
        coeffs = coeffs + (0,) * (self.degree - len(coeffs))
        return FqElement(self, coeffs)

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def elements(self):
        """All q elements, lexicographic on coefficient tuples."""
        for coeffs in itertools.product(range(self.p), repeat=self.degree):
            yield FqElement(self, coeffs)

    # tuple-level arithmetic, used by FqElement

    def _add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def _sub(self, u, v):
        return tuple((a - b) % self.p for a, b in zip(u, v))

    def _neg(self, u):
        return tuple((-a) % self.p for a in u)

    def _mul(self, u, v):
        p, f = self.p, self.degree
        if f == 1:
            return ((u[0] * v[0]) % p,)
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] += a * b
        tail = self._reduce_tail
        for k in range(2 * f - 2, f - 1, -1):
            coeff = prod[k] % p
            if coeff:
                for j in range(f):
                    prod[k - f + j] += coeff * tail[j]
            prod[k] = 0
        return tuple(x % p for x in prod[:f])


class FqElement:
    """Immutable residue; mixed-field arithmetic is rejected."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("FqElement is immutable")

    def _match(self, other):
        if not isinstance(other, FqElement):
            raise ValidationError("expected an FqElement operand")
        if other.field != self.field:
            raise ValidationError("mixed base fields rejected")
        return other

    def __add__(self, other):
        other = self._match(other)
        return FqElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._match(other)
        return FqElement(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        other = self._match(other)
        return FqElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __pow__(self, exponent):
        if type(exponent) is not int:  # exact ints skip the call: runs per carry term
            check_int(exponent, "exponent must be an int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        base = self.coeffs
        out = self.field.one.coeffs
        e = exponent
        while e:
            if e & 1:
                out = self.field._mul(out, base)
            base = self.field._mul(base, base)
            e >>= 1
        return FqElement(self.field, out)

    def inverse(self):
        if not any(self.coeffs):
            raise ValidationError("zero is not invertible")
        return self ** (self.field.order - 2)

    def scaled(self, k):
        """Multiply by the image of the integer k."""
        return self * self.field.element(k)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def lift(self):
        """Integer representative in [0, p); prime fields only."""
        if self.field.degree != 1:
            raise ValidationError("integer lift needs a prime field")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.field.degree == 1:
            return f"FqElement({self.coeffs[0]} mod {self.field.p})"
        return f"FqElement({self.coeffs!r} over {self.field!r})"


class WittRing:
    """W2 over a fixed finite field; carries are memoized per residue pair."""

    __slots__ = ("field", "_carry_coeffs", "_carry_memo")

    def __init__(self, field):
        if not isinstance(field, FiniteField):
            raise ValidationError("expected a FiniteField")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_carry_coeffs", carry_coefficients(field.p))
        object.__setattr__(self, "_carry_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("WittRing is immutable")

    def element(self, a0, a1):
        return WittPair(self, self.field.element(a0), self.field.element(a1))

    @property
    def zero(self):
        return self.element(0, 0)

    @property
    def one(self):
        return self.element(1, 0)

    def teichmuller(self, a):
        return self.element(a, 0)

    def elements(self):
        """All q**2 pairs, lexicographic."""
        for a0 in self.field.elements():
            for a1 in self.field.elements():
                yield WittPair(self, a0, a1)

    def carry(self, a0, b0):
        """P_p(a0, b0) evaluated in the field (memoized, read-many)."""
        key = (a0.coeffs, b0.coeffs)
        memo = self._carry_memo
        got = memo.get(key)
        if got is None:
            p = self.field.p
            total = self.field.zero
            for k, ck in enumerate(self._carry_coeffs, start=1):
                total = total + (a0**k * b0 ** (p - k)).scaled(ck)
            got = memo.setdefault(key, -total)
        return got

    def __eq__(self, other):
        if not isinstance(other, WittRing):
            return NotImplemented
        return self.field == other.field

    def __hash__(self):
        return hash(("WittRing", self.field))

    def __repr__(self):
        return f"WittRing({self.field!r})"


class WittPair:
    """One length-2 Witt vector."""

    __slots__ = ("ring", "a0", "a1")

    def __init__(self, ring, a0, a1):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    def __setattr__(self, name, value):
        raise AttributeError("WittPair is immutable")

    def _match(self, other):
        if not isinstance(other, WittPair):
            raise ValidationError("expected a WittPair operand")
        if other.ring != self.ring:
            raise ValidationError("mixed Witt rings rejected")
        return other

    def __add__(self, other):
        other = self._match(other)
        return WittPair(
            self.ring,
            self.a0 + other.a0,
            self.a1 + other.a1 + self.ring.carry(self.a0, other.a0),
        )

    def __neg__(self):
        # solve x + y = 0 with the same universal carry; for odd p the carry
        # term vanishes, for p = 2 it contributes a0**2
        m0 = -self.a0
        return WittPair(self.ring, m0, -self.a1 - self.ring.carry(self.a0, m0))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._match(other)
        p = self.ring.field.p
        return WittPair(
            self.ring,
            self.a0 * other.a0,
            self.a0**p * other.a1 + other.a0**p * self.a1,
        )

    def frobenius(self):
        p = self.ring.field.p
        return WittPair(self.ring, self.a0**p, self.a1**p)

    def verschiebung(self):
        return WittPair(self.ring, self.ring.field.zero, self.a0)

    def ghost(self):
        """First ghost component in Z/p^2; prime fields only."""
        p = self.ring.field.p
        return (self.a0.lift() ** p + p * self.a1.lift()) % p**2

    def times(self, k):
        """k-fold sum (k >= 0), by repeated addition."""
        check_int(k, "repetition count must be an int >= 0", low=0)
        out = self.ring.zero
        for _ in range(k):
            out = out + self
        return out

    def __eq__(self, other):
        if not isinstance(other, WittPair):
            return NotImplemented
        return self.ring == other.ring and (self.a0, self.a1) == (other.a0, other.a1)

    def __hash__(self):
        return hash((self.ring, self.a0, self.a1))

    def __repr__(self):
        return f"WittPair({self.a0!r}, {self.a1!r})"
