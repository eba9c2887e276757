"""Length-2 Witt vectors over small finite fields.

W2(F_q) is the ring of pairs (a0, a1) with the universal addition carry
P_p(X, Y) = (X^p + Y^p - (X+Y)^p) / p. For q = p the first ghost component
identifies W2(F_p) with Z/p^2, the module's external correctness anchor, and
the F_p carry is computed there, so a prime-field ring builds no table. An
extension ring builds the integer coefficients of P_p (exact divisibility by p
asserted) and reduces them into the field once per ring. Each ring memoizes
its carry by one residue, at most q entries (see WittRing._carry_index).

A residue of F_q = F_p[x]/(m) is one int in 0..q-1, its index, whose base-p
digits, lowest first, are its coefficients (0..p-1 is the prime field in F_p
and every extension), and a Witt pair stores the indices of its components:
FiniteField._residue validates an input and returns its index, so a pair is
built from its inputs without building an FqElement.
Prime fields compute with % p; an extension field reads exp, log and
Zech-log tables over a primitive element, so its arithmetic is lookups. The
tables are built once per process for each (p, modulus) (see _field_tables).
"""

import collections
import itertools
import math
import threading

from .errors import Frozen, ValidationError, check_cap, check_int, check_ints
from .primes import check_prime

# the range of carry_coefficients, whose exact binomials grow like p**2.7
# (p = 2999 builds them in about 0.6 s); only extension rings, p <= 509 under the
# field table cap, build them. A prime-field ring takes any p: its carry reads
# u^p mod p^2 for three residues u, each one modular power on first use
_CARRY_CAP = 3000
# an extension field builds exp, log and Zech tables of q entries each, in
# O(q) steps: F_(2**18), the largest field at the cap, builds in 0.3-0.5 s and
# F_(509**2) in 0.3 s; F_(2**19) took 0.8-1.0 s (2-vCPU Xeon, CPython 3.11.7)
_FIELD_TABLE_CAP = 2**18


def carry_coefficients(p):
    """Coefficients c_k = binom(p, k) / p, k = 1..p-1, with P_p(X,Y) =
    -sum c_k X^k Y^(p-k); each division must be exact, and is asserted."""
    check_cap(check_prime(p, "characteristic must be prime"), _CARRY_CAP, "carry characteristic")
    out = []
    for k in range(1, p):
        b = math.comb(p, k)
        if b % p != 0:
            raise ValidationError(f"binom({p},{k}) not divisible by {p}")
        out.append(b // p)
    return tuple(out)


# the tables of the extension fields built in this process, by (p, modulus),
# least recently used first; the residues held, summed over q, stay within
# _FIELD_TABLE_CAP
_TABLES = collections.OrderedDict()
_TABLES_LOCK = threading.Lock()


def _field_tables(p, mod):
    """(exp, log, zech) of F_p[x]/(mod), built on the first call for a field
    and looked up after it, so equal fields, unpickled and deep-copied ones
    too, share one set of tuples. A reducible modulus raises ValidationError
    and is never held, so it is refused alike on every call."""
    key = (p, mod)
    with _TABLES_LOCK:
        tables = _TABLES.get(key)
        if tables is not None:
            _TABLES.move_to_end(key)
            return tables
    from . import fieldtables  # loaded with the first extension field

    if not fieldtables.is_irreducible(mod, p):
        raise ValidationError("extension modulus is reducible")
    tables = fieldtables.tables(p, mod)  # unlocked: lookups of other fields go on
    with _TABLES_LOCK:
        tables = _TABLES.setdefault(key, tables)  # two racing builds keep the first
        _TABLES.move_to_end(key)
        held = sum(len(log) for _, log, _ in _TABLES.values())
        while held > _FIELD_TABLE_CAP:  # the newest field is at most the cap
            held -= len(_TABLES.popitem(last=False)[1][1])
    return tables


def _digits(index, p, f):
    out = []
    for _ in range(f):
        index, d = divmod(index, p)
        out.append(d)
    return tuple(out)


def _index(coeffs, p):
    out = 0
    for c in reversed(coeffs):
        out = out * p + c % p
    return out


class FiniteField(Frozen):
    """F_{p^f}: the prime field when no modulus is given, else residues
    modulo a caller-supplied monic irreducible polynomial (validated here
    by exhaustive trial division). Fields compare by p and modulus; the
    tables of an extension field are derived data, built once per process
    and shared by equal fields, so a pickle or deep copy carries only
    (p, modulus) and looks them up again; a shallow copy is the field itself."""

    __slots__ = ("p", "degree", "modulus", "_exp", "_log", "_zech")

    def __init__(self, p, modulus=None):
        check_prime(p, "field characteristic must be prime")
        if modulus is None:
            super().__init__(p, 1, None, None, None, None)
            return
        mod = tuple(x % p for x in check_ints(modulus, "modulus entries must be ints"))
        if len(mod) < 3:
            raise ValidationError("extension modulus must have degree >= 2")
        if mod[-1] != 1:
            raise ValidationError("extension modulus must be monic")
        f = len(mod) - 1
        # f past the cap's bit length is above the cap already at p = 2, so the
        # power stops there instead of computing a huge p**f
        check_cap(p ** min(f, _FIELD_TABLE_CAP.bit_length()), _FIELD_TABLE_CAP, "field table")
        super().__init__(p, f, mod, *_field_tables(p, mod))

    def __reduce__(self):
        return (FiniteField, (self.p, self.modulus))

    def __copy__(self):
        return self

    @property
    def order(self):
        return self.p**self.degree

    def __repr__(self):
        if self.degree == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, modulus={self.modulus!r})"

    def element(self, value):
        index = self._residue(value)
        return value if isinstance(value, FqElement) else _fq(self, index)

    def _residue(self, value):
        """The index of a coefficient tuple or list, an int, or an element of
        this field; anything else raises ValidationError. A tuple is read in
        one pass, each entry checked and folded into the index; one longer
        than the degree is refused before any folding, after its type check."""
        if isinstance(value, (tuple, list)):  # ~144 reads per witt-ring op, ~287 entries
            if len(value) > self.degree:
                check_ints(value, "coefficients must be ints")
                raise ValidationError(
                    f"coefficient tuple longer than extension degree {self.degree}"
                )
            p, index = self.p, 0
            for x in reversed(value):
                if type(x) is not int:  # exact ints skip the call
                    check_int(x, "coefficients must be ints")
                index = index * p + x % p
            return index
        if isinstance(value, FqElement):
            if value.field is not self and value.field != self:
                raise ValidationError("element belongs to a different field")
            return value.index
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise ValidationError("element must be an int or a coefficient tuple")

    @property
    def zero(self):
        return _fq(self, 0)

    @property
    def one(self):
        return _fq(self, 1)

    def elements(self):
        """All q elements, lexicographic on coefficient tuples."""
        return (_fq(self, i) for i in self._indices())

    def _indices(self):
        p = self.p
        return (_index(coeffs, p) for coeffs in itertools.product(range(p), repeat=self.degree))

    # index-level arithmetic, used by FqElement and the Witt ring: % p in a
    # prime field; in an extension, g**i * g**j = g**(i+j) and
    # g**i + g**j = g**(i + zech[j-i])

    def _add(self, u, v):
        if self._log is None:
            return (u + v) % self.p
        if not u or not v:
            return u or v
        n, log = len(self._exp), self._log
        z = self._zech[(log[v] - log[u]) % n]
        return 0 if z is None else self._exp[(log[u] + z) % n]

    def _neg(self, u):
        if self._log is None:
            return -u % self.p
        if not u or self.p == 2:
            return u
        n = len(self._exp)
        return self._exp[(self._log[u] + n // 2) % n]  # -1 = g**(n/2)

    def _mul(self, u, v):
        if self._log is None:
            return u * v % self.p
        if not u or not v:
            return 0
        return self._exp[(self._log[u] + self._log[v]) % len(self._exp)]

    def _pow(self, u, e):
        # e >= 0, and 0**0 = 1
        if self._log is None:
            return pow(u, e, self.p)
        if not u:
            return 0 if e else 1
        return self._exp[self._log[u] * e % len(self._exp)]

    def _inv(self, u):
        if self._log is None:
            return pow(u, -1, self.p)
        return self._exp[-self._log[u] % len(self._exp)]

    def _frobenius(self, u):
        return u if self._log is None else self._pow(u, self.p)


class FqElement(Frozen):
    """Immutable residue, stored as its index; mixed-field arithmetic is
    rejected. The field must be a FiniteField and the index an int in
    [0, q - 1], else ValidationError; FiniteField.element reads any residue."""

    __slots__ = ("field", "index")

    def __init__(self, field, index):
        if not isinstance(field, FiniteField):
            raise ValidationError("expected a FiniteField")
        message = "element index must be an int in [0, q - 1]"
        super().__init__(field, check_int(index, message, low=0, high=field.order - 1))

    @property
    def coeffs(self):
        return _digits(self.index, self.field.p, self.field.degree)

    def _match(self, other):
        if not isinstance(other, FqElement):
            raise ValidationError("expected an FqElement operand")
        if other.field is not self.field and other.field != self.field:
            raise ValidationError("mixed base fields rejected")
        return other

    def __add__(self, other):
        other = self._match(other)
        return _fq(self.field, self.field._add(self.index, other.index))

    def __sub__(self, other):
        other = self._match(other)
        field = self.field
        return _fq(field, field._add(self.index, field._neg(other.index)))

    def __neg__(self):
        return _fq(self.field, self.field._neg(self.index))

    def __mul__(self, other):
        other = self._match(other)
        return _fq(self.field, self.field._mul(self.index, other.index))

    def __pow__(self, exponent):
        if check_int(exponent, "exponent must be an int") < 0:
            return self.inverse() ** (-exponent)
        return _fq(self.field, self.field._pow(self.index, exponent))

    def inverse(self):
        if not self.index:
            raise ValidationError("zero is not invertible")
        return _fq(self.field, self.field._inv(self.index))

    @property
    def is_zero(self):
        return not self.index

    def lift(self):
        """Integer representative in [0, p); prime fields only."""
        if self.field.degree != 1:
            raise ValidationError("integer lift needs a prime field")
        return self.index

    def __repr__(self):
        if self.field.degree == 1:
            return f"FqElement({self.index} mod {self.field.p})"
        return f"FqElement({self.coeffs!r} over {self.field!r})"


class WittRing(Frozen):
    """W2 over a fixed finite field; carries come from a memo keyed by one
    residue, at most q entries, which starts empty in every ring.

    Equal rings have equal fields: the memo is a cache, not part of the value.
    """

    __slots__ = ("field", "_carry_coeffs", "_carry_memo")

    def __init__(self, field):
        if not isinstance(field, FiniteField):
            raise ValidationError("expected a FiniteField")
        coeffs = None  # the F_p carry reads no coefficients, at any p
        if field.degree > 1:  # c_k lies in the prime field, whose indices are 0..p-1
            coeffs = tuple(ck % field.p for ck in carry_coefficients(field.p))
        super().__init__(field, coeffs, {})

    def element(self, a0, a1):
        residue = self.field._residue
        return _pair(self, residue(a0), residue(a1))

    @property
    def zero(self):
        return _pair(self, 0, 0)

    @property
    def one(self):
        return _pair(self, 1, 0)

    def teichmuller(self, a):
        return self.element(a, 0)

    def elements(self):
        """All q**2 pairs, lexicographic."""
        order = list(self.field._indices())
        return (_pair(self, i0, i1) for i0 in order for i1 in order)

    def carry(self, a0, b0):
        """P_p(a0, b0), each read as WittRing.element reads it; see carry_index."""
        residue = self.field._residue
        return _fq(self.field, self._carry_index(residue(a0), residue(b0)))

    def carry_index(self, a, b):
        """P_p on residue indices a and b, each an int in [0, q - 1], else
        ValidationError; see _carry_index."""
        q = self.field.order
        message = "carry indices must be ints in [0, q - 1]"
        return self._carry_index(check_int(a, message, low=0, high=q - 1),
                                 check_int(b, message, low=0, high=q - 1))

    def _carry_index(self, a, b):
        """P_p on residue indices, unchecked (the pair operators' path), from a
        memo of at most q entries per ring.

        Over F_p the indices are the residues, so P_p is
        (a^p + b^p - (a+b)^p) / p read in Z/p^2; u^p mod p^2 depends only on
        u mod p, so the memo maps each residue u to it. Over an extension,
        P_p = b^p h(a/b) with h(t) = -sum_k c_k t^k, and the memo maps log t to
        log h(t) (None where h(t) = 0), each built by Horner's rule in t, one
        field multiplication and one addition per c_k; P_p is 0 when a or b is."""
        field, memo = self.field, self._carry_memo
        p = field.p
        if field._log is None:
            pp = p * p
            try:
                return (memo[a] + memo[b] - memo[(a + b) % p]) % pp // p
            except KeyError:
                pa, pb, ps = (memo.setdefault(u, pow(u, p, pp)) for u in (a, b, (a + b) % p))
                return (pa + pb - ps) % pp // p
        if not a or not b:
            return 0
        log, n = field._log, len(field._exp)
        lb = log[b]
        lt = (log[a] - lb) % n
        try:
            lh = memo[lt]
        except KeyError:
            add, mul, t, h = field._add, field._mul, field._exp[lt], 0
            for ck in reversed(self._carry_coeffs):
                h = add(mul(h, t), ck)
            lh = memo[lt] = log[field._neg(mul(h, t))]
        return 0 if lh is None else field._exp[(lh + p * lb) % n]

    def __repr__(self):
        return f"WittRing({self.field!r})"


class WittPair(Frozen):
    """One length-2 Witt vector, stored as the residue indices i0 and i1 of
    its components; a0 and a1 build the field elements on read. The ring must
    be a WittRing and each index an int in [0, q - 1], else ValidationError;
    WittRing.element reads any residues."""

    __slots__ = ("ring", "i0", "i1")

    def __init__(self, ring, i0, i1):
        if not isinstance(ring, WittRing):
            raise ValidationError("expected a WittRing")
        q, message = ring.field.order, "pair indices must be ints in [0, q - 1]"
        super().__init__(ring, check_int(i0, message, low=0, high=q - 1),
                         check_int(i1, message, low=0, high=q - 1))

    @property
    def a0(self):
        return _fq(self.ring.field, self.i0)

    @property
    def a1(self):
        return _fq(self.ring.field, self.i1)

    def _match(self, other):
        if not isinstance(other, WittPair):
            raise ValidationError("expected a WittPair operand")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValidationError("mixed Witt rings rejected")
        return other

    def __add__(self, other):
        other = self._match(other)
        ring, add = self.ring, self.ring.field._add
        carry = ring._carry_index(self.i0, other.i0)
        return _pair(ring, add(self.i0, other.i0), add(add(self.i1, other.i1), carry))

    def __neg__(self):
        # solve x + y = 0 with the same universal carry; for odd p the carry
        # term vanishes, for p = 2 it contributes a0**2
        ring, field = self.ring, self.ring.field
        m0 = field._neg(self.i0)
        carry = ring._carry_index(self.i0, m0)
        return _pair(ring, m0, field._neg(field._add(self.i1, carry)))

    def __sub__(self, other):
        return self + -self._match(other)

    def __mul__(self, other):
        other = self._match(other)
        field = self.ring.field
        mul, frob = field._mul, field._frobenius
        a0, a1, b0, b1 = self.i0, self.i1, other.i0, other.i1
        return _pair(self.ring, mul(a0, b0),
                     field._add(mul(frob(a0), b1), mul(frob(b0), a1)))

    def frobenius(self):
        frob = self.ring.field._frobenius
        return _pair(self.ring, frob(self.i0), frob(self.i1))

    def verschiebung(self):
        return _pair(self.ring, 0, self.i0)

    def ghost(self):
        """First ghost component in Z/p^2; prime fields only."""
        field = self.ring.field
        if field.degree != 1:
            raise ValidationError("integer lift needs a prime field")
        pp = field.p * field.p
        return (pow(self.i0, field.p, pp) + field.p * self.i1) % pp

    def times(self, k):
        """k-fold sum (k >= 0) in closed form, with no carry and a cost
        independent of k.

        The ghost map sends (a0, a1) to (a0, a0^p + p a1) and is additive, so
        k (a0, a1) = (b0, b1) with b0 = k a0 and b0^p + p b1 = k (a0^p + p a1),
        that is b1 = k a1 + ((k - k^p) / p) a0^p, an identity of integer
        polynomials and so valid over every F_q, p = 2 included. k and
        (k - k^p) / p enter only mod p, the latter through k mod p^2, and the
        indices 0..p-1 are the prime field in every F_q."""
        check_int(k, "repetition count must be an int >= 0", low=0)
        field = self.ring.field
        p, mul = field.p, field._mul
        kp, ck = k % p, (k - pow(k, p, p * p)) % (p * p) // p
        return _pair(self.ring, mul(kp, self.i0),
                     field._add(mul(kp, self.i1), mul(ck, field._frobenius(self.i0))))

    def __repr__(self):
        return f"WittPair({self.a0!r}, {self.a1!r})"


# The package's own builds skip the checks: their operands are a field or ring
# and indices it produced. The setters are unrolled, as Frozen allows for
# heavy traffic: ~95 FqElement and ~135 WittPair builds per witt-ring op.
_new = object.__new__
_set_field, _set_index = FqElement._setters
_set_ring, _set_i0, _set_i1 = WittPair._setters


def _fq(field, index):
    x = _new(FqElement)
    _set_field(x, field)
    _set_index(x, index)
    return x


def _pair(ring, i0, i1):
    x = _new(WittPair)
    _set_ring(x, ring)
    _set_i0(x, i0)
    _set_i1(x, i1)
    return x
