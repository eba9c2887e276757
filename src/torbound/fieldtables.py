"""Exp, log and Zech tables of an extension field F_p[x]/(m), built once per field.

`witt.FiniteField` imports this module when it builds its first extension
field, so importing torbound, or running a command that needs no extension
field, compiles and loads none of it. A residue is its index in 0..q-1,
whose base-p digits, lowest first, are its coefficients. The schoolbook
`poly_mul` is the reference the tables are built from and tested against.
"""

import itertools

from .errors import InternalConsistencyError
from .witt import _digits


def poly_mod(num, den, p):
    # remainder of num by monic den over F_p; both dense low-to-high lists
    num = [x % p for x in num]
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        coeff = num[k]
        if coeff:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - coeff * den[j]) % p
    return num[:dd]


def is_irreducible(modulus, p):
    f = len(modulus) - 1
    if modulus[0] == 0 and f > 1:
        return False  # divisible by x
    for deg in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            if not any(poly_mod(list(modulus), den, p)):
                return False
    return True


def poly_mul(u, v, p, modulus):
    """Schoolbook product of two coefficient tuples modulo the monic modulus:
    the reference that the field tables are built from and tested against."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] += a * b
    return tuple(poly_mod(prod, modulus, p))


def poly_pow(u, e, p, modulus):
    # e >= 1: no product with one, no square past the top bit
    out = None
    while True:
        if e & 1:
            out = u if out is None else poly_mul(out, u, p, modulus)
        e >>= 1
        if not e:
            return out
        u = poly_mul(u, u, p, modulus)


def prime_powers(n):
    """(r, e) for each prime power r**e exactly dividing n, by trial division."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            e = 0
            while n % r == 0:
                n //= r
                e += 1
            out.append((r, e))
        r += 1
    if n > 1:
        out.append((n, 1))
    return out


def cycle(h, p, modulus):
    """[h**0, h**1, ...] as indices, up to the first return to 1, in one walk
    of the F_p-linear map "multiply by h". The walk keeps the digits packed k
    bits apart. Two half tables give the image and the index of the low and
    the high digits; the halves add without carries between digits, and one
    masked subtraction brings every digit sum below 2p back below p."""
    f = len(modulus) - 1
    k = (p - 1).bit_length() + 1
    spread = [1 << (k * i) for i in range(f)]
    top = sum(spread) << (k - 1)
    lift = sum(spread) * ((1 << (k - 1)) - p)  # digit + lift sets its top bit iff digit >= p

    def reduce(s):
        return s - (((s + lift) & top) >> (k - 1)) * p

    x = _digits(p, p, f)
    cols, col = [], h
    for _ in range(f):
        cols.append(sum(d * w for d, w in zip(col, spread)))
        col = poly_mul(col, x, p, modulus)

    def half(lo, hi):
        # image and index of each vector on digits lo..hi-1, keyed by its packed digits
        size = 1 << (k * (hi - lo))
        image, index = [0] * size, [0] * size
        keys = [0]
        for j in range(lo, hi):
            for key in list(keys):
                im, ix = image[key], index[key]
                for d in range(1, p):
                    im, ix = reduce(im + cols[j]), ix + p**j
                    nxt = key + d * spread[j - lo]
                    image[nxt], index[nxt] = im, ix
                    keys.append(nxt)
        return image, index

    lo_image, lo_index = half(0, f // 2)
    hi_image, hi_index = half(f // 2, f)
    shift = k * (f // 2)
    mask = (1 << shift) - 1
    out, packed = [], 1
    for _ in range(p**f - 1):  # a unit returns to 1 within q - 1 steps
        lo, hi = packed & mask, packed >> shift
        out.append(lo_index[lo] + hi_index[hi])
        s = lo_image[lo] + hi_image[hi]  # reduce(s), inlined in the hot loop
        packed = s - (((s + lift) & top) >> (k - 1)) * p
        if packed == 1:
            break
    return out


def exp_table(p, modulus):
    """[g**0, ..., g**(q-2)] as indices, for a primitive element g.

    Walk x first. For each r**e exactly dividing q - 1 that the order of x
    holds, x**((q-1)/r**e) has order r**e, a lookup in that walk; for every
    other r**e, take the first h = x + 1, x + 2, ... with h**((q-1)/r) != 1,
    so that h**((q-1)/r**e) has order r**e. The product of these has order
    q - 1, and one more walk lists its powers.
    """
    f = len(modulus) - 1
    n = p**f - 1
    powers = cycle(_digits(p, p, f), p, modulus)
    m = len(powers)
    if m == n:
        return powers
    one = _digits(1, p, f)
    c, g = 0, None
    for r, e in prime_powers(n):
        if m % r**e == 0:
            c += n // r**e
            continue
        for h in range(p + 1, n + 1):
            y = poly_pow(_digits(h, p, f), n // r**e, p, modulus)
            if poly_pow(y, r ** (e - 1), p, modulus) != one:
                g = y if g is None else poly_mul(g, y, p, modulus)
                break
    return cycle(poly_mul(_digits(powers[c % m], p, f), g, p, modulus), p, modulus)


def tables(p, modulus):
    """(exp, log, zech) of F_p[x]/(modulus) over a primitive element g:
    exp[i] = g**i, log[exp[i]] = i (log[0] is None), and
    zech[i] = log(1 + g**i) (None where 1 + g**i = 0)."""
    q = p ** (len(modulus) - 1)
    exp = exp_table(p, modulus)
    log = [None] * q
    for i, v in enumerate(exp):
        log[v] = i
    if len(exp) != q - 1 or None in log[1:]:
        raise InternalConsistencyError("the field tables miss a residue")
    # adding 1 steps the lowest digit
    zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
    return tuple(exp), tuple(log), tuple(zech)
