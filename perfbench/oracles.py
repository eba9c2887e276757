"""Output oracles for the benchmark, written without calling torbound.

Every expected value is recomputed from the closed forms the program
documents, with this file's own primality test, symmetric-function DPs and
Witt ghost map, so a wrong answer from the program cannot also be the
expected answer.
"""

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# README column order of `torbound bound --format csv`
CSV_HEADER = (
    "n,c,e,degL,p,threshold,deg_pex_paper,deg_pex_dual,"
    "deg_abelian,bound_paper,bound_dual,flags"
)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit):
    """flags[k] is 1 exactly when k <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = b"\x00" * min(2, limit + 1)
    for k in range(2, math.isqrt(limit) + 1):
        if flags[k]:
            flags[k * k :: k] = bytes(len(range(k * k, limit + 1, k)))
    return flags


def elementary(values):
    """[e_0, ..., e_len] of the values, by the O(len^2) product DP."""
    e = [1] + [0] * len(values)
    for v in values:
        for j in range(len(e) - 1, 0, -1):
            e[j] += v * e[j - 1]
    return e


def complete(values, top):
    """[h_0, ..., h_top] of the values, by the O(len * top) DP."""
    h = [1] + [0] * top
    for v in values:
        for j in range(1, top + 1):
            h[j] += v * h[j - 1]
    return h


def threshold(n, c, exps, d):
    """(n - c)^2 * deg Omega^1_X with deg Omega^1_X = sum(e) * prod(e) * degL."""
    return (n - c) ** 2 * sum(exps) * math.prod(exps) * d


def expected_report(n, c, exps, d, p):
    """Every number of a bound report at prime p, from the closed forms.

    deg_pex_{paper,dual} = sum_h C(2(n-c), h) (-+p)^(n-c-h) e_{n-c-h}(e)
    * prod(e) * degL; bound = p^(2n) * degL * deg_pex.
    """
    dim = n - c
    e = elementary(exps)
    weight = math.prod(exps) * d
    uniform = len(set(exps)) == 1
    terms = []
    for h in range(dim + 1):
        m = dim - h
        binom = math.comb(2 * dim, h)
        em = e[m] if m <= c else 0
        # uniform reports carry the (1+t)^c inner sums, C(c, m)
        inner = math.comb(c, m) if uniform else em
        terms.append((h, binom, inner, binom * (-p) ** m * em * weight,
                      binom * p**m * em * weight))
    paper = sum(t[3] for t in terms)
    dual = sum(t[4] for t in terms)
    deg_ab = p ** (2 * n) * d
    if uniform:
        w_table = tuple((-1) ** m * math.comb(c + m - 1, m) for m in range(dim + 1))
    else:
        hs = complete(exps, dim)
        w_table = tuple((-1) ** i * hs[i] for i in range(dim + 1))
    flags = set()
    if deg_ab * paper <= 0:
        flags.add("paper_mode_nonpositive")
    if uniform:
        flags.add("uniform_specialization_checked")
        if exps[0] <= n:
            flags.add("e_below_simple_threshold")
    return {
        "n": n,
        "c": c,
        "exponents": tuple(exps),
        "d": d,
        "threshold": threshold(n, c, exps, d),
        "prime_used": p,
        "deg_cotangent": sum(exps) * math.prod(exps) * d,
        "w_table": w_table,
        "terms": tuple(terms),
        "deg_pex_paper": paper,
        "deg_pex_dual": dual,
        "deg_abelian": deg_ab,
        "bound_paper": deg_ab * paper,
        "bound_dual": deg_ab * dual,
        "flags": frozenset(flags),
    }


def csv_row(expected):
    x = expected
    return ",".join(str(v) for v in (
        x["n"], x["c"], ";".join(map(str, x["exponents"])), x["d"], x["prime_used"],
        x["threshold"], x["deg_pex_paper"], x["deg_pex_dual"], x["deg_abelian"],
        x["bound_paper"], x["bound_dual"], ";".join(sorted(x["flags"])),
    ))


def sweep_csv(n, c, exps, d, primes):
    """Exact stdout of `bound --sweep-p ... --format csv` over the given primes."""
    rows = [CSV_HEADER] + [csv_row(expected_report(n, c, exps, d, p)) for p in primes]
    return "\n".join(rows) + "\n"


class PolyRing:
    """(Z/mod)[x] / (f) for a monic integer polynomial f, low-to-high tuples."""

    def __init__(self, f, mod):
        self.f, self.mod, self.deg = tuple(f), mod, len(f) - 1

    def mul(self, u, v):
        d = self.deg
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] += a * b
        for k in range(2 * d - 2, d - 1, -1):
            top = prod[k]
            for j in range(d):
                prod[k - d + j] -= top * self.f[j]
        return tuple(x % self.mod for x in prod[:d])

    def pow(self, u, e):
        out = (1,) + (0,) * (self.deg - 1)
        while e:
            if e & 1:
                out = self.mul(out, u)
            u = self.mul(u, u)
            e >>= 1
        return out

    def add(self, u, v, k=1):
        return tuple((a + k * b) % self.mod for a, b in zip(u, v))

    def scale(self, u, k):
        return tuple(k * a % self.mod for a in u)


class WittOracle:
    """Ghost map of W2(F_q) into A = (Z/p^2)[x]/(f~), f~ the integer lift of
    the field modulus (f~ = x for a prime field).

    w(a0, a1) = lift(a0)^p + p * lift(a1) does not depend on the lifts chosen
    and is a ring isomorphism, so every W2 sum, product, negation and
    repeated sum must map to the same operation in A.
    """

    def __init__(self, p, modulus=None):
        f = tuple(modulus) if modulus else (0, 1)
        self.p = p
        self.ghost_ring = PolyRing(f, p * p)
        self.field = PolyRing(f, p)

    def w(self, pair):
        a0, a1 = pair
        return self.ghost_ring.add(self.ghost_ring.pow(a0, self.p), a1, self.p)

    def frobenius(self, pair):
        return tuple(self.field.pow(a, self.p) for a in pair)

