"""Torsion-point bound assembly and the supporting threshold machinery.

The headline quantity is a Bezout-style product: the degree of the image of
the ambient abelian variety under multiplication by p, times the degree of a
projectivized jet bundle attached to X. The jet-bundle degree is computed by
two fully independent routes (a combinatorial closed form and a Segre-series
route) that must agree exactly, and under two sign conventions ("paper" keeps
the literal alternating sum, "dual" flips the sign of the scaling variable);
both are always reported, never adjudicated.

The closed form reads its inner sums, the paper's double composition sums,
as elementary symmetric values (inverting twice gives the series back), in
time polynomial in n - c; the composition-sum kernel serves only the tests,
as the definition the closed forms are checked against.
"""

import functools
import itertools
import math
from fractions import Fraction

from .chern import _check_codimension, _check_exponents, _cotangent_degree, _normal_series
from .combinatorics import _closed_forms
from .errors import Frozen, ValidationError, check_cap, check_int, check_routes, digits
from .primes import check_prime, next_prime, primes_from

CONVENTIONS = ("paper", "dual")
MODES = ("paper", "dual", "both")

FLAG_PAPER_NONPOSITIVE = "paper_mode_nonpositive"
FLAG_E_BELOW_SIMPLE = "e_below_simple_threshold"
FLAG_UNIFORM_CHECKED = "uniform_specialization_checked"

# Shape work is polynomial in n - c, led by the Segre route's quadratic
# series inversions: bound_shape(2k, k, (e,)*k, 1) takes 0.46 s at k = 512
# with e = 1 and 0.72 s with e = 2 (2-vCPU Xeon, CPython 3.11).
MAX_BOUND_DIMENSION = 512
# Cost also grows with the exponents' size: a shape's series hold n - c + 1
# integers of up to about B = (n - c) * max(bits) + sum(bits) bits, bits
# being the exponents' bit lengths. The cap bounds (n - c + 1) * B; at
# n - c = c = 512 it admits e <= 3 (1.0 s at e = 3). Worst admitted case
# measured: bound_shape(525312, 525311, (1,)*525311, 1), median 0.4-0.6 s of
# 5, with one check_int call per exponent (same machine).
MAX_BOUND_BITS = 513 * 2048


def _validate_bound_shape(n, c, exponents, d):
    _check_codimension(n, c)
    # n - c >= 1 and every bit length is >= 1, so the size below is at least
    # 2 * (c + 1): a c the cap cannot admit is refused before any exponent is read
    check_cap(2 * (c + 1), MAX_BOUND_BITS, "bound size")
    exps = _check_exponents(c, exponents)
    check_int(d, "degL >= 1 violated", low=1)
    if 2 * c < n:
        raise ValidationError("2c >= n violated")
    dim = check_cap(n - c, MAX_BOUND_DIMENSION, "bound dimension")
    bits = [e.bit_length() for e in exps]
    check_cap((dim + 1) * (dim * max(bits) + sum(bits)), MAX_BOUND_BITS, "bound size")
    return exps


def _column(convention):
    if convention not in CONVENTIONS:
        raise ValidationError("convention must be paper|dual")
    return CONVENTIONS.index(convention)


def threshold_debarre(n, c, exponents, d):
    """Prime threshold for the torsion bound: (n-c)**2 times the cotangent degree."""
    exps = _validate_bound_shape(n, c, exponents, d)
    return (n - c) ** 2 * _cotangent_degree(exps, d, _normal_series(exps, 1).invert())


def _threshold(n, c, exps, d):
    # threshold_debarre's closed form on checked exponents; bound_shape checks it
    return (n - c) ** 2 * sum(exps) * math.prod(exps) * d


def threshold_lemma_p(n_dim, deg_omega):
    """Prime threshold for the slope argument: dim**2 times the cotangent degree."""
    check_int(n_dim, "dimension >= 1 violated", low=1)
    check_int(deg_omega, "cotangent degree >= 1 violated", low=1)
    return n_dim**2 * deg_omega


class PexTerm(Frozen):
    """One h-indexed row of the jet-bundle degree sum, both conventions."""

    __slots__ = ("h", "binom_coeff", "inner_sum", "term_paper", "term_dual")


def _closed_form_rows(n, c, exps, d, uniform):
    # The h-loop of both closed forms, free of p: row h, m = n - c - h, is
    # (h, binom, inner, coeff) with coeff = binom(2(n-c), h) * inner *
    # e**(n-h) * d (uniform) or * prod(e_j) * d (general), the coefficient of
    # (sigma p)**m with sigma = -1 (paper) or +1 (dual). inner is the paper's
    # double composition sum; it inverts the inverse of prod(1 + e_j t), so it
    # is e_m, or binom(c, m) when uniform. The returned w_table is that
    # inverse. exps are checked: the symmetric tables take them as they are
    dim = n - c
    inners, table = _closed_forms(dim, c, None if uniform else exps)
    scale = exps[0] if uniform else 1  # e**(n-h) = e**c * e**m
    weight = math.prod(exps) * d
    rows = []
    for h in range(dim + 1):
        m = dim - h
        binom = math.comb(2 * dim, h)
        rows.append((h, binom, inners[m], binom * inners[m] * weight * scale**m))
    return tuple(rows), table


def _terms(rows, dim, p):
    # The PexTerm rows of p-free rows at p, in both conventions. Row h takes
    # p**m, m = dim - h, from one descending chain of powers; the paper term
    # is the dual one with its sign flipped for odd m.
    terms = []
    power = p**dim
    for h, binom, inner, coeff in rows:
        dual = coeff * power
        terms.append(PexTerm(h, binom, inner, -dual if (dim - h) & 1 else dual, dual))
        power //= p
    return tuple(terms)


def _degree_sums(rows, p):
    # (paper, dual) degree of p-free rows at p: Horner's rule at -p and at p
    paper = dual = 0
    for _, _, _, coeff in rows:
        paper = coeff - paper * p
        dual = dual * p + coeff
    return paper, dual


def pex_closed_form_uniform(n, c, e, d, p, convention):
    """Jet-bundle degree, literal alternating-sum closed form, equal exponents."""
    check_int(c, "1 <= c <= n-1 violated")  # range takes only an int c, of any size
    return _pex_closed_form(n, c, (e for _ in range(c)), d, p, convention, True)


def pex_closed_form_general(n, c, exponents, d, p, convention):
    """Jet-bundle degree, closed form for arbitrary exponent sequences."""
    return _pex_closed_form(n, c, exponents, d, p, convention, False)


def _pex_closed_form(n, c, exponents, d, p, convention, uniform):
    exps = _validate_bound_shape(n, c, exponents, d)
    check_prime(p, "p must be prime")
    column = _column(convention)
    rows, _ = _closed_form_rows(n, c, exps, d, uniform)
    return _degree_sums(rows, p)[column]


def _pex_geometric(tangent, ti, convention):
    # Segre-series route as a polynomial in p (entry m is the coefficient of
    # p**m): invert the cotangent Chern series, the tangent one at t -> -t
    # (paper), or the tangent one itself (dual), pair against the binomial
    # expansion of the mixed polarization, integrate (ti is the top
    # integral). Scaling t -> p*t commutes with inversion, so the p-scaled
    # Segre coefficient m is p**m times the unscaled one.
    dim = tangent.order
    base = tangent.scale_variable(-1) if convention == "paper" else tangent
    segre = base.invert()
    return tuple(
        math.comb(2 * dim, dim - m) * segre.coefficient(m) * ti
        for m in range(dim + 1)
    )


def pex_terms(n, c, exponents, d, p):
    """Per-h term table of the jet-bundle degree, verified in both conventions.

    The rows of bound_shape evaluated at p: built free of p and verified
    before they are evaluated (see bound_shape), once per distinct shape per
    process (see SHAPE_MEMO_SIZE). Any disagreement raises
    InternalConsistencyError.
    """
    exps = _validate_bound_shape(n, c, exponents, d)
    check_prime(p, "p must be prime")
    return _terms(_shape(n, c, exps, d).rows, n - c, p)


def deg_pex(n, c, exponents, d, p, convention):
    """Jet-bundle degree under one sign convention: a column sum of pex_terms.

    bound_shape checks both columns against the Segre-series route.
    """
    column = _column(convention)
    exps = _validate_bound_shape(n, c, exponents, d)
    check_prime(p, "p must be prime")
    return _degree_sums(_shape(n, c, exps, d).rows, p)[column]


def deg_abelian_bound(n, d, p):
    """Degree bound for the image of the abelian variety under times-p: p**(2n)*d.

    Its exponent 2n is held to the bound size cap, which admits every n a
    report reaches, at most 525312."""
    check_int(n, "n >= 1 violated", low=1)
    check_int(d, "degL >= 1 violated", low=1)
    check_prime(p, "p must be prime")
    return p ** check_cap(2 * n, MAX_BOUND_BITS, "bound size") * d


def _validate_prime(p, threshold):
    # the one admission rule: a prime above the threshold, or "auto", the least
    if p == "auto":
        return next_prime(threshold)
    check_prime(check_int(p, "p must be an int or 'auto'"), "p must be prime")
    if not p > threshold:
        raise ValidationError(f"p > threshold violated (threshold {digits(threshold)})")
    return p


class BoundInput(Frozen):
    """Validated input for the torsion bound pipeline.

    p is either an explicit prime strictly above the threshold or the string
    "auto" (smallest admissible prime is chosen). All comparisons are strict;
    equality with a threshold is rejected.
    """

    __slots__ = ("n", "c", "exponents", "d", "p", "mode")

    def __init__(self, n, c, exponents, d, p="auto", mode="both"):
        exps = _validate_bound_shape(n, c, exponents, d)
        if mode not in MODES:
            raise ValidationError("mode must be paper|dual|both")
        if p != "auto":
            _validate_prime(p, _threshold(n, c, exps, d))
        super().__init__(n, c, exps, d, p, mode)

    @property
    def uniform(self):
        return len(set(self.exponents)) == 1


class _TermsSource(Frozen):  # the rows a BoundReport builds its terms from on read
    __slots__ = ("_rows",)


class BoundReport(_TermsSource):
    """Full audit trail of one torsion-bound computation.

    A report that a BoundShape assembles builds terms, the PexTerm rows at
    prime_used, on first read: its value, ==, hash, pickle, copy and repr
    are those of a report built with the terms given.
    """

    __slots__ = ("n", "c", "exponents", "d", "p_request", "mode", "threshold",
                 "prime_used", "deg_cotangent", "w_table", "terms", "deg_pex_paper",
                 "deg_pex_dual", "deg_abelian", "bound_paper", "bound_dual", "flags")

    def __getattr__(self, name):
        # reached only for an unset slot: terms not read yet, or no such field
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # _rows stays set, so a second thread that reads terms meanwhile
        # builds an equal tuple instead of failing
        terms = _terms(self._rows, self.n - self.c, self.prime_used)
        BoundReport.terms.__set__(self, terms)
        return terms


class BoundShape(Frozen):
    """Everything in a torsion-bound report that does not depend on p.

    rows[h] is (h, binom, inner, coeff) with term_dual = coeff * p**m and
    term_paper = coeff * (-p)**m, m = n - c - h: the jet-bundle degree is an
    integer polynomial in p of degree n - c. bound_shape runs every check
    once, so a report at any prime is one evaluation of the rows.
    """

    __slots__ = ("n", "c", "exponents", "d", "threshold", "deg_cotangent",
                 "w_table", "rows")

    @property
    def uniform(self):
        return len(set(self.exponents)) == 1

    def terms(self, p):
        """The PexTerm rows at p, which must be prime."""
        return _terms(self.rows, self.n - self.c, check_prime(p, "p must be prime"))

    def report(self, p_request="auto", mode="both"):
        """The report at p_request: a prime above the threshold, or "auto"."""
        if mode not in MODES:
            raise ValidationError("mode must be paper|dual|both")
        return self._assemble(p_request, _validate_prime(p_request, self.threshold), mode)

    def _assemble(self, p_request, prime_used, mode):
        # the report at an admissible prime_used, mode checked, its terms left
        # to build on read
        n, c, exps, d = self.n, self.c, self.exponents, self.d
        pex_paper, pex_dual = _degree_sums(self.rows, prime_used)
        deg_ab = prime_used ** (2 * n) * d  # deg_abelian_bound; p is checked by callers
        bound_paper = deg_ab * pex_paper
        bound_dual = deg_ab * pex_dual
        flags = set()
        if bound_paper <= 0:
            flags.add(FLAG_PAPER_NONPOSITIVE)
        if self.uniform:
            flags.add(FLAG_UNIFORM_CHECKED)
            if exps[0] <= n:
                flags.add(FLAG_E_BELOW_SIMPLE)
        report = BoundReport(n, c, exps, d, p_request, mode, self.threshold, prime_used,
                             self.deg_cotangent, self.w_table, None, pex_paper, pex_dual,
                             deg_ab, bound_paper, bound_dual, frozenset(flags))
        BoundReport.terms.__delete__(report)
        _TermsSource._rows.__set__(report, self.rows)
        return report


def bound_shape(n, c, exponents, d):
    """Build and verify the p-free part of the torsion bound for one shape.

    Checks the exponents once and builds one tangent Chern series, of order
    n - c. Runs each check once: the cotangent-degree integral (c_1 read
    from that series), the uniform specialization (constant exponents),
    w_table against that series and, in both conventions, the closed form
    against the Segre route as polynomials in p, coefficient by coefficient.
    For constant exponents the uniform closed form's rows and w_table are
    kept. Every call builds and verifies anew; torsion_bound, deg_pex,
    pex_terms and a CLI report reuse a verified shape instead.
    """
    return _bound_shape(n, c, _validate_bound_shape(n, c, exponents, d), d)


def _bound_shape(n, c, exps, d):
    # bound_shape on checked exponents
    dim = n - c
    tangent = _normal_series(exps, dim).invert()  # one series for every check below
    deg_cot = _cotangent_degree(exps, d, tangent)
    ti = math.prod(exps) * d  # top_integral
    rows, w_table = _closed_form_rows(n, c, exps, d, False)
    scale = 1
    if len(set(exps)) == 1:
        uniform, uniform_table = _closed_form_rows(n, c, exps, d, True)
        check_routes("uniform specialization", ("uniform", tuple(u[3] for u in uniform)),
                     ("general", tuple(g[3] for g in rows)), "h={}")
        # the uniform table inverts (1+t)**c; t -> e*t gives prod(1 + e t)
        rows, w_table, scale = uniform, uniform_table, exps[0]
    check_routes("w_table", ("closed form", tuple(w * scale**i for i, w in enumerate(w_table))),
                 ("tangent series", tangent.coefficients), "t**{}")
    for convention, sign in zip(CONVENTIONS, (-1, 1)):
        closed = tuple(rows[dim - m][3] * sign**m for m in range(dim + 1))
        check_routes(f"jet-bundle degree ({convention})", ("closed form", closed),
                     ("geometric", _pex_geometric(tangent, ti, convention)), "p**{}")
    # the threshold is threshold_debarre's, from the checked deg_cot
    return BoundShape(n, c, exps, d, dim**2 * deg_cot, deg_cot, w_table, rows)


# Verified shapes kept per process, least recently used dropped first. The
# traffic: one shape evaluated at many primes, by a sweep per shape in one
# process (the prime-sweep benchmark cycles 3 shapes) or by deg_pex,
# pex_terms and torsion_bound at the same shape. Worst case kept: 8 shapes,
# each one a caller has built already. A shape's exponent tuple has at most
# 525311 entries, about 4 MB at the cap; its rows carry n - c + 1 multiples
# of degL, which has no cap (a 20000-digit degL at n - c = 512 holds 4.7 MB).
SHAPE_MEMO_SIZE = 8


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _verified_shape(n, c, exps, d):
    # a failed check raises and stores nothing, so it fails again next call
    return _bound_shape(n, c, exps, d)


def _shape(n, c, exps, d):
    # _bound_shape through the memo, on exact ints only: a hit is then the
    # value, repr and field types a fresh build gives, never an int subclass
    # an earlier caller passed
    if type(n) is type(c) is type(d) is int and all(type(e) is int for e in exps):
        return _verified_shape(n, c, exps, d)
    return _bound_shape(n, c, exps, d)


def torsion_bound(inp):
    """Assemble the torsion-point bound report for a validated input.

    The shape is built and verified once per process and reused at every
    prime (see SHAPE_MEMO_SIZE).
    """
    if not isinstance(inp, BoundInput):
        raise ValidationError("expected a BoundInput")
    n, c, exps, d = inp.n, inp.c, inp.exponents, inp.d
    # find the auto prime, or refuse it, before any shape work; an explicit
    # p was checked against the threshold by BoundInput
    prime_used = inp.p
    if prime_used == "auto":
        prime_used = next_prime(_threshold(n, c, exps, d))
    return _shape(n, c, exps, d)._assemble(inp.p, prime_used, inp.mode)


def _sweep(n, c, exps, d, lo, hi, mode):
    # The reports at each admissible prime in [lo, hi], streamed as primes_from
    # finds them, mode checked; the shape is built and verified, or read from
    # the memo, once a first prime is found.
    exps = _validate_bound_shape(n, c, exps, d)
    primes = primes_from(max(lo, _threshold(n, c, exps, d) + 1), hi)
    q = next(primes, None)
    if q is None:
        return ()
    shape = _shape(n, c, exps, d)
    return (shape._assemble(p, p, mode) for p in itertools.chain((q,), primes))


class SlopeChainReport(Frozen):
    """Exact-rational audit of the slope inequality chain."""

    __slots__ = ("dim", "deg_omega", "p", "threshold", "mu_min", "mu_max",
                 "above_degree_threshold", "above_semistable_bound", "slope_inequality")

    @property
    def all_ok(self):
        return self.above_degree_threshold and self.above_semistable_bound and self.slope_inequality


def verify_slope_chain(n_dim, deg_omega, p):
    """Check the three inequalities the slope argument reduces to.

    Extremal slopes for a rank <= dim subsheaf of a cotangent bundle of
    degree deg_omega: minimum 1/dim, maximum deg_omega - 1. All arithmetic
    is exact rational.
    """
    threshold = threshold_lemma_p(n_dim, deg_omega)
    check_prime(p, "p must be prime")
    mu_min = Fraction(1, n_dim)
    mu_max = Fraction(deg_omega - 1)
    return SlopeChainReport(n_dim, deg_omega, p, threshold, mu_min, mu_max, p > threshold,
                            p > 2 * n_dim - 1, (p + 1 - n_dim) * mu_min > n_dim * mu_max)
