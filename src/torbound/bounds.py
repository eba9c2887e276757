"""Torsion-point bound assembly and the supporting threshold machinery.

The headline quantity is a Bezout-style product: the degree of the image of
the ambient abelian variety under multiplication by p, times the degree of a
projectivized jet bundle attached to X. The jet-bundle degree is computed by
two fully independent routes (a combinatorial closed form and a Segre-series
route) that must agree exactly, and under two sign conventions ("paper" keeps
the literal alternating sum, "dual" flips the sign of the scaling variable);
both are always reported, never adjudicated.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .chern import (
    _validate_geometry,
    chern_tangent,
    cotangent_chern,
    deg_cotangent,
    top_integral,
)
from .combinatorics import inverse_series_coeff, sym_elementary, w_coeff
from .errors import InternalConsistencyError, ValidationError, check_int
from .primes import is_prime, next_prime

CONVENTIONS = ("paper", "dual")
MODES = ("paper", "dual", "both")

FLAG_PAPER_NONPOSITIVE = "paper_mode_nonpositive"
FLAG_E_BELOW_SIMPLE = "e_below_simple_threshold"
FLAG_UNIFORM_CHECKED = "uniform_specialization_checked"


def _validate_bound_shape(n, c, exponents, d):
    exps = _validate_geometry(n, c, exponents, d)
    if 2 * c < n:
        raise ValidationError("2c >= n violated")
    return exps


def _check_prime(p):
    if not is_prime(p):
        raise ValidationError("p must be prime")
    return p


def _column(convention):
    if convention not in CONVENTIONS:
        raise ValidationError("convention must be paper|dual")
    return "term_" + convention


def _column_sum(rows, column):
    return sum(getattr(r, column) for r in rows)


def threshold_debarre(n, c, exponents, d):
    """Prime threshold for the torsion bound: (n-c)**2 times the cotangent degree."""
    exps = _validate_bound_shape(n, c, exponents, d)
    return (n - c) ** 2 * deg_cotangent(n, c, exps, d)


def threshold_lemma_p(n_dim, deg_omega):
    """Prime threshold for the slope argument: dim**2 times the cotangent degree."""
    check_int(n_dim, "dimension >= 1 violated", low=1)
    check_int(deg_omega, "cotangent degree >= 1 violated", low=1)
    return n_dim**2 * deg_omega


@dataclass(frozen=True)
class PexTerm:
    """One h-indexed row of the jet-bundle degree sum, both conventions."""

    h: int
    binom_coeff: int
    inner_sum: int
    term_paper: int
    term_dual: int


def _inverse_table(exps, dim, uniform):
    # Coefficients 0..dim of the inverse of (1+t)**c (uniform route) or of
    # prod (1 + e_j t) (general route, e_1..e_dim enumerated once).
    if uniform:
        return tuple(w_coeff(m, len(exps)) for m in range(dim + 1))
    head = tuple(sym_elementary(exps, j) for j in range(1, dim + 1))
    return tuple(inverse_series_coeff(head[:i], i) for i in range(dim + 1))


def _closed_form_rows(n, c, exps, d, uniform):
    # The h-loop of both closed forms, free of p: row h, m = n - c - h, is
    # (h, binom, inner, coeff) with inner = kernel(table[1..m]) and coeff =
    # binom(2(n-c), h) * inner * e**(n-h) * d (uniform) or * prod(e_j) * d
    # (general), the coefficient of (sigma p)**m with sigma = -1 (paper) or
    # +1 (dual). Returns the rows and the inverse table they were built on.
    dim = n - c
    table = _inverse_table(exps, dim, uniform)
    scale = exps[0] if uniform else 1  # e**(n-h) = e**c * e**m
    weight = math.prod(exps) * d
    rows = []
    for h in range(dim + 1):
        m = dim - h
        binom = math.comb(2 * dim, h)
        inner = inverse_series_coeff(table[1 : m + 1], m)
        rows.append((h, binom, inner, binom * inner * weight * scale**m))
    return tuple(rows), table


def _terms(rows, dim, p):
    # Evaluate p-free rows at p in both conventions.
    return tuple(
        PexTerm(h, binom, inner, coeff * (-p) ** (dim - h), coeff * p ** (dim - h))
        for h, binom, inner, coeff in rows
    )


def pex_closed_form_uniform(n, c, e, d, p, convention):
    """Jet-bundle degree, literal alternating-sum closed form, equal exponents."""
    check_int(c, "1 <= c <= n-1 violated")  # before the tuple repetition
    exps = _validate_bound_shape(n, c, (e,) * c, d)
    _check_prime(p)
    column = _column(convention)
    rows, _ = _closed_form_rows(n, c, exps, d, True)
    return _column_sum(_terms(rows, n - c, p), column)


def pex_closed_form_general(n, c, exponents, d, p, convention):
    """Jet-bundle degree, closed form for arbitrary exponent sequences."""
    exps = _validate_bound_shape(n, c, exponents, d)
    _check_prime(p)
    column = _column(convention)
    rows, _ = _closed_form_rows(n, c, exps, d, False)
    return _column_sum(_terms(rows, n - c, p), column)


def _pex_geometric(n, c, exps, d, convention):
    # Segre-series route as a polynomial in p (entry m is the coefficient of
    # p**m): invert the cotangent Chern series (paper) or its sign-flipped
    # dual, pair against the binomial expansion of the mixed polarization,
    # integrate. Scaling t -> p*t commutes with inversion, so the p-scaled
    # Segre coefficient m is p**m times the unscaled one.
    dim = n - c
    if convention == "paper":
        base = cotangent_chern(c, exps, dim)
    else:
        base = chern_tangent(c, exps, dim)
    segre = base.invert()
    ti = top_integral(n, c, exps, d)
    return tuple(
        math.comb(2 * dim, dim - m) * segre.coefficient(m) * ti
        for m in range(dim + 1)
    )


def pex_terms(n, c, exponents, d, p):
    """Per-h term table of the jet-bundle degree, verified in both conventions.

    The rows of bound_shape evaluated at p: built free of p and verified
    before they are evaluated (see bound_shape). Any disagreement raises
    InternalConsistencyError.
    """
    exps = _validate_bound_shape(n, c, exponents, d)
    _check_prime(p)
    return bound_shape(n, c, exps, d).terms(p)


def deg_pex(n, c, exponents, d, p, convention):
    """Jet-bundle degree under one sign convention: a column sum of pex_terms.

    pex_terms checks both columns against the Segre-series route.
    """
    column = _column(convention)
    return _column_sum(pex_terms(n, c, exponents, d, p), column)


def deg_abelian_bound(n, d, p):
    """Degree bound for the image of the abelian variety under times-p: p**(2n)*d."""
    check_int(n, "n >= 1 violated", low=1)
    check_int(d, "degL >= 1 violated", low=1)
    return _check_prime(p) ** (2 * n) * d


def _validate_prime(p, threshold):
    check_int(p, "p must be an int or 'auto'")
    _check_prime(p)
    if not p > threshold:
        raise ValidationError(f"p > threshold violated (threshold {threshold})")
    return p


@dataclass(frozen=True)
class BoundInput:
    """Validated input for the torsion bound pipeline.

    p is either an explicit prime strictly above the threshold or the string
    "auto" (smallest admissible prime is chosen). All comparisons are strict;
    equality with a threshold is rejected.
    """

    n: int
    c: int
    exponents: tuple
    d: int
    p: object = "auto"
    mode: str = "both"

    def __post_init__(self):
        exps = _validate_bound_shape(self.n, self.c, self.exponents, self.d)
        object.__setattr__(self, "exponents", exps)
        if self.mode not in MODES:
            raise ValidationError("mode must be paper|dual|both")
        if self.p != "auto":
            _validate_prime(self.p, threshold_debarre(self.n, self.c, exps, self.d))

    @property
    def uniform(self):
        return len(set(self.exponents)) == 1


@dataclass(frozen=True)
class BoundReport:
    """Full audit trail of one torsion-bound computation."""

    n: int
    c: int
    exponents: tuple
    d: int
    p_request: object
    mode: str
    threshold: int
    prime_used: int
    deg_cotangent: int
    w_table: tuple
    terms: tuple
    deg_pex_paper: int
    deg_pex_dual: int
    deg_abelian: int
    bound_paper: int
    bound_dual: int
    flags: frozenset


class BoundShape:
    """Everything in a torsion-bound report that does not depend on p.

    rows[h] is (h, binom, inner, coeff) with term_dual = coeff * p**m and
    term_paper = coeff * (-p)**m, m = n - c - h: the jet-bundle degree is an
    integer polynomial in p of degree n - c. bound_shape runs every check
    once, so a report at any prime is one evaluation of the rows.

    Immutable. A plain slotted class rather than a dataclass, which would
    generate its methods at import time.
    """

    __slots__ = ("n", "c", "exponents", "d", "threshold", "deg_cotangent",
                 "w_table", "rows")

    def __init__(self, n, c, exponents, d, threshold, deg_cotangent, w_table, rows):
        values = (n, c, exponents, d, threshold, deg_cotangent, w_table, rows)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BoundShape is immutable")

    @property
    def uniform(self):
        return len(set(self.exponents)) == 1

    def terms(self, p):
        """The PexTerm rows at p."""
        return _terms(self.rows, self.n - self.c, p)

    def report(self, p_request="auto", mode="both"):
        """The report at p_request: a prime above the threshold, or "auto"."""
        if mode not in MODES:
            raise ValidationError("mode must be paper|dual|both")
        if p_request == "auto":
            prime_used = next_prime(self.threshold)
        else:
            prime_used = _validate_prime(p_request, self.threshold)
        n, exps, d = self.n, self.exponents, self.d
        terms = self.terms(prime_used)
        pex_paper = _column_sum(terms, "term_paper")
        pex_dual = _column_sum(terms, "term_dual")
        deg_ab = prime_used ** (2 * n) * d  # deg_abelian_bound; p is checked above
        bound_paper = deg_ab * pex_paper
        bound_dual = deg_ab * pex_dual
        flags = set()
        if bound_paper <= 0:
            flags.add(FLAG_PAPER_NONPOSITIVE)
        if self.uniform:
            flags.add(FLAG_UNIFORM_CHECKED)
            if exps[0] <= n:
                flags.add(FLAG_E_BELOW_SIMPLE)
        return BoundReport(
            n=n,
            c=self.c,
            exponents=exps,
            d=d,
            p_request=p_request,
            mode=mode,
            threshold=self.threshold,
            prime_used=prime_used,
            deg_cotangent=self.deg_cotangent,
            w_table=self.w_table,
            terms=terms,
            deg_pex_paper=pex_paper,
            deg_pex_dual=pex_dual,
            deg_abelian=deg_ab,
            bound_paper=bound_paper,
            bound_dual=bound_dual,
            flags=frozenset(flags),
        )


def bound_shape(n, c, exponents, d):
    """Build and verify the p-free part of the torsion bound for one shape.

    Runs the cotangent-degree integral check, the uniform specialization
    check (constant exponents) and, in both conventions, the closed form
    against the Segre route as polynomials in p, each exactly once. The
    general closed form is always built; for constant exponent sequences
    the uniform closed form is built too, asserted against it row by row,
    and its rows (and w_table) are kept.
    """
    exps = _validate_bound_shape(n, c, exponents, d)
    deg_cot = deg_cotangent(n, c, exps, d)
    rows, w_table = _closed_form_rows(n, c, exps, d, False)
    if len(set(exps)) == 1:
        uniform, uniform_table = _closed_form_rows(n, c, exps, d, True)
        for u, g in zip(uniform, rows):
            if u[3] != g[3]:
                raise InternalConsistencyError(
                    f"uniform specialization disagrees at h={u[0]}: "
                    f"coefficient {u[3]} vs {g[3]}"
                )
        rows, w_table = uniform, uniform_table
    dim = n - c
    for convention, sign in zip(CONVENTIONS, (-1, 1)):
        geometric = _pex_geometric(n, c, exps, d, convention)
        for m, segre in enumerate(geometric):
            closed = rows[dim - m][3] * sign**m
            if closed != segre:
                raise InternalConsistencyError(
                    f"jet-bundle degree ({convention}) disagrees at p**{m}: "
                    f"closed form {closed}, geometric {segre}"
                )
    return BoundShape(
        n=n,
        c=c,
        exponents=exps,
        d=d,
        threshold=(n - c) ** 2 * deg_cot,  # threshold_debarre, same deg_cot
        deg_cotangent=deg_cot,
        w_table=w_table,
        rows=rows,
    )


def torsion_bound(inp):
    """Assemble the torsion-point bound report for a validated input."""
    if not isinstance(inp, BoundInput):
        raise ValidationError("expected a BoundInput")
    return bound_shape(inp.n, inp.c, inp.exponents, inp.d).report(inp.p, inp.mode)


@dataclass(frozen=True)
class SlopeChainReport:
    """Exact-rational audit of the slope inequality chain."""

    dim: int
    deg_omega: int
    p: int
    threshold: int
    mu_min: Fraction
    mu_max: Fraction
    above_degree_threshold: bool
    above_semistable_bound: bool
    slope_inequality: bool

    @property
    def all_ok(self):
        return (
            self.above_degree_threshold
            and self.above_semistable_bound
            and self.slope_inequality
        )


def verify_slope_chain(n_dim, deg_omega, p):
    """Check the three inequalities the slope argument reduces to.

    Extremal slopes for a rank <= dim subsheaf of a cotangent bundle of
    degree deg_omega: minimum 1/dim, maximum deg_omega - 1. All arithmetic
    is exact rational.
    """
    threshold = threshold_lemma_p(n_dim, deg_omega)
    _check_prime(p)
    mu_min = Fraction(1, n_dim)
    mu_max = Fraction(deg_omega - 1)
    return SlopeChainReport(
        dim=n_dim,
        deg_omega=deg_omega,
        p=p,
        threshold=threshold,
        mu_min=mu_min,
        mu_max=mu_max,
        above_degree_threshold=p > threshold,
        above_semistable_bound=p > 2 * n_dim - 1,
        slope_inequality=(p + 1 - n_dim) * mu_min > n_dim * mu_max,
    )
