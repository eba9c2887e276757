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
    frobenius_scale,
    top_integral,
)
from .combinatorics import inverse_series_coeff, sym_elementary, w_coeff
from .errors import InternalConsistencyError, ValidationError
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
    if not isinstance(n_dim, int) or n_dim < 1:
        raise ValidationError("dimension >= 1 violated")
    if not isinstance(deg_omega, int) or deg_omega < 1:
        raise ValidationError("cotangent degree >= 1 violated")
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


def _closed_form_rows(n, c, exps, d, p, uniform):
    # The h-loop of both closed forms: row h, m = n - c - h, has the inner
    # sum kernel(table[1..m]) and the term binom(2(n-c), h) * (sigma p)**m *
    # inner * e**(n-h) * d (uniform) or * prod(e_j) * d (general).
    dim = n - c
    table = _inverse_table(exps, dim, uniform)
    scale = exps[0] if uniform else 1  # e**(n-h) = e**c * e**m
    weight = math.prod(exps) * d
    rows = []
    for h in range(dim + 1):
        m = dim - h
        binom = math.comb(2 * dim, h)
        inner = inverse_series_coeff(table[1 : m + 1], m)
        base = binom * inner * weight
        rows.append(PexTerm(h, binom, inner, base * (-p * scale) ** m, base * (p * scale) ** m))
    return tuple(rows)


def pex_closed_form_uniform(n, c, e, d, p, convention):
    """Jet-bundle degree, literal alternating-sum closed form, equal exponents."""
    exps = _validate_bound_shape(n, c, (e,) * c, d)
    if not is_prime(p):
        raise ValidationError("p must be prime")
    column = _column(convention)
    return _column_sum(_closed_form_rows(n, c, exps, d, p, True), column)


def pex_closed_form_general(n, c, exponents, d, p, convention):
    """Jet-bundle degree, closed form for arbitrary exponent sequences."""
    exps = _validate_bound_shape(n, c, exponents, d)
    if not is_prime(p):
        raise ValidationError("p must be prime")
    column = _column(convention)
    return _column_sum(_closed_form_rows(n, c, exps, d, p, False), column)


def _pex_geometric(n, c, exponents, d, p, convention):
    # Segre-series route: invert the p-scaled cotangent Chern series (paper)
    # or its sign-flipped dual, pair against the binomial expansion of the
    # mixed polarization, integrate.
    exps = tuple(exponents)
    dim = n - c
    if convention == "paper":
        base = cotangent_chern(c, exps, dim)
    else:
        base = chern_tangent(c, exps, dim)
    segre = frobenius_scale(base, p).invert()
    ti = top_integral(n, c, exps, d)
    return sum(
        math.comb(2 * n - 2 * c, h) * segre.coefficient(dim - h) * ti
        for h in range(dim + 1)
    )


def pex_terms(n, c, exponents, d, p):
    """Per-h term table of the jet-bundle degree, verified in both conventions.

    The general closed form is always built. For constant exponent sequences
    the uniform closed form is built too, asserted against it row by row, and
    its rows are returned. Then the paper and the dual column sums are each
    asserted against the Segre-series route. Any disagreement raises
    InternalConsistencyError.
    """
    exps = _validate_bound_shape(n, c, exponents, d)
    if not is_prime(p):
        raise ValidationError("p must be prime")
    rows = _closed_form_rows(n, c, exps, d, p, False)
    if len(set(exps)) == 1:
        uniform = _closed_form_rows(n, c, exps, d, p, True)
        for u, g in zip(uniform, rows):
            if (u.term_paper, u.term_dual) != (g.term_paper, g.term_dual):
                raise InternalConsistencyError(
                    f"uniform specialization disagrees at h={u.h}: "
                    f"({u.term_paper}, {u.term_dual}) vs ({g.term_paper}, {g.term_dual})"
                )
        rows = uniform
    for convention in CONVENTIONS:
        total = _column_sum(rows, _column(convention))
        geometric = _pex_geometric(n, c, exps, d, p, convention)
        if total != geometric:
            raise InternalConsistencyError(
                f"jet-bundle degree ({convention}) disagrees: "
                f"closed form {total}, geometric {geometric}"
            )
    return rows


def deg_pex(n, c, exponents, d, p, convention):
    """Jet-bundle degree under one sign convention: a column sum of pex_terms.

    pex_terms checks both columns against the Segre-series route.
    """
    column = _column(convention)
    return _column_sum(pex_terms(n, c, exponents, d, p), column)


def deg_abelian_bound(n, d, p):
    """Degree bound for the image of the abelian variety under times-p: p**(2n)*d."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n >= 1 violated")
    if not isinstance(d, int) or d < 1:
        raise ValidationError("degL >= 1 violated")
    if not is_prime(p):
        raise ValidationError("p must be prime")
    return p ** (2 * n) * d


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
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValidationError("p must be an int or 'auto'")
            if not is_prime(self.p):
                raise ValidationError("p must be prime")
            t = threshold_debarre(self.n, self.c, exps, self.d)
            if not self.p > t:
                raise ValidationError(f"p > threshold violated (threshold {t})")

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


def torsion_bound(inp):
    """Assemble the torsion-point bound report for a validated input."""
    if not isinstance(inp, BoundInput):
        raise ValidationError("expected a BoundInput")
    n, c, exps, d = inp.n, inp.c, inp.exponents, inp.d
    threshold = threshold_debarre(n, c, exps, d)
    if inp.p == "auto":
        prime_used = next_prime(threshold)
    else:
        prime_used = inp.p
    deg_cot = deg_cotangent(n, c, exps, d)
    terms = pex_terms(n, c, exps, d, prime_used)
    pex_paper = _column_sum(terms, "term_paper")
    pex_dual = _column_sum(terms, "term_dual")
    deg_ab = deg_abelian_bound(n, d, prime_used)
    bound_paper = deg_ab * pex_paper
    bound_dual = deg_ab * pex_dual
    w_table = _inverse_table(exps, n - c, inp.uniform)
    flags = set()
    if bound_paper <= 0:
        flags.add(FLAG_PAPER_NONPOSITIVE)
    if inp.uniform:
        flags.add(FLAG_UNIFORM_CHECKED)
        if exps[0] <= n:
            flags.add(FLAG_E_BELOW_SIMPLE)
    return BoundReport(
        n=n,
        c=c,
        exponents=exps,
        d=d,
        p_request=inp.p,
        mode=inp.mode,
        threshold=threshold,
        prime_used=prime_used,
        deg_cotangent=deg_cot,
        w_table=w_table,
        terms=terms,
        deg_pex_paper=pex_paper,
        deg_pex_dual=pex_dual,
        deg_abelian=deg_ab,
        bound_paper=bound_paper,
        bound_dual=bound_dual,
        flags=frozenset(flags),
    )


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
    if not is_prime(p):
        raise ValidationError("p must be prime")
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
