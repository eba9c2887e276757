"""A verified shape's row plan: derived data outside the value, read by every
report path, whose one Horner pass in p**2 gives the degree in both sign
conventions exactly as the rows' literal powers do."""

import copy
import pickle
import random

from torbound import (BoundInput, BoundShape, bound_shape, deg_pex, pex_closed_form_general,
                      torsion_bound)
from torbound.bounds import (FLAG_E_BELOW_SIMPLE, FLAG_PAPER_NONPOSITIVE,
                             FLAG_UNIFORM_CHECKED, _sweep)
from torbound.primes import next_prime, primes_from


def literal_degrees(shape, p):
    # (paper, dual): sum of coeff * (-p)**m and of coeff * p**m, m = n - c - h
    dim = shape.n - shape.c
    return (sum(coeff * (-p) ** (dim - h) for h, _, _, coeff in shape.rows),
            sum(coeff * p ** (dim - h) for h, _, _, coeff in shape.rows))


def assert_report_reads_the_rows(shape, report, p):
    n, c, exps, d = shape.n, shape.c, shape.exponents, shape.d
    paper, dual = literal_degrees(shape, p)
    assert (report.prime_used, report.deg_pex_paper, report.deg_pex_dual) == (p, paper, dual)
    assert report.deg_abelian == p ** (2 * n) * d
    assert report.bound_paper == report.deg_abelian * paper
    assert report.bound_dual == report.deg_abelian * dual
    uniform = len(set(exps)) == 1
    expected = {FLAG_PAPER_NONPOSITIVE} if report.bound_paper <= 0 else set()
    if uniform:
        expected.add(FLAG_UNIFORM_CHECKED)
        if exps[0] <= n:
            expected.add(FLAG_E_BELOW_SIMPLE)
    assert report.flags == expected and type(report.flags) is frozenset


def seeded_shapes():
    # n - c from 1 to 40, uniform and mixed exponents, degL from 1 to 3, with
    # exponents small enough that every prime tested stays below the
    # deterministic primality limit
    rng = random.Random(20261022)
    for dim in range(1, 41):
        c = rng.randint(dim, dim + 3)
        exps = [1] * c
        for j in rng.sample(range(c), min(c, 8)):
            exps[j] = rng.randint(1, 4)
        if dim % 3 == 0:
            exps = [rng.randint(1, 4 if c < 20 else 2)] * c
        yield dim + c, c, tuple(exps), rng.randint(1, 3)
    # uniform shapes whose paper degree is 0 at p = 2 and negative at some
    # primes, and uniform exponents equal to n and just above it
    yield 2, 1, (1,), 1
    yield 10, 5, (2,) * 5, 1
    yield 4, 2, (4, 4), 1
    yield 5, 3, (6, 6, 6), 1


def test_every_report_path_reads_the_rows_at_several_primes():
    seen = set()
    for n, c, exps, d in seeded_shapes():
        shape = bound_shape(n, c, exps, d)
        primes = list(primes_from(shape.threshold + 1, shape.threshold + 200))[:3]
        primes.append(next_prime(shape.threshold * 1000 + 7))
        for p in primes:
            paper, dual = literal_degrees(shape, p)
            report = shape.report(p)
            assert_report_reads_the_rows(shape, report, p)
            assert torsion_bound(BoundInput(n, c, exps, d, p=p)) == report
            assert (deg_pex(n, c, exps, d, p, "paper"), deg_pex(n, c, exps, d, p, "dual")) \
                == (paper, dual)
            assert (pex_closed_form_general(n, c, exps, d, p, "paper"),
                    pex_closed_form_general(n, c, exps, d, p, "dual")) == (paper, dual)
            seen |= report.flags | {f"no {flag}" for flag in
                                    {FLAG_PAPER_NONPOSITIVE, FLAG_UNIFORM_CHECKED,
                                     FLAG_E_BELOW_SIMPLE} - report.flags}
        swept = list(_sweep(n, c, exps, d, primes[0], primes[2], "both"))
        assert [report.prime_used for report in swept] == primes[:3]
        for report in swept:
            assert_report_reads_the_rows(shape, report, report.prime_used)
    # every flag was seen both set and unset
    assert len(seen) == 6, seen


def test_the_identity_holds_at_the_dimension_cap():
    shape = bound_shape(1024, 512, (1,) * 512, 1)
    p = next_prime(shape.threshold)
    assert_report_reads_the_rows(shape, shape.report(p), p)


def test_the_plan_stays_out_of_the_value():
    shape = bound_shape(8, 4, (2, 2, 2, 2), 1)
    other = BoundShape(*(getattr(shape, name) for name in shape._fields), None)
    assert other._plan is None and shape._plan is not None
    assert other == shape and hash(other) == hash(shape) and repr(other) == repr(shape)


def test_a_shape_round_trips_with_its_plan():
    shape = bound_shape(12, 6, (1, 2, 3, 1, 2, 3), 2)
    p = next_prime(shape.threshold)
    for copied in (pickle.loads(pickle.dumps(shape)), copy.deepcopy(shape)):
        assert copied == shape and copied._plan == shape._plan
        assert copied.report(p) == shape.report(p)
