"""Acceptance suite: one test per criterion, exact values, wall-clock budgets.

Each test prints one pass/fail line through the conftest hook. Random choices
are seeded so every run exercises the identical inputs.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from kernel import inverse_series_coeff, w_coeff, z_coeff

from torbound import (
    BoundInput,
    FiniteField,
    TruncatedSeries,
    WittRing,
    deg_abelian_bound,
    deg_cotangent,
    deg_pex,
    next_prime,
    pex_closed_form_general,
    pex_closed_form_uniform,
    sym_complete,
    sym_elementary,
    threshold_debarre,
    threshold_lemma_p,
    torsion_bound,
    verify_slope_chain,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds}s"


def grid_cases():
    """Shared parameter grid: every (n, c), uniform exponents 1..6 plus 20
    seeded non-constant sequences, primes {2,3,5,101}, degrees {1,3}."""
    rng = random.Random(20240817)
    for n in range(2, 9):
        for c in range((n + 1) // 2, n):
            seqs = [(e,) * c for e in range(1, 7)]
            made = 0
            while made < 20:
                seq = tuple(rng.randint(1, 6) for _ in range(c))
                if c > 1 and len(set(seq)) == 1:
                    continue
                seqs.append(seq)
                made += 1
            yield n, c, seqs


def test_criterion_01_w_coefficient_closed_form():
    with budget(1.0):
        for c in range(1, 11):
            base = TruncatedSeries((1, 1), order=12)
            power = TruncatedSeries.one(12)
            for _ in range(c):
                power = power * base
            oracle = power.invert()
            for m in range(1, 13):
                w = w_coeff(m, c)
                assert w == (-1) ** m * math.comb(c + m - 1, m)
                assert w == oracle.coefficient(m)


def test_criterion_02_double_inversion_identities():
    with budget(2.0):
        for c in range(1, 6):
            for m in range(0, 9):
                head = tuple(w_coeff(i, c) for i in range(1, m + 1))
                assert inverse_series_coeff(head, m) == math.comb(c, m)
        rng = random.Random(411)
        for _ in range(50):
            c = rng.randint(1, 5)
            exps = tuple(rng.randint(1, 9) for _ in range(c))
            for m in range(0, 9):
                head = tuple(z_coeff(i, exps) for i in range(1, m + 1))
                assert inverse_series_coeff(head, m) == sym_elementary(exps, m)


def test_criterion_03_z_coefficient_identity():
    with budget(2.0):
        rng = random.Random(959)
        for c in range(1, 6):
            for _ in range(25):
                exps = tuple(rng.randint(1, 9) for _ in range(c))
                for i in range(0, 9):
                    assert z_coeff(i, exps) == (-1) ** i * sym_complete(exps, i)


def test_criterion_04_deg_pex_path_agreement():
    # deg_pex raises InternalConsistencyError (CLI exit 3) on any mismatch
    # between its closed-form and Segre-series routes
    with budget(30.0):
        evaluated = 0
        for n, c, seqs in grid_cases():
            for exps in seqs:
                for p in (2, 3, 5, 101):
                    for d in (1, 3):
                        paper = deg_pex(n, c, exps, d, p, "paper")
                        dual = deg_pex(n, c, exps, d, p, "dual")
                        assert isinstance(paper, int) and isinstance(dual, int)
                        evaluated += 1
        assert evaluated == 16 * 26 * 8


def test_criterion_05_headline_instantiation():
    with budget(1.0):
        rep = torsion_bound(BoundInput(2, 1, (2,), 1, p=5))
        assert rep.deg_pex_paper == -16
        assert rep.deg_pex_dual == 24
        assert rep.deg_abelian == 625
        assert rep.bound_paper == -10000
        assert "paper_mode_nonpositive" in rep.flags
        assert rep.bound_dual == 15000
        assert deg_pex(2, 1, (2,), 1, 5, "paper") == -16
        assert deg_abelian_bound(2, 1, 5) == 625


def test_criterion_06_threshold_reproduction():
    with budget(1.0):
        t = threshold_debarre(4, 2, (3, 3), 2)
        assert t == (4 - 2) ** 2 * 2 * 3 ** (2 + 1) * 2 == 432
        assert next_prime(t) == 433
        t2 = threshold_lemma_p(2, 9)
        assert t2 == 36
        assert next_prime(t2) == 37
        assert deg_cotangent(2, 1, (3,), 1) == 1 * 3 ** (1 + 1) * 1 == 9


def test_criterion_07_uniform_multidegree_consistency():
    for n, c, seqs in grid_cases():
        uniform_seqs = [s for s in seqs if len(set(s)) == 1]
        for exps in uniform_seqs:
            e = exps[0]
            for d in (1, 3):
                assert (
                    threshold_debarre(n, c, exps, d)
                    == (n - c) ** 2 * c * e ** (c + 1) * d
                )
                for p in (2, 3, 5, 101):
                    for conv in ("paper", "dual"):
                        via_uniform = pex_closed_form_uniform(n, c, e, d, p, conv)
                        via_general = pex_closed_form_general(n, c, exps, d, p, conv)
                        assert via_uniform == via_general
                        assert via_uniform == deg_pex(n, c, exps, d, p, conv)
                        ab = deg_abelian_bound(n, d, p)
                        assert ab * via_uniform == ab * via_general


def test_criterion_08_slope_chain_sufficiency():
    with budget(2.0):
        for n in range(1, 11):
            for deg_omega in range(1, 51):
                p = next_prime(n * n * deg_omega)
                rep = verify_slope_chain(n, deg_omega, p)
                assert rep.above_degree_threshold
                assert rep.above_semistable_bound
                assert rep.slope_inequality
                assert rep.all_ok


def test_criterion_09_witt_ring():
    with budget(10.0):
        for p in (2, 3, 5):
            ring = WittRing(FiniteField(p))
            elems = list(ring.elements())
            zero, one = ring.zero, ring.one
            for x in elems:
                assert x + zero == x
                assert x * one == x
                assert x + (-x) == zero
            for x in elems:
                for y in elems:
                    assert x + y == y + x
                    assert x * y == y * x
            for x in elems:
                for y in elems:
                    for z in elems:
                        assert (x + y) + z == x + (y + z)
                        assert (x * y) * z == x * (y * z)
                        assert x * (y + z) == x * y + x * z
            for x in elems:
                assert x.verschiebung().frobenius() == x.times(p)
                assert x.frobenius().verschiebung() == x.times(p)
        for p in (2, 3, 5, 7):
            ring = WittRing(FiniteField(p))
            elems = list(ring.elements())
            images = [x.ghost() for x in elems]
            assert sorted(images) == list(range(p * p))
            ghost = dict(zip(elems, images))
            for x in elems:
                assert x.ghost() % p == pow(x.a0.lift(), p, p)
                for y in elems:
                    assert (x + y).ghost() == (ghost[x] + ghost[y]) % p**2
                    assert (x * y).ghost() == (ghost[x] * ghost[y]) % p**2


DOCUMENTED_COMMANDS = (
    ("bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1", "--p", "5"),
    ("bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1", "--p", "5",
     "--format", "json"),
    ("bound", "--n", "3", "--c", "2", "--e", "1", "--degL", "1", "--p", "auto",
     "--format", "json"),
    ("bound", "--n", "3", "--c", "2", "--e", "1", "--degL", "1", "--p", "auto",
     "--format", "csv"),
    ("bound", "--n", "4", "--c", "2", "--e-list", "2,3", "--degL", "1",
     "--format", "json"),
    ("bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
     "--sweep-p", "5:20", "--format", "json"),
    ("threshold", "--kind", "debarre", "--n", "4", "--c", "2", "--e", "3",
     "--degL", "2"),
    ("threshold", "--kind", "debarre", "--n", "2", "--c", "1", "--e", "1",
     "--degL", "1"),
    ("threshold", "--kind", "lemma-p", "--n", "2", "--deg-omega", "9"),
    ("series", "invert", "--coeffs", "1,1", "--order", "3"),
    ("series", "wtable", "--c", "3", "--max-m", "3"),
    ("series", "ztable", "--e-list", "1,2", "--max-i", "2"),
    ("witt", "--p", "3", "--op", "add", "--a", "1,0", "--b", "2,0"),
)


def run_command(argv):
    return subprocess.run(
        [sys.executable, "-m", "torbound", *argv],
        capture_output=True, timeout=60,
    )


def test_criterion_10_cli_determinism():
    with budget(5.0):
        json_outputs = []
        for argv in DOCUMENTED_COMMANDS:
            first = run_command(argv)
            second = run_command(argv)
            assert first.returncode == 0, (argv, first.stderr)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            assert first.stderr == second.stderr
            if "json" in argv:
                json_outputs.append((argv, first.stdout))
        # round trip: parse every JSON report, recompute, compare all fields
        for argv, blob in json_outputs:
            for line in blob.decode().splitlines():
                doc = json.loads(line)
                rep = torsion_bound(
                    BoundInput(
                        int(doc["n"]),
                        int(doc["c"]),
                        tuple(int(e) for e in doc["e"]),
                        int(doc["degL"]),
                        p=int(doc["prime_used"]),
                    )
                )
                assert str(rep.threshold) == doc["threshold"]
                assert str(rep.deg_cotangent) == doc["deg_cotangent"]
                assert [str(w) for w in rep.w_table] == doc["w_table"]
                assert str(rep.deg_pex_paper) == doc["deg_pex_paper"]
                assert str(rep.deg_pex_dual) == doc["deg_pex_dual"]
                assert str(rep.deg_abelian) == doc["deg_abelian"]
                assert str(rep.bound_paper) == doc["bound_paper"]
                assert str(rep.bound_dual) == doc["bound_dual"]
                assert sorted(rep.flags) == doc["flags"]
                got_terms = [
                    {
                        "h": str(t.h),
                        "binom": str(t.binom_coeff),
                        "inner": str(t.inner_sum),
                        "term_paper": str(t.term_paper),
                        "term_dual": str(t.term_dual),
                    }
                    for t in rep.terms
                ]
                assert got_terms == doc["inner_sums"]
