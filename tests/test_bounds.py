import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel import inverse_series_coeff, w_coeff, z_coeff

import torbound.bounds
import torbound.chern
import torbound.primes
from torbound.bounds import PexTerm
from torbound import (
    BoundInput,
    CapacityError,
    InternalConsistencyError,
    TruncatedSeries,
    ValidationError,
    bound_shape,
    cli,
    deg_abelian_bound,
    deg_cotangent,
    deg_pex,
    next_prime,
    pex_closed_form_general,
    pex_closed_form_uniform,
    pex_terms,
    threshold_debarre,
    threshold_lemma_p,
    top_integral,
    torsion_bound,
    verify_slope_chain,
)


class TestThresholds:
    def test_debarre_examples(self):
        assert threshold_debarre(2, 1, (1,), 1) == 1
        assert threshold_debarre(4, 2, (3, 3), 2) == 432
        assert threshold_debarre(4, 2, (2, 3), 1) == 120

    def test_lemma_p_examples(self):
        assert threshold_lemma_p(2, 9) == 36
        assert threshold_lemma_p(1, 1) == 1

    def test_lemma_p_validation(self):
        with pytest.raises(ValidationError):
            threshold_lemma_p(0, 5)
        with pytest.raises(ValidationError):
            threshold_lemma_p(3, 0)

    def test_debarre_requires_bound_shape(self):
        with pytest.raises(ValidationError):
            threshold_debarre(5, 2, (1, 1), 1)  # 2c < n


class TestBoundInput:
    def test_valid(self):
        inp = BoundInput(3, 2, (1, 1), 1, p=3)
        assert inp.uniform
        assert BoundInput(4, 2, [2, 3], 1).exponents == (2, 3)

    def test_shape_violations(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            BoundInput(1, 1, (1,), 1)
        with pytest.raises(ValidationError, match="1 <= c <= n-1"):
            BoundInput(2, 2, (1, 1), 1)
        with pytest.raises(ValidationError, match="2c >= n"):
            BoundInput(5, 2, (1, 1), 1)
        with pytest.raises(ValidationError, match="length"):
            BoundInput(3, 2, (1,), 1)
        with pytest.raises(ValidationError, match="exponents >= 1"):
            BoundInput(3, 2, (1, 0), 1)
        with pytest.raises(ValidationError, match="degL >= 1"):
            BoundInput(3, 2, (1, 1), 0)
        with pytest.raises(ValidationError, match="mode"):
            BoundInput(3, 2, (1, 1), 1, mode="loud")

    def test_shape_integers_are_strict(self):
        with pytest.raises(ValidationError, match="exponents >= 1"):
            BoundInput(2, 1, (True,), 1, p=5)
        with pytest.raises(ValidationError, match="exponents >= 1"):
            deg_cotangent(2, 1, (True,), 1)
        with pytest.raises(ValidationError, match="n >= 2"):
            top_integral(2.5, 1, (1,), 1)
        with pytest.raises(ValidationError, match="1 <= c <= n-1"):
            BoundInput(2, True, (1,), 1)
        with pytest.raises(ValidationError, match="exponents >= 1"):
            BoundInput(2, 1, (2.0,), 1)
        with pytest.raises(ValidationError, match="degL >= 1"):
            deg_cotangent(2, 1, (1,), True)

    def test_explicit_p_must_be_admissible_prime(self):
        with pytest.raises(ValidationError, match="prime"):
            BoundInput(3, 2, (1, 1), 1, p=4)
        # threshold is 2; equality is rejected, strictly above is required
        with pytest.raises(ValidationError, match="threshold"):
            BoundInput(3, 2, (1, 1), 1, p=2)
        assert BoundInput(3, 2, (1, 1), 1, p=3).p == 3


class TestDegPex:
    def test_frozen_values(self):
        assert deg_pex(2, 1, (2,), 1, 5, "paper") == -16
        assert deg_pex(2, 1, (2,), 1, 5, "dual") == 24
        assert deg_pex(3, 2, (1, 1), 1, 2, "paper") == -2
        assert deg_pex(3, 2, (1, 1), 1, 2, "dual") == 6

    def test_term_sign_structure(self):
        for exps in [(2,), (1, 1), (2, 3)]:
            c = len(exps)
            n = 2 * c
            rows = pex_terms(n, c, exps, 1, 5)
            for t in rows:
                m = n - c - t.h
                assert t.term_paper == (-1) ** m * t.term_dual

    def test_closed_forms_agree_with_deg_pex(self):
        for conv in ("paper", "dual"):
            for e in range(1, 5):
                got = pex_closed_form_uniform(4, 2, e, 3, 7, conv)
                assert got == pex_closed_form_general(4, 2, (e, e), 3, 7, conv)
                assert got == deg_pex(4, 2, (e, e), 3, 7, conv)

    def test_uniform_closed_form_rejects_non_int_c_and_e(self):
        for c, e in [(2.0, 2), (True, 2), (2, 2.0), (2, True)]:
            with pytest.raises(ValidationError):
                pex_closed_form_uniform(4, c, e, 1, 7, "paper")

    def test_uniform_closed_form_refuses_a_huge_c_by_the_codimension_rule(self):
        # c exponents are never built for a c the codimension rule refuses
        with pytest.raises(ValidationError, match=r"^1 <= c <= n-1 violated$"):
            pex_closed_form_uniform(3, 10**30, 1, 1, 5, "paper")

    def test_convention_validation(self):
        with pytest.raises(ValidationError):
            deg_pex(2, 1, (2,), 1, 5, "mixed")
        with pytest.raises(ValidationError):
            deg_pex(2, 1, (2,), 1, 6, "paper")


def test_deg_abelian_examples():
    assert deg_abelian_bound(1, 1, 2) == 4
    assert deg_abelian_bound(2, 3, 3) == 243
    assert deg_abelian_bound(2, 1, 5) == 625
    with pytest.raises(ValidationError):
        deg_abelian_bound(2, 1, 9)


def test_free_function_product_matches_worked_value():
    # p = 2 sits below this input's strict threshold, so the product is
    # reachable only through the unvalidated components
    assert deg_abelian_bound(3, 1, 2) * deg_pex(3, 2, (1, 1), 1, 2, "dual") == 384


class TestTorsionBound:
    def test_explicit_prime_report(self):
        rep = torsion_bound(BoundInput(2, 1, (2,), 1, p=5))
        assert rep.threshold == 4
        assert rep.prime_used == 5
        assert rep.deg_cotangent == 4
        assert rep.deg_pex_paper == -16
        assert rep.deg_pex_dual == 24
        assert rep.deg_abelian == 625
        assert rep.bound_paper == -10000
        assert rep.bound_dual == 15000
        assert rep.w_table == (1, -1)
        assert rep.flags == frozenset(
            {
                "paper_mode_nonpositive",
                "e_below_simple_threshold",
                "uniform_specialization_checked",
            }
        )

    def test_auto_prime_report(self):
        rep = torsion_bound(BoundInput(3, 2, (1, 1), 1))
        assert rep.threshold == 2
        assert rep.prime_used == 3
        assert rep.deg_abelian == 729
        assert rep.deg_pex_dual == 8
        assert rep.bound_dual == 5832
        assert rep.p_request == "auto"

    def test_terms_sum_to_totals(self):
        rep = torsion_bound(BoundInput(4, 2, (2, 3), 1))
        assert sum(t.term_paper for t in rep.terms) == rep.deg_pex_paper
        assert sum(t.term_dual for t in rep.terms) == rep.deg_pex_dual

    def test_w_table_contents(self):
        uni = torsion_bound(BoundInput(4, 2, (3, 3), 1))
        assert uni.w_table == tuple(w_coeff(m, 2) for m in range(3))
        gen = torsion_bound(BoundInput(4, 2, (2, 3), 1))
        assert gen.w_table == tuple(z_coeff(i, (2, 3)) for i in range(3))

    def test_flags(self):
        # uniform e above the ambient dimension: no simplicity advisory
        rep = torsion_bound(BoundInput(2, 1, (3,), 1))
        assert "e_below_simple_threshold" not in rep.flags
        assert "uniform_specialization_checked" in rep.flags
        # non-uniform input: neither uniform-side flag
        gen = torsion_bound(BoundInput(4, 2, (2, 3), 1))
        assert "uniform_specialization_checked" not in gen.flags
        assert "e_below_simple_threshold" not in gen.flags

    def test_bound_dual_positive_and_strictly_increasing_in_p(self):
        rng = random.Random(3)
        cases = [(2, 1, (2,), 1), (4, 2, (2, 3), 1), (6, 3, (1, 2, 1), 2)]
        for n, c, exps, d in cases:
            threshold = threshold_debarre(n, c, exps, d)
            p = next_prime(threshold)
            previous = None
            for _ in range(8):
                rep = torsion_bound(BoundInput(n, c, exps, d, p=p))
                assert rep.bound_dual > 0
                if previous is not None:
                    assert rep.bound_dual > previous
                previous = rep.bound_dual
                p = next_prime(p + rng.randint(0, 3))

    def test_capacity_error_propagates_from_auto_prime(self):
        big = 2 * 10**12
        with pytest.raises(CapacityError):
            torsion_bound(BoundInput(2, 1, (big,), 1))

    def test_requires_bound_input(self):
        with pytest.raises(ValidationError):
            torsion_bound((2, 1, (2,), 1))


class TestCrossChecksFire:
    """Corrupting one route must stop the report with exit code 3."""

    ARGV = ["bound", "--n", "4", "--c", "2", "--e", "2", "--degL", "1"]

    def assert_fires(self, capsys, message):
        with pytest.raises(InternalConsistencyError, match=re.escape(message)):
            torsion_bound(BoundInput(4, 2, (2, 2), 1))
        assert cli.main(self.ARGV) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: ") and message in err

    @pytest.mark.parametrize("convention", ["paper", "dual"])
    def test_segre_route(self, monkeypatch, capsys, convention):
        real = torbound.bounds._pex_geometric

        def corrupted(tangent, ti, conv):
            poly = real(tangent, ti, conv)
            return (poly[0] + 1,) + poly[1:] if conv == convention else poly

        monkeypatch.setattr(torbound.bounds, "_pex_geometric", corrupted)
        self.assert_fires(capsys, f"jet-bundle degree ({convention}) disagrees")

    @pytest.mark.parametrize("convention", ["paper", "dual"])
    def test_segre_route_checked_coefficientwise(self, monkeypatch, capsys, convention):
        # Move p0 between the p**0 and p**1 coefficients of the Segre
        # polynomial: its value at the report's prime p0 stays the same, so
        # only a coefficient-by-coefficient check can see the corruption.
        p0 = bound_shape(4, 2, (2, 2), 1).report().prime_used  # holds no shape in the memo
        real = torbound.bounds._pex_geometric

        def corrupted(tangent, ti, conv):
            poly = real(tangent, ti, conv)
            if conv != convention:
                return poly
            return (poly[0] + p0, poly[1] - 1) + poly[2:]

        def value(poly, p):
            return sum(a * p**m for m, a in enumerate(poly))

        tangent = torbound.chern.chern_tangent(2, (2, 2), 2)
        hook_args = (tangent, torbound.chern.top_integral(4, 2, (2, 2), 1), convention)
        assert value(corrupted(*hook_args), p0) == value(real(*hook_args), p0)
        monkeypatch.setattr(torbound.bounds, "_pex_geometric", corrupted)
        self.assert_fires(capsys, f"jet-bundle degree ({convention}) disagrees at p**0")

    def test_cotangent_route(self, monkeypatch, capsys):
        # one body builds every normal series: the order-1 series that
        # deg_cotangent and threshold_debarre read c_1 from, and a shape's own
        real = torbound.chern._normal_series
        orders = []

        def corrupted(exps, order):
            orders.append(order)
            coeffs = list(real(exps, order).coefficients)
            coeffs[1] += 1
            return TruncatedSeries(coeffs, order=order)

        for module in (torbound.chern, torbound.bounds):
            monkeypatch.setattr(module, "_normal_series", corrupted)
        with pytest.raises(InternalConsistencyError, match="cotangent degree disagrees"):
            deg_cotangent(4, 2, (2, 2), 1)
        argv = ["threshold", "--kind", "debarre", "--n", "4", "--c", "2", "--e", "2",
                "--degL", "1"]
        assert cli.main(argv) == 3
        assert "cotangent degree disagrees" in capsys.readouterr().err
        assert orders == [1, 1]
        self.assert_fires(capsys, "cotangent degree disagrees")
        assert orders == [1, 1, 2, 2]

    def test_uniform_route(self, monkeypatch, capsys):
        real = torbound.bounds._closed_form_rows

        def corrupted(n, c, exps, d, uniform):
            rows, table = real(n, c, exps, d, uniform)
            if uniform:
                h, binom, inner, coeff = rows[0]
                rows = ((h, binom, inner, coeff + 1),) + rows[1:]
            return rows, table

        monkeypatch.setattr(torbound.bounds, "_closed_form_rows", corrupted)
        self.assert_fires(capsys, "uniform specialization disagrees")

    def test_w_table(self, monkeypatch, capsys):
        # the rows stay intact, so only the w_table check can see it
        real = torbound.bounds._closed_form_rows

        def corrupted(n, c, exps, d, uniform):
            rows, table = real(n, c, exps, d, uniform)
            return rows, table[:1] + (table[1] + 1,) + table[2:]

        monkeypatch.setattr(torbound.bounds, "_closed_form_rows", corrupted)
        self.assert_fires(capsys, "w_table disagrees at t**1")

    def test_failing_sweep_writes_nothing(self, monkeypatch, capsys):
        real = torbound.bounds._pex_geometric

        def corrupted(tangent, ti, conv):
            poly = real(tangent, ti, conv)
            return (poly[0] + 1,) + poly[1:]

        monkeypatch.setattr(torbound.bounds, "_pex_geometric", corrupted)
        for fmt in ("csv", "json", "table"):
            assert cli.main(self.ARGV + ["--sweep-p", "60:200", "--format", fmt]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("internal consistency failure: ")


class TestBoundShape:
    """A shape is built and verified once; each prime is one evaluation."""

    SHAPES = [
        (4, 2, (2, 2), 1),
        (4, 2, (2, 3), 2),
        (6, 3, (1, 1, 1), 2),
        (6, 3, (1, 2, 1), 1),
        (5, 3, (3, 3, 3), 2),
        (7, 4, (2, 1, 3, 1), 1),
    ]

    @staticmethod
    def sweep_argv(n, c, exps, d, lo, hi, fmt="csv", mode="both"):
        return ["bound", "--n", str(n), "--c", str(c),
                "--e-list", ",".join(map(str, exps)), "--degL", str(d),
                "--mode", mode, "--format", fmt, "--sweep-p", f"{lo}:{hi}"]

    @staticmethod
    def count_builds(monkeypatch):
        # every entry point builds its shape through the one checked body
        calls = []
        real = torbound.bounds._bound_shape

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(torbound.bounds, "_bound_shape", counted)
        return calls

    @staticmethod
    def assert_builds_once(calls, argv, capsys):
        # the positive control of a "nothing was built" test: an admissible
        # sweep through the same recorder builds its shape once
        calls.clear()
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) > 1
        assert len(calls) == 1

    def test_sweep_rows_equal_single_reports(self, capsys):
        for n, c, exps, d in self.SHAPES:
            t = threshold_debarre(n, c, exps, d)
            shape = bound_shape(n, c, exps, d)
            assert shape.threshold == t
            primes, p = [], next_prime(t)
            while len(primes) < 5:
                primes.append(p)
                p = next_prime(p)
            for mode in ("paper", "dual", "both"):
                assert cli.main(self.sweep_argv(n, c, exps, d, t, primes[-1],
                                                mode=mode)) == 0
                lines = capsys.readouterr().out.splitlines()
                assert lines[0] == ",".join(cli.CSV_COLUMNS)
                singles = [torsion_bound(BoundInput(n, c, exps, d, p=q, mode=mode))
                           for q in primes]
                assert lines[1:] == [cli.report_csv_row(r) for r in singles]
                assert [shape.report(q, mode) for q in primes] == singles

    def test_k_prime_sweep_builds_the_shape_once(self, monkeypatch, capsys):
        calls = self.count_builds(monkeypatch)
        n, c, exps, d = 6, 3, (1, 2, 1), 1
        t = threshold_debarre(n, c, exps, d)
        assert cli.main(self.sweep_argv(n, c, exps, d, t, t + 200)) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) > 10
        assert calls == [(n, c, exps, d)]

    def test_terms_read_p_as_pex_terms_does(self):
        # a float, a non-prime or 0 is refused as pex_terms refuses it, never
        # evaluated into float terms or divided by
        shape = bound_shape(4, 2, (1, 1), 1)
        assert shape.terms(7) == pex_terms(4, 2, (1, 1), 1, 7)
        for p in (7.0, True, 0, 1, 9, -7):
            with pytest.raises(ValidationError) as refused:
                pex_terms(4, 2, (1, 1), 1, p)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
                shape.terms(p)
        with pytest.raises(ValidationError, match="^p must be prime$"):
            shape.terms(0)

    def test_sweep_tests_each_candidate_once(self, monkeypatch, capsys):
        # the range filter tests each odd candidate above the threshold once,
        # and the reports it streams test nothing again
        tested = []
        real = torbound.primes.is_prime

        def counted(q):
            tested.append(q)
            return real(q)

        monkeypatch.setattr(torbound.primes, "is_prime", counted)
        n, c, exps, d = 6, 3, (1, 2, 1), 1
        t = threshold_debarre(n, c, exps, d)
        assert cli.main(self.sweep_argv(n, c, exps, d, t - 50, t + 200)) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert tested == list(range((t + 1) | 1, t + 201, 2))
        assert len(rows) == sum(map(real, tested)) > 10

    def test_sweep_without_a_prime_builds_nothing(self, monkeypatch, capsys):
        # the build count, not the time (a dim-30 shape builds in about
        # 2 ms), shows that nothing is built; below the threshold (27000) and
        # between the primes 27017 and 27031 no prime is admissible
        calls = self.count_builds(monkeypatch)
        for lo, hi in [(1, 100), (27018, 27030)]:
            for fmt, expected in [("csv", ",".join(cli.CSV_COLUMNS) + "\n"),
                                  ("json", ""), ("table", "")]:
                argv = ["bound", "--n", "60", "--c", "30", "--e", "1", "--degL", "1",
                        "--format", fmt, "--sweep-p", f"{lo}:{hi}"]
                assert cli.main(argv) == 0
                assert capsys.readouterr() == (expected, "")
        assert calls == []
        self.assert_builds_once(calls, argv[:-1] + ["27000:27030"], capsys)

    def test_capacity_error_in_sweep_writes_nothing(self, monkeypatch, capsys):
        calls = self.count_builds(monkeypatch)
        big = 2 * 10**12
        argv = ["bound", "--n", "2", "--c", "1", "--e", str(big), "--degL", "1",
                "--format", "csv", "--sweep-p", f"0:{big * big + 100}"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert calls == []
        admissible = ["bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
                      "--format", "csv", "--sweep-p", "0:100"]
        self.assert_builds_once(calls, admissible, capsys)

    def test_one_tangent_series_per_shape(self, monkeypatch):
        # the w_table check and both Segre conventions share one tangent
        # series: three inversions of order n - c per shape, and the
        # cotangent degree reads c_1 at order 1
        orders = []
        real = TruncatedSeries.invert

        def counted(series):
            orders.append(series.order)
            return real(series)

        monkeypatch.setattr(TruncatedSeries, "invert", counted)
        for n, c, exps, d in self.SHAPES:
            orders.clear()
            bound_shape(n, c, exps, d)
            assert orders.count(n - c) == 3 and max(orders) == n - c
            orders.clear()
            deg_cotangent(n, c, exps, d)
            assert max(orders) <= 1

    def test_cotangent_c1_does_not_depend_on_the_order(self):
        for c in range(1, 6):
            for exps in [(1,) * c, (2,) * c, tuple(range(1, c + 1)), (7, 1, 4, 2, 9)[:c]]:
                c1 = torbound.chern.cotangent_chern(c, exps, 1).coefficient(1)
                assert c1 == sum(exps)
                for dim in range(1, 7):
                    series = torbound.chern.cotangent_chern(c, exps, dim)
                    assert series.coefficient(1) == c1

    def test_report_validates_like_bound_input(self):
        shape = bound_shape(3, 2, (1, 1), 1)
        with pytest.raises(ValidationError, match="mode"):
            shape.report(3, "loud")
        with pytest.raises(ValidationError, match="int or 'auto'"):
            shape.report(3.0)
        with pytest.raises(ValidationError, match="prime"):
            shape.report(4)
        with pytest.raises(ValidationError, match="threshold"):
            shape.report(2)
        assert shape.report() == torsion_bound(BoundInput(3, 2, (1, 1), 1))

    def test_shape_is_frozen_and_p_free(self):
        shape = bound_shape(4, 2, (2, 3), 1)
        with pytest.raises(AttributeError):
            shape.threshold = 0
        assert shape.w_table == tuple(z_coeff(i, (2, 3)) for i in range(3))
        for p in (7, 11, 13):
            assert shape.terms(p) == pex_terms(4, 2, (2, 3), 1, p)


def literal_rows(n, c, exps, d, uniform):
    # the closed form as the double composition sum: w_table from the oracle
    # (w_coeff or z_coeff), each inner the oracle over w_table[1..m]
    dim = n - c
    if uniform:
        table = tuple(w_coeff(i, c) for i in range(dim + 1))
    else:
        table = tuple(z_coeff(i, exps) for i in range(dim + 1))
    scale = exps[0] if uniform else 1
    rows = []
    for h in range(dim + 1):
        m = dim - h
        binom = math.comb(2 * dim, h)
        inner = inverse_series_coeff(table[1 : m + 1], m)
        rows.append((h, binom, inner, binom * inner * math.prod(exps) * d * scale**m))
    return tuple(rows), table


class TestClosedFormIsTheDoubleInversion:
    """Rows and w_table equal the literal double composition sum they replace."""

    def test_uniform_shapes(self):
        for dim in range(1, 11):
            for c in range(dim, 11):
                for e, d in [(1, 1), (2, 3), (5, 1)]:
                    exps = (e,) * c
                    expected = literal_rows(dim + c, c, exps, d, True)
                    got = torbound.bounds._closed_form_rows(dim + c, c, exps, d, True)
                    assert got == expected
                    shape = bound_shape(dim + c, c, exps, d)
                    assert (shape.rows, shape.w_table) == expected

    def test_general_shapes(self):
        rng = random.Random(11)
        for _ in range(80):
            dim = rng.randint(1, 10)
            c = rng.randint(dim, dim + 3)
            exps = tuple(rng.randint(1, 5) for _ in range(c))
            d = rng.randint(1, 3)
            expected = literal_rows(dim + c, c, exps, d, False)
            assert torbound.bounds._closed_form_rows(dim + c, c, exps, d, False) == expected
            if len(set(exps)) > 1:
                shape = bound_shape(dim + c, c, exps, d)
                assert (shape.rows, shape.w_table) == expected


@pytest.mark.parametrize("p", [2, 3, 31741, 10**20 + 39])
def test_rows_evaluate_to_the_literal_powers(p):
    # terms(p) and the report's degree sums against coeff * (-p)**m (paper)
    # and coeff * p**m (dual), m = n - c - h, row by row
    rng = random.Random(f"rows at {p}")
    for _ in range(40):
        dim = rng.randint(1, 10)
        c = rng.randint(dim, dim + 3)
        exps = tuple(rng.randint(1, 4) for _ in range(c))
        if rng.random() < 0.3:
            exps = (exps[0],) * c
        d = rng.randint(1, 3)
        shape = bound_shape(dim + c, c, exps, d)
        report = shape._assemble(p, p, "both")
        assert len(shape.terms(p)) == len(report.terms) == dim + 1
        for (h, binom, inner, coeff), term, reported in zip(shape.rows, shape.terms(p),
                                                             report.terms):
            m = dim - h
            assert term == PexTerm(h, binom, inner, coeff * (-p) ** m, coeff * p**m)
            assert reported == term
        assert report.deg_pex_paper == sum(t.term_paper for t in report.terms)
        assert report.deg_pex_dual == sum(t.term_dual for t in report.terms)


@pytest.mark.parametrize("p", [2, 3, 31741, 10**20 + 39])
def test_degree_functions_build_no_pex_term(monkeypatch, p):
    # deg_pex and both closed forms evaluate rows by one rule, with no term table
    expected = {}
    for n, c, exps, d in TestBoundShape.SHAPES:
        terms = pex_terms(n, c, exps, d, p)
        expected[n, c, exps, d] = {"paper": sum(t.term_paper for t in terms),
                                   "dual": sum(t.term_dual for t in terms)}
    built = []
    real = PexTerm.__init__
    monkeypatch.setattr(PexTerm, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    for (n, c, exps, d), sums in expected.items():
        for conv, value in sums.items():
            assert deg_pex(n, c, exps, d, p, conv) == value
            assert pex_closed_form_general(n, c, exps, d, p, conv) == value
            if len(set(exps)) == 1:
                assert pex_closed_form_uniform(n, c, exps[0], d, p, conv) == value
    assert built == []
    with pytest.raises(ValidationError, match="convention"):
        deg_pex(2, 1, (2,), 1, 6, "mixed")


@given(st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_closed_form_threshold_is_the_checked_one(dim, extra, data):
    c = dim + extra
    n, d = dim + c, data.draw(st.integers(1, 3))
    exps = tuple(data.draw(st.lists(st.integers(1, 4), min_size=c, max_size=c)))
    t = threshold_debarre(n, c, exps, d)
    shape = bound_shape(n, c, exps, d)
    auto = torsion_bound(BoundInput(n, c, exps, d))
    assert auto.threshold == t == shape.threshold
    q = next_prime(t)
    assert auto.prime_used == q and BoundInput(n, c, exps, d, p=q).p == q
    below = next((k for k in range(t, 1, -1) if torbound.primes.is_prime(k)), None)
    if below is not None:
        message = f"p > threshold violated (threshold {t})"
        with pytest.raises(ValidationError, match=re.escape(message)):
            BoundInput(n, c, exps, d, p=below)
        with pytest.raises(ValidationError, match=re.escape(message)):
            shape.report(below)


class TestRefusalsComeFirst:
    """Input the bound cannot handle is refused before any shape work."""

    # the bodies that do shape work: the checked shape, its series, its
    # cotangent degree (threshold_debarre's too) and its closed-form rows
    SHAPE_WORK = ("_bound_shape", "_normal_series", "_cotangent_degree", "_closed_form_rows")

    @staticmethod
    def record(monkeypatch, *names):
        calls = []
        for name in names:
            real = getattr(torbound.bounds, name)

            def recorded(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(torbound.bounds, name, recorded)
        return calls

    @staticmethod
    def assert_records_shape_work(calls):
        # the positive control of a "no work before the refusal" test:
        # admissible input through the same recorder is recorded
        bound_shape(4, 2, (1, 1), 1)  # equal exponents: general and uniform rows
        assert calls == ["_bound_shape", "_normal_series", "_cotangent_degree",
                         "_closed_form_rows", "_closed_form_rows"]
        calls.clear()
        threshold_debarre(4, 2, (1, 1), 1)
        assert calls == ["_normal_series", "_cotangent_degree"]

    def test_dimension_cap(self, monkeypatch, capsys):
        calls = self.record(monkeypatch, *self.SHAPE_WORK)
        c = torbound.bounds.MAX_BOUND_DIMENSION + 1
        message = f"bound dimension cap exceeded ({c - 1})"
        start = time.perf_counter()
        for make in [
            lambda: bound_shape(2 * c, c, (1,) * c, 1),
            lambda: threshold_debarre(2 * c, c, (1,) * c, 1),
            lambda: BoundInput(2 * c, c, (1,) * c, 1),
            lambda: pex_terms(2 * c, c, (1,) * c, 1, 3),
        ]:
            with pytest.raises(CapacityError, match=re.escape(message)):
                make()
        assert time.perf_counter() - start < 0.5
        argv = ["bound", "--n", str(2 * c), "--c", str(c), "--e", "1", "--degL", "1"]
        for extra in ([], ["--sweep-p", "1:100"]):
            assert cli.main(argv + extra) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []
        self.assert_records_shape_work(calls)

    def test_size_cap(self, monkeypatch, capsys):
        # n - c = 256 is under the dimension cap, but 333-bit exponents would
        # keep bound_shape busy for about a minute and a half
        calls = self.record(monkeypatch, *self.SHAPE_WORK)
        message = f"bound size cap exceeded ({torbound.bounds.MAX_BOUND_BITS})"
        exps = (10**100,) * 256
        start = time.perf_counter()
        for make in [
            lambda: bound_shape(512, 256, exps, 1),
            lambda: threshold_debarre(512, 256, exps, 1),
            lambda: BoundInput(512, 256, exps, 1),
            lambda: pex_terms(512, 256, exps, 1, 3),
            lambda: pex_closed_form_uniform(512, 256, 10**100, 1, 3, "dual"),
        ]:
            with pytest.raises(CapacityError, match=re.escape(message)):
                make()
        assert time.perf_counter() - start < 0.5
        argv = ["bound", "--n", "512", "--c", "256", "--e", str(10**100), "--degL", "1"]
        for extra in ([], ["--sweep-p", "1:100"]):
            assert cli.main(argv + extra) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []
        self.assert_records_shape_work(calls)
        # the cap admits n - c = 512 with exponents up to 3
        torbound.bounds._validate_bound_shape(1024, 512, (3,) * 512, 1)
        with pytest.raises(CapacityError, match=re.escape(message)):
            torbound.bounds._validate_bound_shape(1024, 512, (3,) * 511 + (4,), 1)

    def test_auto_prime_refused_before_the_shape(self, monkeypatch):
        # the threshold, 2**114, is past the deterministic witness range
        calls = self.record(monkeypatch, "_bound_shape")
        with pytest.raises(CapacityError, match="deterministic witness range"):
            torsion_bound(BoundInput(64, 32, (8,) * 32, 1))
        assert calls == []
        torsion_bound(BoundInput(4, 2, (2, 2), 1))  # an admissible auto prime
        assert calls == ["_bound_shape"]


class TestSlopeChain:
    def test_frozen_examples(self):
        rep = verify_slope_chain(3, 5, 47)
        assert rep.threshold == 45
        assert rep.above_degree_threshold
        assert rep.above_semistable_bound
        assert rep.slope_inequality
        assert rep.all_ok
        assert rep.mu_min == Fraction(1, 3)
        assert rep.mu_max == 4

    def test_smallest_case(self):
        rep = verify_slope_chain(1, 1, 2)
        assert rep.all_ok
        assert rep.mu_max == 0

    def test_failing_prime(self):
        rep = verify_slope_chain(2, 9, 31)
        assert not rep.above_degree_threshold
        assert not rep.slope_inequality
        assert rep.above_semistable_bound
        assert not rep.all_ok

    def test_validation(self):
        with pytest.raises(ValidationError):
            verify_slope_chain(0, 1, 2)
        with pytest.raises(ValidationError):
            verify_slope_chain(2, 0, 2)
        with pytest.raises(ValidationError):
            verify_slope_chain(2, 9, 35)
