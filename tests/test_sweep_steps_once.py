"""A sweep row costs its arithmetic: each shape step runs once, a row computes
only its two degree sums, a report builds its terms on read, and rows stream
while the range is still being tested."""

import contextlib
import copy
import io
import pickle
import sys

import pytest

import torbound.bounds
import torbound.chern
import torbound.combinatorics
import torbound.errors
import torbound.primes
import torbound.series
from torbound import BoundInput, BoundReport, bound_shape, cli, torsion_bound
from torbound.bounds import PexTerm
from torbound.primes import DETERMINISTIC_LIMIT

SHAPE = (12, 6, (1, 2, 3, 1, 2, 3), 2)


def sweep_argv(n, c, exps, d, lo, hi, fmt="csv"):
    return ["bound", "--n", str(n), "--c", str(c), "--e-list", ",".join(map(str, exps)),
            "--degL", str(d), "--format", fmt, "--sweep-p", f"{lo}:{hi}"]


def count_pex_terms(monkeypatch):
    built = []
    real = PexTerm.__init__

    def counted(self, *args):
        built.append(args[0])
        real(self, *args)

    monkeypatch.setattr(PexTerm, "__init__", counted)
    return built


def test_csv_sweep_builds_no_pex_term(monkeypatch, capsys):
    built = count_pex_terms(monkeypatch)
    assert cli.main(sweep_argv(*SHAPE, 31105, 31400)) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) > 30
    assert built == []


def test_json_sweep_builds_the_terms_it_prints(monkeypatch, capsys):
    built = count_pex_terms(monkeypatch)
    assert cli.main(sweep_argv(*SHAPE, 31105, 31200, fmt="json")) == 0
    rows = capsys.readouterr().out.splitlines()
    dim = SHAPE[0] - SHAPE[1]
    assert len(built) == len(rows) * (dim + 1)


def unread_and_read(n, c, exps, d, p):
    shape = bound_shape(n, c, exps, d)
    unread, read = shape.report(p), shape.report(p)
    assert read.terms == shape.terms(p)
    return shape, unread, read


@pytest.mark.parametrize("n, c, exps, d, p", [
    (3, 2, (1, 2), 1, 7),
    (4, 2, (2, 2), 1, 97),
    (*SHAPE, 31139),
])
def test_unread_terms_are_the_same_value(n, c, exps, d, p):
    shape, unread, read = unread_and_read(n, c, exps, d, p)
    assert unread == read and hash(unread) == hash(read)
    for make in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        shape, unread, read = unread_and_read(n, c, exps, d, p)
        twin = make(unread)
        assert type(twin) is BoundReport
        assert twin == read and hash(twin) == hash(read)
        assert twin.terms == unread.terms == shape.terms(p)
    shape, unread, read = unread_and_read(n, c, exps, d, p)
    assert repr(unread) == repr(read)
    given = BoundReport(*(getattr(read, name) for name in BoundReport.__slots__))
    assert given == unread and repr(given) == repr(unread)
    assert pickle.loads(pickle.dumps(given)) == pickle.loads(pickle.dumps(unread))


def test_reading_the_terms_builds_them_once(monkeypatch):
    shape = bound_shape(*SHAPE)
    report = shape.report(31139)
    built = count_pex_terms(monkeypatch)
    first = report.terms
    assert len(built) == SHAPE[0] - SHAPE[1] + 1
    assert report.terms is first and len(built) == SHAPE[0] - SHAPE[1] + 1
    assert pickle.loads(pickle.dumps(report)).terms == first
    # a second reader that found the slot unset while the first built it
    # builds an equal tuple instead of failing
    assert report.__getattr__("terms") == first
    with pytest.raises(AttributeError, match="has no attribute 'termz'"):
        report.termz


def test_the_first_row_is_written_before_the_last_candidate_is_tested(monkeypatch):
    out = io.StringIO()
    rows_written = []   # data rows on stdout as each candidate is tested
    real = torbound.primes.is_prime

    def counted(q):
        rows_written.append(max(out.getvalue().count("\n") - 1, 0))
        return real(q)

    monkeypatch.setattr(torbound.primes, "is_prime", counted)
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(sweep_argv(*SHAPE, 31105, 31400)) == 0
    assert rows_written[0] == 0 and rows_written[-1] > 0


def test_a_range_across_the_witness_limit_writes_nothing(capsys):
    # five primes lie below the limit, but the range is refused before any row
    argv = ["bound", "--n", "2", "--c", "1", "--e", "1", "--degL", "1", "--format", "csv",
            "--sweep-p", f"{DETERMINISTIC_LIMIT - 301}:{DETERMINISTIC_LIMIT + 5}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {DETERMINISTIC_LIMIT} is beyond the "
                                       f"deterministic witness range (< {DETERMINISTIC_LIMIT})\n")


def test_bound_shape_makes_no_deg_cotangent_call(monkeypatch):
    # bound_shape reads c_1 from its own order-(n - c) series: it calls no
    # deg_cotangent and builds none of the order-1 series deg_cotangent builds
    calls = []
    for module, name in [(torbound.chern, "deg_cotangent"),
                         (torbound.bounds, "_normal_series"),
                         (torbound.chern, "_normal_series")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append((name, args[-1])) or real(*args))
    shape = bound_shape(*SHAPE)
    assert calls == [("_normal_series", SHAPE[0] - SHAPE[1])]
    assert shape.deg_cotangent == sum(SHAPE[2]) * 36 * SHAPE[3]
    calls.clear()  # the same recorder sees deg_cotangent's work
    assert torbound.chern.deg_cotangent(*SHAPE) == shape.deg_cotangent
    assert calls == [("deg_cotangent", SHAPE[3]), ("_normal_series", 1)]


def test_bound_shape_checks_the_cotangent_degree_on_its_own_series(monkeypatch, capsys):
    # c_1 is read from the order-(n - c) series, so corrupting it there fires
    # the cotangent check, the first one bound_shape runs
    real = torbound.bounds._normal_series

    def corrupted(exps, order):
        series = real(exps, order)
        coeffs = list(series.coefficients)
        coeffs[1] += 1
        return torbound.TruncatedSeries(coeffs, order=order)

    monkeypatch.setattr(torbound.bounds, "_normal_series", corrupted)
    with pytest.raises(torbound.InternalConsistencyError, match="cotangent degree disagrees"):
        bound_shape(*SHAPE)
    assert cli.main(sweep_argv(*SHAPE, 31105, 31400)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal consistency failure: cotangent degree")


def report_auto(n, c, exps, d):
    return torsion_bound(BoundInput(n, c, exps, d))


def report_explicit(n, c, exps, d):
    return torsion_bound(BoundInput(n, c, exps, d, p=1000003))


def csv_sweep(n, c, exps, d):
    # at c = 1000 the threshold is 16 * 1000 = 16000; the range holds primes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(sweep_argv(n, c, exps, d, 15900, 16200)) == 0
    assert out.getvalue().count("\n") > 10


# every public entry point of the shape path, called at (n, c, exps, d); p is
# a prime past every threshold the shapes below reach
EXPONENT_READERS = {
    "bound_shape": bound_shape,
    "threshold_debarre": torbound.threshold_debarre,
    "deg_cotangent": torbound.deg_cotangent,
    "top_integral": torbound.top_integral,
    "pex_terms": lambda n, c, exps, d: torbound.pex_terms(n, c, exps, d, 1000003),
    "deg_pex": lambda n, c, exps, d: torbound.deg_pex(n, c, exps, d, 1000003, "paper"),
    "pex_closed_form_general":
        lambda n, c, exps, d: torbound.pex_closed_form_general(n, c, exps, d, 1000003, "dual"),
    "report_auto": report_auto,
    "report_explicit": report_explicit,
    "csv_sweep": csv_sweep,
    "chern_tangent": lambda n, c, exps, d: torbound.chern_tangent(c, exps, n - c),
    "segre_cotangent": lambda n, c, exps, d: torbound.segre_cotangent(n - c, c, exps, n - c),
}


@pytest.mark.parametrize("entry", list(EXPONENT_READERS))
def test_each_entry_point_checks_each_exponent_once(monkeypatch, entry):
    # each public entry point checks its arguments once, then runs private
    # bodies on the checked values: one check_int call per exponent, plus
    # O(1) for n, c, d, p and series indices (n - c = 4)
    calls = []
    real = torbound.errors.check_int

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (torbound.errors, torbound.bounds, torbound.chern, torbound.combinatorics,
                   torbound.primes, torbound.series, cli):
        monkeypatch.setattr(module, "check_int", counted)
    c = 1000
    EXPONENT_READERS[entry](c + 4, c, (1,) * c, 1)
    assert 1 <= len(calls) / c < 2


@pytest.mark.parametrize("entry", ["bound_shape", "threshold_debarre", "report_auto",
                                   "report_explicit", "pex_terms", "deg_pex",
                                   "pex_closed_form_general", "csv_sweep"])
def test_each_bound_entry_point_checks_n_and_c_once(monkeypatch, entry):
    calls = []
    real = torbound.chern._check_codimension

    def counted(n, c):
        calls.append((n, c))
        return real(n, c)

    for module in (torbound.bounds, torbound.chern):
        monkeypatch.setattr(module, "_check_codimension", counted)
    EXPONENT_READERS[entry](8, 4, (1, 2, 3, 4), 1)
    assert calls == [(8, 4)]


@pytest.mark.parametrize("run", [report_auto, report_explicit, csv_sweep])
def test_the_bound_path_computes_its_threshold_once(monkeypatch, run):
    # the threshold comes from its closed form, and the shape runs its
    # two-route check once, on its own series: no threshold_debarre,
    # deg_cotangent or order-1 series
    calls = []
    for module, name in [(torbound.bounds, "threshold_debarre"),
                         (torbound.chern, "deg_cotangent"),
                         (torbound.bounds, "_cotangent_degree"),
                         (torbound.chern, "_cotangent_degree")]:
        real = getattr(module, name)

        def recorded(*args, real=real, name=name):
            # a cotangent-degree check is recorded by the order of its series
            calls.append(f"order {args[2].order}" if name == "_cotangent_degree" else name)
            return real(*args)

        monkeypatch.setattr(module, name, recorded)
    n, c, exps, d = 1004, 1000, (1,) * 1000, 1
    run(n, c, exps, d)
    assert calls == [f"order {n - c}"]
    calls.clear()  # the same recorder sees the threshold entry points' work
    assert torbound.bounds.threshold_debarre(n, c, exps, d) == 16000
    assert torbound.chern.deg_cotangent(n, c, exps, d) == 1000
    assert calls == ["threshold_debarre", "order 1", "deg_cotangent", "order 1"]
