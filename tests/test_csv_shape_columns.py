"""A CSV sweep prints its shape's columns (n, c, e, degL, threshold) once per
sweep, and a report's row reads its own fields; once the report and the
shape memo drop a shape, no CSV state holds its objects or columns."""

import contextlib
import gc
import io
import tracemalloc

import pytest

import torbound.bounds
from torbound import BoundReport, cli

ARGV = ["bound", "--n", "10", "--c", "5", "--e", "2", "--degL", "1",
        "--sweep-p", "8000:8400", "--format", "csv"]


def run_sweep():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ARGV) == 0
    return out.getvalue().splitlines()[1:]


def test_a_sweep_prints_its_shape_columns_once(monkeypatch):
    calls = []
    real = cli.digits
    monkeypatch.setattr(cli, "digits", lambda n: calls.append(n) or real(n))
    rows = run_sweep()
    assert len(rows) == 44
    # n, c, five exponents, degL and threshold once; six p-dependent columns a row
    assert len(calls) == 9 + 6 * len(rows)


def test_a_row_reads_its_own_fields_after_an_equal_shape():
    rows = run_sweep()
    swept = cli._sweep(10, 5, (2,) * 5, 1, 8000, 8400, "both")
    report = next(iter(swept))
    assert cli.report_csv_row(report) == rows[0]
    fields = {name: getattr(report, name) for name in BoundReport.__slots__}
    fields.update(d=True, exponents=(True, 2, 2, 2, 2), threshold=int(str(fields["threshold"])))
    hand_built = BoundReport(*fields.values())
    assert cli.report_csv_row(hand_built).startswith("10,5,True;2;2;2;2,True,8009,8000,")
    assert cli.report_csv_row(report) == rows[0]


@pytest.mark.parametrize("rows", ["--p", "--sweep-p"])
def test_no_csv_state_outlives_its_report(rows):
    # c = 20000 exponents: a tuple of 160 kB and a 40 kB e column
    c = 20000
    argv = ["bound", "--n", str(c + 1), "--c", str(c), "--e", "1", "--degL", "1",
            "--format", "csv", rows, "auto" if rows == "--p" else f"{c}:{c + 12}"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        torbound.bounds._verified_shape.cache_clear()
        gc.collect()
        return out.getvalue()

    run()  # the parser and the caches a first run fills
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run().count("\n") > 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**14
