"""A CSV sweep prints its shape's columns (n, c, e, degL, threshold) once: the
reports of one sweep hold their shape's objects, and a row reuses the columns
only for those identical objects, so every row reads as its own fields."""

import contextlib
import io

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
