import io
import json
import subprocess
import sys

import pytest

from torbound import cli, errors, torsion_bound, verify_slope_chain, BoundInput
from torbound.bounds import BoundShape, threshold_debarre
from torbound.witt import WittPair
from torbound.primes import DETERMINISTIC_LIMIT
from torbound.cli import (
    CSV_COLUMNS,
    EXIT_BROKEN_PIPE,
    build_parser,
    integer,
    main,
    report_csv_row,
    report_json_dict,
    report_json_line,
    report_table,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_debarre(capsys):
    code, out, err = run_cli(
        capsys, "threshold", "--kind", "debarre",
        "--n", "4", "--c", "2", "--e", "3", "--degL", "2",
    )
    assert code == 0
    assert out == "432 433\n"
    assert err == ""


def test_threshold_lemma_p(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--kind", "lemma-p",
                           "--n", "2", "--deg-omega", "9")
    assert code == 0
    assert out == "36 37\n"


def test_threshold_minimal(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--kind", "debarre",
                           "--n", "2", "--c", "1", "--e", "1", "--degL", "1")
    assert code == 0
    assert out == "1 2\n"


def test_threshold_missing_flags(capsys):
    code, _, err = run_cli(capsys, "threshold", "--kind", "lemma-p", "--n", "2")
    assert code == 2
    assert "deg-omega" in err


def test_series_invert(capsys):
    code, out, _ = run_cli(capsys, "series", "invert",
                           "--coeffs", "1,1", "--order", "3")
    assert code == 0
    assert out == "1,-1,1,-1\n"


def test_series_invert_exact_length(capsys):
    code, out, _ = run_cli(capsys, "series", "invert",
                           "--coeffs", "1,2,1", "--order", "2")
    assert code == 0
    assert out == "1,-2,3\n"


def test_series_invert_nonunit_rejected(capsys):
    code, _, err = run_cli(capsys, "series", "invert",
                           "--coeffs", "2,1", "--order", "2")
    assert code == 2
    assert "constant term" in err


def test_series_invert_malformed_coeffs(capsys):
    code, _, err = run_cli(capsys, "series", "invert",
                           "--coeffs", "1,x", "--order", "2")
    assert code == 2
    assert "integer list" in err


def exact_digits(n):
    # str(n) past CPython's 4300-digit limit, which is restored after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_series_invert_prints_big_integers_exactly(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "series", "invert",
                             "--coeffs", "1,1000000", "--order", "717")
    assert (code, err) == (0, "")
    assert len(exact_digits(10 ** (6 * 717))) > 4300
    assert out == ",".join(exact_digits((-10**6) ** m) for m in range(718)) + "\n"
    assert sys.get_int_max_str_digits() == limit


BIG_P = 10**24 + 7


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_bound_prints_big_integers_exactly(capsys, fmt):
    # a dim-1 shape: deg_abelian = p**360 has about 8640 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "bound", "--n", "180", "--c", "179", "--e", "1",
                             "--degL", "1", "--p", str(BIG_P), "--format", fmt)
    assert (code, err) == (0, "")
    deg_abelian = exact_digits(BIG_P**360)
    if fmt == "csv":
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["deg_abelian"] == deg_abelian
    elif fmt == "json":
        assert json.loads(out)["deg_abelian"] == deg_abelian
    else:
        assert f"\n  deg_abelian: {deg_abelian}\n" in out
    assert sys.get_int_max_str_digits() == limit


def test_formatters_print_big_integers_exactly_from_library_code():
    limit = sys.get_int_max_str_digits()
    report = torsion_bound(BoundInput(180, 179, (1,) * 179, 1, p=BIG_P))
    deg_abelian = exact_digits(BIG_P**360)
    row = dict(zip(CSV_COLUMNS, report_csv_row(report).split(",")))
    assert row["deg_abelian"] == deg_abelian
    assert report_json_dict(report)["deg_abelian"] == deg_abelian
    assert json.loads(report_json_line(report))["deg_abelian"] == deg_abelian
    assert f"\n  deg_abelian: {deg_abelian}\n" in report_table(report)
    assert sys.get_int_max_str_digits() == limit


def test_report_repr_prints_big_integers_exactly():
    limit = sys.get_int_max_str_digits()
    report = torsion_bound(BoundInput(180, 179, (1,) * 179, 1, p=BIG_P))
    assert f"deg_abelian={exact_digits(BIG_P**360)}," in repr(report)
    chain = verify_slope_chain(2, 10**5000, 5)
    assert (f"threshold={exact_digits(chain.threshold)}, mu_min=Fraction(1, 2), "
            f"mu_max=Fraction({'9' * 5000}, 1),") in repr(chain)
    assert sys.get_int_max_str_digits() == limit


NINES = "9" * 5000


@pytest.mark.parametrize("limit", [4300, 640])
def test_cli_reads_integers_past_the_str_limit(capsys, limit):
    # a list entry past the int-to-str limit is read and printed exactly
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run_cli(capsys, "series", "invert",
                                 "--coeffs", f"1,{NINES}", "--order", "1")
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, out, err) == (0, f"1,-{NINES}\n", "")


def test_refusals_print_big_integers_exactly(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "2", "--c", "1", "--e", "2",
                             "--degL", "1", "--p", NINES)
    assert (code, out) == (2, "")
    assert err == (f"error: {NINES} is beyond the deterministic witness range "
                   f"(< {DETERMINISTIC_LIMIT})\n")
    exps = (7 * (10**4000 - 1) // 9,) * 30
    threshold = exact_digits(threshold_debarre(31, 30, exps, 1))
    assert len(threshold) > 4300
    code, out, err = run_cli(capsys, "bound", "--n", "31", "--c", "30",
                             "--e-list", ",".join(map(str, exps)), "--degL", "1", "--p", "5")
    assert (code, out, err) == (2, "", f"error: p > threshold violated (threshold {threshold})\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_series_wtable(capsys):
    code, out, _ = run_cli(capsys, "series", "wtable", "--c", "3", "--max-m", "3")
    assert code == 0
    assert out == "1,-3,6,-10\n"


def test_series_ztable(capsys):
    code, out, _ = run_cli(capsys, "series", "ztable",
                           "--e-list", "1,2", "--max-i", "2")
    assert code == 0
    assert out == "1,-3,7\n"


@pytest.mark.parametrize("argv, message", [
    (("series", "wtable", "--c", "2", "--max-m", "65"),
     "composition weight cap exceeded (64)"),
    (("series", "ztable", "--e-list", "1,2", "--max-i", "65"),
     "composition weight cap exceeded (64)"),
    (("series", "invert", "--coeffs", "1,1", "--order", "4001"),
     "series order cap exceeded (4000)"),
    (("bound", "--n", "1026", "--c", "513", "--e", "1", "--degL", "1"),
     "bound dimension cap exceeded (512)"),
    (("bound", "--n", "4", "--c", "2", "--e", "1", "--degL", "1",
      "--sweep-p", "0:1000000000000000000000000000000"),
     "sweep range cap exceeded (100000)"),
    (("bound", "--n", "4", "--c", "2", "--e", "30", "--degL", "1",
      "--sweep-p", "5:100006"),
     "sweep range cap exceeded (100000)"),
    (("series", "invert", "--coeffs", "1,1", "--order", NINES),
     "series order cap exceeded (4000)"),
    (("bound", "--n", "3", "--c", NINES, "--e", "1", "--degL", "1"),
     "1 <= c <= n-1 violated"),
])
def test_oversize_input_is_refused_before_work(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_witt_add(capsys):
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--op", "add",
                           "--a", "1,0", "--b", "2,0")
    assert code == 0
    assert out == "0,0\n"


def test_witt_add_past_the_carry_cap(capsys):
    # p = 31123, a prime above the threshold 31104 of
    # bound --n 12 --c 6 --e-list 1,2,3,1,2,3 --degL 2; the oracle adds the
    # ghosts a0**p + p*a1 in Z/p^2 and reads the pair back
    p = 31123
    pp = p * p
    w = (pow(5, p, pp) + p * 7 + pow(31118, p, pp) + p * 9) % pp
    a0 = w % p
    a1 = (w - pow(a0, p, pp)) % pp // p
    code, out, err = run_cli(capsys, "witt", "--p", str(p), "--op", "add",
                             "--a", "5,7", "--b", "31118,9")
    assert (code, out, err) == (0, f"{a0},{a1}\n", "")


def test_witt_all_ops(capsys):
    cases = [
        (("--p", "2", "--op", "add", "--a", "1,0", "--b", "1,0"), "0,1\n"),
        (("--p", "2", "--op", "mul", "--a", "0,1", "--b", "0,1"), "0,0\n"),
        (("--p", "5", "--op", "sub", "--a", "1,0", "--b", "2,3"), "4,1\n"),
        (("--p", "3", "--op", "neg", "--a", "1,2"), "2,1\n"),
        (("--p", "3", "--op", "frobenius", "--a", "2,1"), "2,1\n"),
        (("--p", "3", "--op", "verschiebung", "--a", "2,1"), "0,2\n"),
        (("--p", "3", "--op", "ghost", "--a", "2,1"), "2\n"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, "witt", *argv)
        assert code == 0
        assert out == expected, argv


def test_witt_computes_only_the_requested_op(capsys, monkeypatch):
    products = []
    real = WittPair.__mul__

    def counted(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(WittPair, "__mul__", counted)
    for op, expected in [("add", "4,1\n"), ("sub", "0,3\n"), ("mul", "4,1\n")]:
        products.clear()
        assert run_cli(capsys, "witt", "--p", "5", "--op", op,
                       "--a", "2,3", "--b", "2,0") == (0, expected, "")
        assert len(products) == (op == "mul")


def test_witt_missing_b(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "3", "--op", "add", "--a", "1,0")
    assert code == 2
    assert "--b" in err


UNUSED_FLAGS = [
    (["witt", "--p", "3", "--op", "neg", "--a", "1,1", "--b", "1,1"], "--b is not used by op neg"),
    (["witt", "--p", "3", "--op", "ghost", "--a", "1,1", "--b", "1,1"],
     "--b is not used by op ghost"),
    (["threshold", "--kind", "debarre", "--n", "4", "--c", "2", "--e", "3", "--degL", "2",
      "--deg-omega", "7"], "--deg-omega is not used by --kind debarre"),
    (["threshold", "--kind", "lemma-p", "--n", "3", "--deg-omega", "5", "--c", "2"],
     "--c is not used by --kind lemma-p"),
    (["threshold", "--kind", "lemma-p", "--n", "3", "--deg-omega", "5", "--e", "3"],
     "--e is not used by --kind lemma-p"),
    (["threshold", "--kind", "lemma-p", "--n", "3", "--deg-omega", "5", "--e-list", "1,2"],
     "--e-list is not used by --kind lemma-p"),
    (["threshold", "--kind", "lemma-p", "--n", "3", "--deg-omega", "5", "--degL", "2"],
     "--degL is not used by --kind lemma-p"),
]


@pytest.mark.parametrize("argv, message", UNUSED_FLAGS, ids=[m for _, m in UNUSED_FLAGS])
def test_a_flag_the_command_never_reads_is_refused(capsys, monkeypatch, argv, message):
    # refused before any work: no threshold and no Witt op is computed
    def unexpected(*args):
        raise AssertionError("computed despite the refusal")

    for owner, name in [(cli, "threshold_debarre"), (cli, "threshold_lemma_p"),
                        (WittPair, "__neg__"), (WittPair, "ghost")]:
        monkeypatch.setattr(owner, name, unexpected)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, expected", [
    (["series", "ztable", "--e-list=-1,2", "--max-i", "3"], "1,-1,3,-5\n"),
    (["witt", "--p", "7", "--op", "add", "--a=-5,7", "--b", "1,1"], "3,1\n"),
])
def test_a_negative_list_value_is_joined_to_its_flag(capsys, argv, expected):
    # "--e-list -1,2" would read -1,2 as a flag; argparse refuses it
    assert run_cli(capsys, *argv) == (0, expected, "")
    spaced = [part for arg in argv for part in arg.split("=")]
    with pytest.raises(SystemExit) as exited:
        main(spaced)
    assert exited.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_witt_composite_p(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "4", "--op", "neg", "--a", "1,0")
    assert code == 2


def test_bound_json(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--n", "3", "--c", "2", "--e", "1", "--degL", "1",
        "--p", "auto", "--format", "json",
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "n", "c", "e", "degL", "p", "mode", "threshold", "prime_used",
        "deg_cotangent", "w_table", "inner_sums", "deg_pex_paper",
        "deg_pex_dual", "deg_abelian", "bound_paper", "bound_dual", "flags",
    ]
    assert doc["p"] == "auto"
    assert doc["prime_used"] == "3"
    assert doc["bound_dual"] == "5832"
    assert doc["e"] == ["1", "1"]
    # every numeric field is a decimal string
    assert all(isinstance(doc[k], str) for k in
               ("n", "c", "degL", "threshold", "prime_used", "deg_cotangent",
                "deg_pex_paper", "deg_pex_dual", "deg_abelian",
                "bound_paper", "bound_dual"))
    for row in doc["inner_sums"]:
        assert list(row.keys()) == ["h", "binom", "inner", "term_paper", "term_dual"]


def test_bound_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
        "--p", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == (
        "2,1,2,1,5,4,-16,24,625,-10000,15000,"
        "e_below_simple_threshold;paper_mode_nonpositive;uniform_specialization_checked"
    )


def test_bound_table(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1", "--p", "5",
    )
    assert code == 0
    assert "torsion bound report" in out
    assert "bound_paper: -10000   bound_dual: 15000" in out
    assert "flags: e_below_simple_threshold, paper_mode_nonpositive, " \
           "uniform_specialization_checked" in out


def test_bound_validation_exit_code(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "2", "--c", "2",
                             "--e", "1", "--degL", "1")
    assert code == 2
    assert out == ""
    assert "1 <= c <= n-1" in err


def test_bound_inadmissible_p(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "2", "--c", "1",
                           "--e", "2", "--degL", "1", "--p", "3")
    assert code == 2
    assert "threshold" in err


def test_bound_exponent_flags_are_exclusive(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "4", "--c", "2", "--e", "2",
                           "--e-list", "2,3", "--degL", "1")
    assert code == 2
    assert "not both" in err
    code, _, err = run_cli(capsys, "bound", "--n", "4", "--c", "2", "--degL", "1")
    assert code == 2
    assert "required" in err


def test_bound_e_list(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "4", "--c", "2", "--e-list", "2,3",
        "--degL", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == ["2", "3"]
    assert doc["threshold"] == "120"
    assert doc["prime_used"] == "127"


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
        "--sweep-p", "2:20", "--format", "json",
    )
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    primes = [int(d["prime_used"]) for d in docs]
    # threshold 4 cuts off 2 and 3; ascending order
    assert primes == [5, 7, 11, 13, 17, 19]
    assert primes == sorted(primes)


def test_sweep_csv_header_once(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
        "--sweep-p", "5:12", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3  # 5, 7, 11


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "2", "--c", "1", "--e", "2",
                           "--degL", "1", "--sweep-p", "9:4")
    assert code == 2
    assert "sweep-p" in err


# int() would read each of these: "1_0" as 10, the Arabic-Indic digit as 1
NOT_DECIMAL = ["x", "1_0", "\u0661", "+1", " 1"]
BOUND = ["bound", "--n", "4", "--c", "2", "--degL", "1"]


@pytest.mark.parametrize("text", NOT_DECIMAL)
@pytest.mark.parametrize("flag, argv, message", [
    ("--e-list", BOUND + ["--e-list", "{},2"], "--e-list must be a comma-separated integer list"),
    ("--coeffs", ["series", "invert", "--order", "2", "--coeffs", "{},2"],
     "--coeffs must be a comma-separated integer list"),
    ("--a", ["witt", "--p", "5", "--op", "neg", "--a", "{},2"],
     "--a must be a comma-separated integer list"),
    ("--p", BOUND + ["--e", "2", "--p", "{}"], "--p must be an integer or 'auto'"),
    ("--sweep-p", BOUND + ["--e", "2", "--sweep-p", "{}:100"],
     "--sweep-p bounds must be integers"),
])
def test_integer_text_is_ascii_decimal(capsys, text, flag, argv, message):
    argv = [arg.format(text) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_integer_flags_refuse_what_is_not_ascii_decimal(capsys, text):
    # an integer flag's type is the same rule, so argparse refuses the text
    with pytest.raises(SystemExit) as exited:
        main(["threshold", "--kind", "debarre", "--n", text, "--c", "2", "--e", "3",
              "--degL", "2"])
    assert exited.value.code == 2
    assert f"--n: invalid integer value: {text!r}" in capsys.readouterr().err


def test_integer_reads_what_str_prints():
    for value in (0, 7, -12, 10**30, -(10**30)):
        assert integer(str(value)) == value
    for text in NOT_DECIMAL + ["", "-", "--1", "1.0", "1e3", "0x10", "\u00b2"]:
        with pytest.raises(errors.ValidationError, match="^m$"):
            integer(text, "m")


def test_sweep_width_at_the_cap_is_accepted(capsys):
    # threshold 216000 lies above the range, so no prime is reported
    code, out, err = run_cli(capsys, "bound", "--n", "4", "--c", "2", "--e", "30",
                             "--degL", "1", "--sweep-p", "5:100005", "--format", "csv")
    assert (code, out, err) == (0, ",".join(CSV_COLUMNS) + "\n", "")


def test_sweep_below_the_witness_limit_tests_no_candidate_past_to(capsys):
    # TO = DETERMINISTIC_LIMIT - 1: the five primes are reported, and the
    # next prime, past the limit, is never searched for
    code, out, err = run_cli(capsys, "bound", "--n", "2", "--c", "1", "--e", "1",
                             "--degL", "1", "--format", "csv", "--sweep-p",
                             f"{DETERMINISTIC_LIMIT - 301}:{DETERMINISTIC_LIMIT - 1}")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 1 + 5


def test_sweep_below_a_threshold_past_the_limit_reports_nothing(capsys):
    # threshold 4 * 10**24 lies past the witness limit and above the range
    code, out, err = run_cli(capsys, "bound", "--n", "2", "--c", "1",
                             "--e", "2000000000000", "--degL", "1",
                             "--format", "csv", "--sweep-p", "1:100")
    assert (code, out, err) == (0, ",".join(CSV_COLUMNS) + "\n", "")


def test_sweep_past_the_limit_names_the_first_odd_candidate(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "2", "--c", "1", "--e", "1",
                             "--degL", "1", "--format", "csv", "--sweep-p",
                             f"{DETERMINISTIC_LIMIT + 1}:{DETERMINISTIC_LIMIT + 5}")
    assert (code, out) == (2, "")
    assert err == (f"error: {DETERMINISTIC_LIMIT + 2} is beyond the deterministic "
                   f"witness range (< {DETERMINISTIC_LIMIT})\n")


def test_sweep_streams_rows(monkeypatch):
    out = io.StringIO()
    written_before_row = []
    real = BoundShape._row_values

    def row_values(self, p):
        written_before_row.append(out.getvalue())
        return real(self, p)

    monkeypatch.setattr(BoundShape, "_row_values", row_values)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["bound", "--n", "2", "--c", "1", "--e", "2", "--degL", "1",
                 "--sweep-p", "5:12", "--format", "csv"]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 + 3  # 5, 7, 11
    assert written_before_row[1] == "".join(lines[:2])


@pytest.mark.parametrize("p", ["7", "auto", "junk"])
def test_sweep_refuses_an_explicit_p(capsys, p):
    code, out, err = run_cli(capsys, "bound", "--n", "4", "--c", "2", "--e", "1",
                             "--degL", "1", "--p", p, "--sweep-p", "5:30")
    assert (code, out, err) == (2, "", "error: give either --p or --sweep-p, not both\n")


def test_json_round_trip_recompute():
    rep = torsion_bound(BoundInput(4, 2, (2, 3), 1, p=127))
    doc = report_json_dict(rep)
    again = torsion_bound(
        BoundInput(
            int(doc["n"]), int(doc["c"]),
            tuple(int(e) for e in doc["e"]), int(doc["degL"]),
            p=int(doc["prime_used"]),
        )
    )
    assert report_json_dict(again) == {**doc, "p": doc["prime_used"]}


def test_reader_closing_the_pipe_ends_quietly():
    # the sweep writes about 1.7 MB, far more than a pipe buffer holds, so
    # the writer is still running when the reader closes the pipe
    argv = ["bound", "--n", "4", "--c", "2", "--e-list", "2,3", "--degL", "1",
            "--format", "csv", "--sweep-p", "100:100000"]
    with subprocess.Popen([sys.executable, "-m", "torbound", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == (",".join(CSV_COLUMNS) + "\n").encode()
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert proc.stderr.read() == b""
