import json

import pytest

from torbound import torsion_bound, BoundInput
from torbound.cli import CSV_COLUMNS, main, report_json_dict


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
    (("witt", "--p", "3001", "--op", "neg", "--a", "1,0"),
     "carry characteristic cap exceeded (3000)"),
])
def test_oversize_input_is_refused_before_work(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_witt_add(capsys):
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--op", "add",
                           "--a", "1,0", "--b", "2,0")
    assert code == 0
    assert out == "0,0\n"


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


def test_witt_missing_b(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "3", "--op", "add", "--a", "1,0")
    assert code == 2
    assert "--b" in err


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
