"""The integer rule: an integer argument is an int, never a bool, never coerced.

Every integer-taking entry point goes through `errors.check_int`. The fuzz
tests draw each integer argument from small ints, bools, floats, short
strings, None and Fractions, and require every call to return or raise
ValidationError (CapacityError is a subclass): a TypeError, an
InternalConsistencyError or a run past the deadline fails. The CLI fuzz
requires exit code 0 or 2, counting argparse's own SystemExit.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torbound as tb
from torbound import cli
from torbound.errors import ValidationError, check_int

F5 = tb.FiniteField(5)
F9 = tb.FiniteField(3, modulus=(1, 0, 1))
W5 = tb.WittRing(F5)
SERIES = tb.TruncatedSeries((1, 2, 3))

FUZZ = settings(max_examples=200, deadline=2000, derandomize=True, database=None)


def test_check_int():
    assert check_int(0, "m") == 0
    assert check_int(5, "m", low=5, high=5) == 5
    for bad in (True, False, 2.0, "3", None, Fraction(4, 2), (1,)):
        with pytest.raises(ValidationError, match="^m$"):
            check_int(bad, "m")
    with pytest.raises(ValidationError, match="^low$"):
        check_int(1, "low", low=2)
    with pytest.raises(ValidationError, match="^high$"):
        check_int(3, "high", high=2)


# non-int arguments that must raise ValidationError, not return or raise TypeError
PROBES = {
    "w_coeff(2.0, 3)": lambda: tb.w_coeff(2.0, 3),
    "inverse_series_coeff((1, 2), 2.0)": lambda: tb.inverse_series_coeff((1, 2), 2.0),
    "enumerate_compositions(2.0)": lambda: tb.enumerate_compositions(2.0),
    "sym_elementary((1, 2), 1.0)": lambda: tb.sym_elementary((1, 2), 1.0),
    "z_coeff(True, 2, (1, 2))": lambda: tb.z_coeff(True, 2, (1, 2)),
    "TruncatedSeries((1,), order=2.5)": lambda: tb.TruncatedSeries((1,), order=2.5),
    "divisor_power(1.0, 2, 3)": lambda: tb.CycleClass.divisor_power(1.0, 2, 3),
    "chern_normal(2, (1, 2), 2.5)": lambda: tb.chern_normal(2, (1, 2), 2.5),
    "segre_cotangent(1.0, 2, (1, 1), 2)": lambda: tb.segre_cotangent(1.0, 2, (1, 1), 2),
    "threshold_lemma_p(True, 5)": lambda: tb.threshold_lemma_p(True, 5),
    "deg_abelian_bound(True, 1, 5)": lambda: tb.deg_abelian_bound(True, 1, 5),
    "element('3')": lambda: F5.element("3"),
    "element(2.5)": lambda: F5.element(2.5),
    "modulus=(1.9, 1.2, 1)": lambda: tb.FiniteField(2, modulus=(1.9, 1.2, 1)),
    "element(2) ** True": lambda: F5.element(2) ** True,
    "times(True)": lambda: W5.element(1, 2).times(True),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_validation_error(probe):
    with pytest.raises(ValidationError):
        PROBES[probe]()


SMALL = st.integers(-3, 12)
X = st.one_of(
    SMALL,
    st.booleans(),
    st.floats(-3, 12),
    st.text(max_size=3),
    st.none(),
    st.fractions(-3, 12, max_denominator=4),
)
# sequences lean to ints, so calls get past their first check
XS = st.lists(st.one_of(SMALL, X), max_size=3).map(tuple)

ENTRY_POINTS = {
    "enumerate_compositions": (tb.enumerate_compositions, [X]),
    "w_coeff": (tb.w_coeff, [X, X]),
    "z_coeff": (tb.z_coeff, [X, X, XS]),
    "sym_elementary": (tb.sym_elementary, [XS, X]),
    "sym_complete": (tb.sym_complete, [XS, X]),
    "inverse_series_coeff": (tb.inverse_series_coeff, [XS, X]),
    "CompositionMultiset": (tb.CompositionMultiset, [XS]),
    "signed_multinomial": (tb.signed_multinomial, [XS]),
    "chern_normal": (tb.chern_normal, [X, XS, X]),
    "cotangent_chern": (tb.cotangent_chern, [X, XS, X]),
    "frobenius_scale": (lambda p: tb.frobenius_scale(SERIES, p), [X]),
    "segre_cotangent": (tb.segre_cotangent, [X, X, XS, X]),
    "top_integral": (tb.top_integral, [X, X, XS, X]),
    "deg_cotangent": (tb.deg_cotangent, [X, X, XS, X]),
    "threshold_debarre": (tb.threshold_debarre, [X, X, XS, X]),
    "threshold_lemma_p": (tb.threshold_lemma_p, [X, X]),
    "pex_closed_form_uniform": (
        lambda n, c, e, d, p: tb.pex_closed_form_uniform(n, c, e, d, p, "paper"),
        [X, X, X, X, X],
    ),
    "pex_closed_form_general": (
        lambda n, c, es, d, p: tb.pex_closed_form_general(n, c, es, d, p, "dual"),
        [X, X, XS, X, X],
    ),
    "pex_terms": (tb.pex_terms, [X, X, XS, X, X]),
    "deg_pex": (lambda n, c, es, d, p: tb.deg_pex(n, c, es, d, p, "paper"),
                [X, X, XS, X, X]),
    "deg_abelian_bound": (tb.deg_abelian_bound, [X, X, X]),
    "bound_shape": (tb.bound_shape, [X, X, XS, X]),
    "torsion_bound": (
        lambda n, c, es, d, p: tb.torsion_bound(tb.BoundInput(n, c, es, d, p=p)),
        [X, X, XS, X, st.one_of(X, st.just("auto"))],
    ),
    "verify_slope_chain": (tb.verify_slope_chain, [X, X, X]),
    "is_prime": (tb.is_prime, [X]),
    "next_prime": (tb.next_prime, [X]),
    "TruncatedSeries": (lambda cs, order: tb.TruncatedSeries(cs, order=order), [XS, X]),
    "TruncatedSeries.coefficient": (SERIES.coefficient, [X]),
    "CycleClass": (lambda cs, ti, top: tb.CycleClass(cs, ti, top_codim=top), [XS, X, X]),
    "CycleClass.divisor_power": (tb.CycleClass.divisor_power, [X, X, X]),
    "FiniteField": (tb.FiniteField, [X]),
    "FiniteField.modulus": (lambda p, a, b: tb.FiniteField(p, modulus=(a, b, 1)),
                            [X, X, X]),
    "FiniteField.element": (F5.element, [X]),
    "FiniteField.element.tuple": (F9.element, [XS]),
    "WittRing.element": (W5.element, [X, X]),
    "WittPair.times": (W5.element(1, 2).times, [X]),
    "FqElement.__pow__": (lambda e: F5.element(2) ** e, [X]),
}


@FUZZ
@given(st.data())
def test_library_entry_points_return_or_raise_validation_error(data):
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)), label="entry point")
    fn, arg_strategies = ENTRY_POINTS[name]
    args = [data.draw(s, label=f"argument {k}") for k, s in enumerate(arg_strategies)]
    try:
        fn(*args)
    except ValidationError:
        pass


INT_TEXT = SMALL.map(str)
VALUE_TEXT = st.one_of(
    INT_TEXT,
    st.lists(SMALL, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.tuples(st.integers(-3, 40), st.integers(-3, 60)).map(lambda t: f"{t[0]}:{t[1]}"),
    st.sampled_from(["", "x", "2.5", "1,x", "True", "None", "1/2", "auto", "1:2:3"]),
)
COMMANDS = {
    ("bound",): ["--n", "--c", "--e", "--e-list", "--degL", "--p", "--mode",
                 "--format", "--sweep-p"],
    ("threshold",): ["--kind", "--n", "--c", "--e", "--e-list", "--degL", "--deg-omega"],
    ("series", "invert"): ["--coeffs", "--order"],
    ("series", "wtable"): ["--c", "--max-m"],
    ("series", "ztable"): ["--e-list", "--max-i"],
    ("witt",): ["--p", "--op", "--a", "--b"],
}
CHOICES = {
    "--mode": ["paper", "dual", "both"],
    "--format": ["json", "csv", "table"],
    "--kind": ["debarre", "lemma-p"],
    "--op": ["add", "mul", "sub", "neg", "frobenius", "verschiebung", "ghost"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), max_size=8)):
        values = VALUE_TEXT
        if flag in CHOICES:
            values = st.one_of(st.sampled_from(CHOICES[flag]), VALUE_TEXT)
        argv += [flag, draw(values)]
    return argv


@FUZZ
@given(argvs())
def test_cli_exits_with_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2), (code, err.getvalue())
