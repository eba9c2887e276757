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
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import kernel

import torbound as tb
from torbound import cli
from torbound.errors import ValidationError, check_int, check_ints

F5 = tb.FiniteField(5)
F9 = tb.FiniteField(3, modulus=(1, 0, 1))
W5 = tb.WittRing(F5)
W9 = tb.WittRing(F9)
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


def test_check_ints():
    assert check_ints((1, 2), "m") == (1, 2)
    assert check_ints(iter([3, 4]), "m", low=3) == (3, 4)
    assert check_ints((), "m", low=1) == ()
    for bad in (None, 5, 2.5, (1, True), (1, 2.0), "12", [Fraction(1)]):
        with pytest.raises(ValidationError, match="^m$"):
            check_ints(bad, "m")
    with pytest.raises(ValidationError, match="^low$"):
        check_ints((2, 1), "low", low=2)


# non-int arguments that must raise ValidationError, not return or raise TypeError
PROBES = {
    "sym_elementary((1, 2), 1.0)": lambda: tb.sym_elementary((1, 2), 1.0),
    "TruncatedSeries((1,), order=2.5)": lambda: tb.TruncatedSeries((1,), order=2.5),
    "chern_normal(2, (1, 2), 2.5)": lambda: tb.chern_normal(2, (1, 2), 2.5),
    "segre_cotangent(1.0, 2, (1, 1), 2)": lambda: tb.segre_cotangent(1.0, 2, (1, 1), 2),
    "threshold_lemma_p(True, 5)": lambda: tb.threshold_lemma_p(True, 5),
    "deg_abelian_bound(True, 1, 5)": lambda: tb.deg_abelian_bound(True, 1, 5),
    "BoundShape.terms(7.0)": lambda: tb.bound_shape(4, 2, (1, 1), 1).terms(7.0),
    "element('3')": lambda: F5.element("3"),
    "element(2.5)": lambda: F5.element(2.5),
    "modulus=(1.9, 1.2, 1)": lambda: tb.FiniteField(2, modulus=(1.9, 1.2, 1)),
    "element(2) ** True": lambda: F5.element(2) ** True,
    "times(True)": lambda: W5.element(1, 2).times(True),
    "W5.element(True, 0)": lambda: W5.element(True, 0),
    "W5.element(2.5, 0)": lambda: W5.element(2.5, 0),
    "W5.element('3', 0)": lambda: W5.element("3", 0),
    "W9.element((1, 2, 0), 0)": lambda: W9.element((1, 2, 0), 0),
    "W5.element(F9.element(1), 0)": lambda: W5.element(F9.element(1), 0),
    # a non-iterable where a sequence belongs
    "bound_shape(4, 2, None, 1)": lambda: tb.bound_shape(4, 2, None, 1),
    "BoundInput(4, 2, 5, 1)": lambda: tb.BoundInput(4, 2, 5, 1),
    "threshold_debarre(4, 2, 2.5, 1)": lambda: tb.threshold_debarre(4, 2, 2.5, 1),
    "deg_cotangent(4, 2, None, 1)": lambda: tb.deg_cotangent(4, 2, None, 1),
    "top_integral(4, 2, 5, 1)": lambda: tb.top_integral(4, 2, 5, 1),
    "pex_terms(4, 2, 2.5, 1, 5)": lambda: tb.pex_terms(4, 2, 2.5, 1, 5),
    "deg_pex(4, 2, None, 1, 5)": lambda: tb.deg_pex(4, 2, None, 1, 5, "paper"),
    "pex_closed_form_general(4, 2, 5, 1, 5)":
        lambda: tb.pex_closed_form_general(4, 2, 5, 1, 5, "dual"),
    "chern_normal(2, 2.5, 2)": lambda: tb.chern_normal(2, 2.5, 2),
    "chern_tangent(2, None, 2)": lambda: tb.chern_tangent(2, None, 2),
    "cotangent_chern(2, 5, 2)": lambda: tb.cotangent_chern(2, 5, 2),
    "segre_cotangent(1, 2, 2.5, 2)": lambda: tb.segre_cotangent(1, 2, 2.5, 2),
    "sym_elementary(5, 1)": lambda: tb.sym_elementary(5, 1),
    "sym_complete(2.5, 1)": lambda: tb.sym_complete(2.5, 1),
    "TruncatedSeries(5)": lambda: tb.TruncatedSeries(5),
    "FiniteField(3, 5)": lambda: tb.FiniteField(3, 5),
    # a coefficient is a series scalar, never coerced
    "TruncatedSeries((1, 1.5))": lambda: tb.TruncatedSeries((1, 1.5)),
    "TruncatedSeries((1, True))": lambda: tb.TruncatedSeries((1, True)),
    "TruncatedSeries((1, 'a'))": lambda: tb.TruncatedSeries((1, "a")),
}


# a Witt pair reads each component through its field's residue rule, so it
# refuses what FiniteField.element refuses, with the same message
@pytest.mark.parametrize(
    "ring, value",
    [(W5, True), (W5, 2.5), (W5, "3"), (W9, (1, 2, 0)), (W5, F9.element(1))],
    ids=["bool", "float", "str", "long tuple", "other field"],
)
def test_witt_element_refuses_as_the_field_does(ring, value):
    with pytest.raises(ValidationError) as refused:
        ring.field.element(value)
    message = f"^{re.escape(str(refused.value))}$"
    for a0, a1 in ((value, 0), (0, value)):
        with pytest.raises(ValidationError, match=message):
            ring.element(a0, a1)


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_validation_error(probe):
    with pytest.raises(ValidationError):
        PROBES[probe]()


def test_a_fraction_head_is_a_series_scalar():
    inverse = tb.TruncatedSeries((1, Fraction(1, 2))).invert()
    assert inverse.coefficient(1) == Fraction(-1, 2)
    assert kernel.inverse_series_coeff((Fraction(1, 2),), 1) == Fraction(-1, 2)


SMALL = st.integers(-3, 12)
X = st.one_of(
    SMALL,
    st.booleans(),
    st.floats(-3, 12),
    st.text(max_size=3),
    st.none(),
    st.fractions(-3, 12, max_denominator=4),
)
# sequences lean to ints, so calls get past their first check; a sequence
# argument is drawn from SEQ, which also holds every non-iterable of X
XS = st.lists(st.one_of(SMALL, X), max_size=3).map(tuple)
SEQ = st.one_of(XS, X)

ENTRY_POINTS = {
    "sym_elementary": (tb.sym_elementary, [SEQ, X]),
    "sym_complete": (tb.sym_complete, [SEQ, X]),
    "chern_normal": (tb.chern_normal, [X, SEQ, X]),
    "cotangent_chern": (tb.cotangent_chern, [X, SEQ, X]),
    "frobenius_scale": (lambda p: tb.frobenius_scale(SERIES, p), [X]),
    "segre_cotangent": (tb.segre_cotangent, [X, X, SEQ, X]),
    "top_integral": (tb.top_integral, [X, X, SEQ, X]),
    "deg_cotangent": (tb.deg_cotangent, [X, X, SEQ, X]),
    "threshold_debarre": (tb.threshold_debarre, [X, X, SEQ, X]),
    "threshold_lemma_p": (tb.threshold_lemma_p, [X, X]),
    "pex_closed_form_uniform": (
        lambda n, c, e, d, p: tb.pex_closed_form_uniform(n, c, e, d, p, "paper"),
        [X, X, X, X, X],
    ),
    "pex_closed_form_general": (
        lambda n, c, es, d, p: tb.pex_closed_form_general(n, c, es, d, p, "dual"),
        [X, X, SEQ, X, X],
    ),
    "pex_terms": (tb.pex_terms, [X, X, SEQ, X, X]),
    "deg_pex": (lambda n, c, es, d, p: tb.deg_pex(n, c, es, d, p, "paper"),
                [X, X, SEQ, X, X]),
    "deg_abelian_bound": (tb.deg_abelian_bound, [X, X, X]),
    "bound_shape": (tb.bound_shape, [X, X, SEQ, X]),
    "torsion_bound": (
        lambda n, c, es, d, p: tb.torsion_bound(tb.BoundInput(n, c, es, d, p=p)),
        [X, X, SEQ, X, st.one_of(X, st.just("auto"))],
    ),
    "verify_slope_chain": (tb.verify_slope_chain, [X, X, X]),
    "is_prime": (tb.is_prime, [X]),
    "next_prime": (tb.next_prime, [X]),
    "TruncatedSeries": (lambda cs, order: tb.TruncatedSeries(cs, order=order), [SEQ, X]),
    "TruncatedSeries.coefficient": (SERIES.coefficient, [X]),
    "FiniteField": (tb.FiniteField, [X]),
    "FiniteField.modulus": (lambda p, a, b: tb.FiniteField(p, modulus=(a, b, 1)),
                            [X, X, X]),
    "FiniteField.modulus.sequence": (lambda m: tb.FiniteField(3, modulus=m), [SEQ]),
    "FiniteField.element": (F5.element, [X]),
    "FiniteField.element.tuple": (F9.element, [SEQ]),
    "WittRing.element": (W5.element, [X, X]),
    "WittPair.times": (W5.element(1, 2).times, [X]),
    "FqElement.__pow__": (lambda e: F5.element(2) ** e, [X]),
    # a built value is used at once, so an index the field cannot hold fails here
    "FqElement": (lambda i: tb.FqElement(F9, i) * F9.one, [X]),
    "WittPair": (lambda i0, i1: tb.WittPair(W9, i0, i1) + W9.one, [X, X]),
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


# ints past a machine word, the deterministic primality limit and CPython's
# int-to-str digit limit, drawn beside small ones
HUGE = st.sampled_from([10**30, -10**30, 2**63, sys.maxsize + 1, 2**64 - 1,
                        10**5000, -10**5000])
WIDE = st.one_of(HUGE, SMALL)
SHAPE = tb.bound_shape(4, 2, (1, 1), 1)
HUGE_ENTRY_POINTS = {
    "BoundShape.report": (SHAPE.report, [st.one_of(WIDE, st.just("auto")),
                                         st.one_of(WIDE, st.sampled_from(["paper", "both"]))]),
    "BoundShape.terms": (SHAPE.terms, [WIDE]),
    "WittRing.carry": (lambda a, b: (W5.carry(a, b), W9.carry(a, b)), [WIDE, WIDE]),
    "WittRing.carry_index": (lambda a, b: (W5.carry_index(a, b), W9.carry_index(a, b)),
                             [WIDE, WIDE]),
    "FqElement operators": (
        lambda a, b, k: [(x + y, x - y, x * y, -x, x**k)
                         for x, y in ((F.element(a), F.element(b)) for F in (F5, F9))],
        [WIDE, WIDE, WIDE],
    ),
    "FqElement operand": (lambda a: (F5.one + a, F9.one * a), [WIDE]),
    "WittPair operators": (
        lambda a0, a1, b0, k: [(x + y, x - y, x * y, -x, x.times(k))
                               for x, y in ((W.element(a0, a1), W.element(b0, a0))
                                            for W in (W5, W9))],
        [WIDE, WIDE, WIDE, WIDE],
    ),
    "WittPair operand": (lambda a: (W5.one + a, W9.one * a), [WIDE]),
}


@FUZZ
@given(st.data())
def test_huge_ints_return_or_raise_validation_error(data):
    name = data.draw(st.sampled_from(sorted(HUGE_ENTRY_POINTS)), label="entry point")
    fn, arg_strategies = HUGE_ENTRY_POINTS[name]
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
