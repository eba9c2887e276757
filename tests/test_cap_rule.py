"""The cap rule: every cap goes through `errors.check_cap`.

check_cap returns the value up to the cap and raises CapacityError("<what>
cap exceeded (<cap>)") above it. Each cap message in the README cap table is
raised by an entry point that the table names. The bound's size cap refuses
a c it cannot admit before any exponent is built.
"""

import itertools
import re
import time
import tracemalloc
from pathlib import Path

import pytest

import torbound
from torbound import (
    BoundInput,
    FiniteField,
    TruncatedSeries,
    bound_shape,
    carry_coefficients,
    cli,
    pex_closed_form_uniform,
    sym_complete,
    sym_elementary,
    threshold_debarre,
)
from torbound.combinatorics import sym_complete_table, sym_elementary_table
from torbound.errors import CapacityError, ValidationError, check_cap

README = Path(__file__).resolve().parent.parent / "README.md"
SIZE_MESSAGE = f"bound size cap exceeded ({torbound.bounds.MAX_BOUND_BITS})"


def test_check_cap():
    assert check_cap(0, 5, "thing") == 0
    assert check_cap(5, 5, "thing") == 5
    with pytest.raises(CapacityError, match=r"^thing cap exceeded \(5\)$"):
        check_cap(6, 5, "thing")
    assert issubclass(CapacityError, ValidationError)


# one entry point per README cap message: a call, or CLI arguments
ENTRY_POINTS = {
    "composition weight cap exceeded (64)": ["series", "wtable", "--c", "2", "--max-m", "65"],
    "series order cap exceeded (4000)": lambda: TruncatedSeries.one(4001),
    "carry characteristic cap exceeded (3000)": lambda: carry_coefficients(3001),
    "field table cap exceeded (262144)": lambda: FiniteField(2, (1,) + (0,) * 99 + (1,)),
    "bound dimension cap exceeded (512)": lambda: bound_shape(1026, 513, (1,) * 513, 1),
    "bound size cap exceeded (1050624)": lambda: bound_shape(512, 256, (10**100,) * 256, 1),
    "sweep range cap exceeded (100000)":
        ["bound", "--n", "4", "--c", "2", "--e", "1", "--degL", "1", "--sweep-p", "0:100001"],
}


def test_the_readme_table_names_every_cap():
    table = re.findall(r"^\|.*\| `([^`]* cap exceeded \(\d+\))` \|$", README.read_text(), re.M)
    assert sorted(table) == sorted(ENTRY_POINTS)


@pytest.mark.parametrize("message", sorted(ENTRY_POINTS))
def test_each_cap_message_is_raised_by_its_entry_point(message, capsys):
    entry = ENTRY_POINTS[message]
    start = time.perf_counter()
    if isinstance(entry, list):
        assert cli.main(entry) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            entry()
    assert time.perf_counter() - start < 1.0


SYMMETRIC = {f.__name__: f for f in (sym_elementary, sym_complete, sym_elementary_table,
                                     sym_complete_table)}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_the_symmetric_tables_cap_their_degree_as_a_series_order(name):
    # a degree past the series order cap is refused before any table work,
    # also one no list could hold; the cap itself is admitted
    table, message = SYMMETRIC[name], "series order cap exceeded (4000)"
    for degree in (4001, 10**30):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            table((1, 2), degree)
        assert time.perf_counter() - start < 1.0
    table((1, 2), 4000)
    row = next(line for line in README.read_text().splitlines() if f"`{message}`" in line)
    assert f"`{name}`" in row


class TestSizeCapBeforeTheExponents:
    """A c the size cap cannot admit, c > 525311, is refused right after the
    n and c checks: no exponent is built or checked."""

    C = 3 * 10**6

    def refusals(self):
        n, c = self.C + 1, self.C
        argv = ["--n", str(n), "--c", str(c), "--e", "1", "--degL", "1"]
        return [
            lambda: cli.main(["bound"] + argv),
            lambda: cli.main(["bound"] + argv + ["--sweep-p", "1:100"]),
            lambda: cli.main(["threshold", "--kind", "debarre"] + argv),
            lambda: pex_closed_form_uniform(n, c, 1, 1, 3, "dual"),
            lambda: threshold_debarre(n, c, itertools.repeat(1, c), 1),
            lambda: BoundInput(n, c, itertools.repeat(1, c), 1),
        ]

    def test_refused_in_little_memory(self, capsys):
        for refuse in self.refusals():
            tracemalloc.start()
            try:
                code = refuse()
            except CapacityError as exc:
                code, message = 2, str(exc)
            else:
                message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert (code, message) == (2, SIZE_MESSAGE)
            assert peak < 2**20

    def test_the_size_message_comes_before_the_later_shape_checks(self):
        c = self.C
        for n, exponents, d in [(c + 1, "not exponents", 1), (c + 1, (1,), 1),
                                (c + 1, (0,) * 3, 0), (10 * c, (), 1)]:
            with pytest.raises(CapacityError, match=re.escape(SIZE_MESSAGE)):
                bound_shape(n, c, exponents, d)

    def test_the_n_and_c_checks_come_first(self):
        c = self.C
        for n, message in [(2.0, "n >= 2 violated"), (c, "1 <= c <= n-1 violated")]:
            with pytest.raises(ValidationError, match=re.escape(message)):
                bound_shape(n, c, (), 1)

    def test_below_the_edge_the_order_is_unchanged(self):
        c = torbound.bounds.MAX_BOUND_BITS // 2 - 1  # 525311: 2 * (c + 1) is the cap
        with pytest.raises(ValidationError, match=re.escape(f"exponents length 1 != c = {c}")):
            bound_shape(c + 1, c, (1,), 1)
        with pytest.raises(CapacityError, match=re.escape(SIZE_MESSAGE)):
            bound_shape(c + 2, c + 1, (1,), 1)


def test_the_size_cap_counts_the_bits_of_degl():
    # degL's bits join the size, less one, so degL = 1 leaves the edge of
    # n - c = 512 with exponents 3 admitted; degL = 2 there, or a
    # 100000-digit degL, is refused before any shape work
    validate = torbound.bounds._validate_bound_shape
    assert validate(1024, 512, (3,) * 512, 1) == (3,) * 512
    for d in (2, 10**100000):
        with pytest.raises(CapacityError, match=f"^{re.escape(SIZE_MESSAGE)}$"):
            validate(1024, 512, (3,) * 512, d)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"^{re.escape(SIZE_MESSAGE)}$"):
        bound_shape(1024, 512, (1,) * 512, 10**100000)  # built in 5.2 s before
    assert time.perf_counter() - start < 1.0
    # with exponents 1 the cap admits a degL of up to 1025 bits
    validate(1024, 512, (1,) * 512, 2**1024)
    with pytest.raises(CapacityError, match=f"^{re.escape(SIZE_MESSAGE)}$"):
        validate(1024, 512, (1,) * 512, 2**1025)
