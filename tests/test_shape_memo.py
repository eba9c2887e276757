"""Verified shapes are memoized per process: torsion_bound, deg_pex, pex_terms
and a CLI report build a distinct shape once, every check runs before a shape
is held, a failed check holds nothing, a hit is what a fresh build gives, and
bound_shape builds anew on every call."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torbound
import torbound.bounds
from torbound import (BoundInput, InternalConsistencyError, ValidationError, bound_shape,
                      chern_normal, chern_tangent, cli, cotangent_chern, deg_pex, pex_terms,
                      threshold_debarre, torsion_bound)
from torbound.primes import next_prime
from torbound.series import TruncatedSeries

# the shapes the prime-sweep benchmark cycles
SWEEP_SHAPES = ((8, 4, (2, 2, 2, 2), 1), (12, 6, (1, 2, 3, 1, 2, 3), 2),
                (10, 5, (3, 1, 2, 2, 1), 1))


class I(int):
    def __repr__(self):
        return f"I({int(self)})"


def count_builds(monkeypatch):
    # every shape build, memoized or not, runs the one checked body
    calls = []
    real = torbound.bounds._bound_shape

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(torbound.bounds, "_bound_shape", counted)
    return calls


def primes_above(threshold, count):
    out = [next_prime(threshold)]
    while len(out) < count:
        out.append(next_prime(out[-1]))
    return out


def sweep(n, c, exps, d, lo, hi):
    argv = ["bound", "--n", str(n), "--c", str(c), "--e-list", ",".join(map(str, exps)),
            "--degL", str(d), "--sweep-p", f"{lo}:{hi}", "--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().splitlines()[1:]


def test_thirty_sweeps_over_three_shapes_build_three(monkeypatch):
    calls = count_builds(monkeypatch)
    for k in range(30):
        n, c, exps, d = SWEEP_SHAPES[k % 3]
        t = threshold_debarre(n, c, exps, d)
        assert len(sweep(n, c, exps, d, t + 10 * k, t + 10 * k + 400)) > 5
    assert sorted(calls) == sorted(SWEEP_SHAPES)


def test_every_entry_point_at_twenty_primes_builds_one_shape(monkeypatch):
    calls = count_builds(monkeypatch)
    n, c, exps, d = SWEEP_SHAPES[1]
    for p in primes_above(threshold_debarre(n, c, exps, d), 20):
        paper, dual = deg_pex(n, c, exps, d, p, "paper"), deg_pex(n, c, exps, d, p, "dual")
        terms = pex_terms(n, c, exps, d, p)
        report = torsion_bound(BoundInput(n, c, exps, d, p=p))
        assert (report.deg_pex_paper, report.deg_pex_dual, report.terms) == (paper, dual, terms)
    assert calls == [(n, c, exps, d)]


def test_a_hit_is_a_fresh_build():
    inp = BoundInput(4, 2, (2, 2), 1)
    first, hit = torsion_bound(inp), torsion_bound(inp)
    fresh = bound_shape(4, 2, (2, 2), 1).report()
    assert first == hit == fresh and repr(hit) == repr(fresh)
    for name in fresh._fields:
        assert type(getattr(hit, name)) is type(getattr(fresh, name)), name


def in_a_fresh_process(code):
    # stdout of code run by a new interpreter; its string hashes, and so the
    # order a frozenset of flags prints in, are fixed by the seed
    src = Path(torbound.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"})
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_int_subclass_input_is_never_held():
    odd = torsion_bound(BoundInput(4, 2, (I(2), I(2)), 1))
    assert "exponents=(I(2), I(2))" in repr(odd)
    plain = torsion_bound(BoundInput(4, 2, (2, 2), 1))
    assert repr(plain) == repr(bound_shape(4, 2, (2, 2), 1).report())
    assert all(type(e) is int for e in plain.exponents)
    # the other way round: a held plain-int shape does not serve the subclass
    odd_d = torsion_bound(BoundInput(4, 2, (2, 2), I(1)))
    assert type(odd_d.d) is I and "d=I(1)" in repr(odd_d)
    assert repr(torsion_bound(BoundInput(4, 2, (I(2), I(2)), 1))) == repr(odd)
    imports = "from torbound import BoundInput, torsion_bound\n"
    plain_repr = "print(repr(torsion_bound(BoundInput(4, 2, (2, 2), 1))))"
    after_odd = ("class I(int):\n    __repr__ = lambda self: f'I({int(self)})'\n"
                 "torsion_bound(BoundInput(4, 2, (I(2), I(2)), 1))\n")
    fresh = in_a_fresh_process(imports + plain_repr)
    assert "exponents=(2, 2)" in fresh
    assert in_a_fresh_process(imports + after_odd + plain_repr) == fresh


def test_the_least_recently_used_shape_is_dropped(monkeypatch):
    size = torbound.bounds.SHAPE_MEMO_SIZE
    assert size >= 3
    assert torbound.bounds._verified_shape.cache_info().maxsize == size
    calls = count_builds(monkeypatch)
    for d in range(1, size + 2):
        torsion_bound(BoundInput(4, 2, (1, 1), d))
    assert len(calls) == size + 1
    torsion_bound(BoundInput(4, 2, (1, 1), size + 1))  # the newest is held
    assert len(calls) == size + 1
    torsion_bound(BoundInput(4, 2, (1, 1), 1))  # the oldest was dropped
    assert calls[-1] == (4, 2, (1, 1), 1) and len(calls) == size + 2


def test_a_failed_check_holds_nothing(monkeypatch):
    calls = count_builds(monkeypatch)
    real = torbound.bounds._pex_geometric

    def corrupted(tangent, ti, conv):
        poly = real(tangent, ti, conv)
        return (poly[0] + 1,) + poly[1:]

    with monkeypatch.context() as patch:
        patch.setattr(torbound.bounds, "_pex_geometric", corrupted)
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="jet-bundle degree"):
                torsion_bound(BoundInput(4, 2, (2, 2), 1))
    assert len(calls) == 2
    report = torsion_bound(BoundInput(4, 2, (2, 2), 1))
    assert report == bound_shape(4, 2, (2, 2), 1).report()
    assert len(calls) == 4


def test_bound_shape_builds_on_every_call(monkeypatch):
    calls = count_builds(monkeypatch)
    torsion_bound(BoundInput(4, 2, (2, 2), 1))
    shapes = [bound_shape(4, 2, (2, 2), 1) for _ in range(3)]
    assert len(calls) == 4
    assert shapes[0] == shapes[1] == shapes[2] and shapes[0] is not shapes[1]


@pytest.mark.parametrize("make", [
    lambda: TruncatedSeries.one(None),
    lambda: chern_normal(2, (2, 2), None),
    lambda: chern_tangent(2, (2, 2), None),
    lambda: cotangent_chern(2, (2, 2), None),
])
def test_an_order_of_none_is_refused(make):
    with pytest.raises(ValidationError, match="series order must be >= 0"):
        make()
