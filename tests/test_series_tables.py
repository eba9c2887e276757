"""The series tables and the cotangent Segre series by closed forms.

`series wtable`, `series ztable` and `segre_cotangent` compute each inverse
table by the bound path's closed forms and check it against the series
recurrence; the composition sums in `kernel` stay the definition the tests
compare against, and no module of the package holds them.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from kernel import w_coeff, z_coeff

import torbound
from torbound import cli, segre_cotangent, sym_elementary

# stdout sha256 of the two tables at the weight cap, as the composition kernel
# the package once held printed them
CAP_TABLES = [
    (("series", "wtable", "--c", "3", "--max-m", "64"),
     "55329683fb400d9434509395d8b7692a7b7d8467cb7be5d0e3b8f81200fe2295"),
    (("series", "ztable", "--e-list", "1,2,3", "--max-i", "64"),
     "5f1bf42a2c1c5cbd568b1fdd86e91d1980f485fb7460304c0a800d08054dbff7"),
]


# the composition-sum kernel's names while the package held it
KERNEL_NAMES = ("CompositionMultiset", "enumerate_compositions", "signed_multinomial",
                "inverse_series_coeff", "w_coeff", "z_coeff")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_no_module_holds_the_kernel():
    for path in Path(torbound.__file__).resolve().parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for name in KERNEL_NAMES:
            assert name not in text, (path.name, name)
    for c, exps, order in [(1, (2,), 3), (2, (1, 1), 4), (3, (1, 2, 4), 6), (4, (5, 1, 3, 2), 9)]:
        for m in range(order + 1):
            assert segre_cotangent(m, c, exps, order) == (-1) ** m * sym_elementary(exps, m)


@pytest.mark.parametrize("argv, sha256", CAP_TABLES)
def test_tables_at_the_weight_cap(argv, sha256):
    src = Path(torbound.__file__).resolve().parents[1]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "torbound", *argv], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == sha256


def test_tables_match_the_kernel():
    for c in (1, 2, 3, 5, 7, 10**30):
        _, out, _ = run(["series", "wtable", "--c", str(c), "--max-m", "20"])
        assert out == ",".join(str(w_coeff(m, c)) for m in range(21)) + "\n"
    for exps in [(1,), (2, 3), (1, 1, 1), (0, 4), (-2, 5, 1), (3, -1, -1, 2)]:
        _, out, _ = run(["series", "ztable", f"--e-list={','.join(map(str, exps))}",
                         "--max-i", "20"])
        assert out == ",".join(str(z_coeff(i, exps)) for i in range(21)) + "\n"


def test_wtable_closed_form_route_fires(monkeypatch):
    real = cli._closed_forms

    def corrupt(*args):  # the closed-form inverse, one more at t**2
        normal, inverse = real(*args)
        return normal, inverse[:2] + (inverse[2] + 1,) + inverse[3:]

    monkeypatch.setattr(cli, "_closed_forms", corrupt)
    assert run(["series", "wtable", "--c", "3", "--max-m", "3"]) == (
        3, "", "internal consistency failure: wtable disagrees at t**2: "
               "closed form 7, recurrence 6\n")


def test_ztable_recurrence_route_fires(monkeypatch):
    # the normal series of (1, 2) read as 1 + 3t + 3t**2 inverts to 1 - 3t + 6t**2
    monkeypatch.setattr(cli, "_normal_series",
                        lambda exps, order: torbound.TruncatedSeries((1, 3, 3), order=order))
    assert run(["series", "ztable", "--e-list", "1,2", "--max-i", "2"]) == (
        3, "", "internal consistency failure: ztable disagrees at t**2: "
               "closed form 7, recurrence 6\n")
