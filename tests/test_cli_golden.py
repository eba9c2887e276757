"""Golden digest of the CLI's bytes.

About 200 in-process `cli.main` invocations cover `bound` for n <= 8 (every
c with 2c >= n, uniform and non-uniform exponents, degL 1 and 2, every format
and mode, explicit primes and `--sweep-p`), `threshold`, `series`, `witt`, and
inputs that each break one precondition. Their stdout, stderr and exit codes
are hashed with sha256. The digest was frozen before the polynomial-in-p
rewrite of `bounds.py`; a performance change must leave it unchanged.

Only messages the package itself writes are covered: argparse's own usage
errors depend on the Python version and are left out.
"""

import contextlib
import hashlib
import io
import json
import math
import random

from torbound import cli

GOLDEN_SHA256 = "42de2d9f44c363f0ec0f78e42bd0c3ef77aae9ec1fee1ac1b48261495806b3ec"

FORMATS = ("json", "csv", "table")
MODES = ("paper", "dual", "both")


def _threshold(n, c, exps, d):
    # written out here so the inputs do not depend on the code under test
    return (n - c) ** 2 * sum(exps) * math.prod(exps) * d


def _shapes():
    for n in range(2, 9):
        for c in range((n + 1) // 2, n):
            yield n, c


def _bound_invocations():
    rng = random.Random(20261018)
    out = []
    k = 0
    for n, c in _shapes():
        uniform_e = 1 + k % 3
        general = tuple(rng.randint(1, 3) for _ in range(c))
        variants = [
            (("--e", str(uniform_e)), (uniform_e,) * c),
            (("--e-list", ",".join(map(str, general))), general),
        ]
        for exp_args, exps in variants:
            for fmt in FORMATS:
                d = 1 + k % 2
                mode = MODES[(k // 3 + k) % 3]
                argv = ["bound", "--n", str(n), "--c", str(c), *exp_args,
                        "--degL", str(d), "--mode", mode, "--format", fmt]
                if k % 4 == 3:
                    t = _threshold(n, c, exps, d)
                    argv += ["--p", str(_next_prime_above(t + 7 * (k % 5)))]
                out.append(argv)
                k += 1
            d = 1 + k % 2
            t = _threshold(n, c, exps, d)
            lo = max(0, t - 5 + k % 9)
            out.append(["bound", "--n", str(n), "--c", str(c), *exp_args,
                        "--degL", str(d), "--mode", MODES[k % 3],
                        "--format", FORMATS[k % 3],
                        "--sweep-p", f"{lo}:{t + 40 + 3 * (k % 7)}"])
            k += 1
    return out


def _next_prime_above(t):
    q = t + 1
    while q < 2 or any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        q += 1
    return q


def _other_invocations():
    out = []
    for fmt in FORMATS:
        # ranges without an admissible prime, including one below the threshold
        out.append(["bound", "--n", "4", "--c", "2", "--e", "2", "--degL", "1",
                    "--format", fmt, "--sweep-p", "24:28"])
        out.append(["bound", "--n", "4", "--c", "2", "--e", "2", "--degL", "1",
                    "--format", fmt, "--sweep-p", "3:30"])
        out.append(["bound", "--n", "2", "--c", "1", "--e", "1", "--degL", "1",
                    "--format", fmt, "--sweep-p", "0:2"])
    for n, c, e, d in [(4, 2, 3, 2), (4, 2, 2, 1), (6, 3, 1, 1), (2, 1, 1, 1),
                       (5, 3, 2, 1), (8, 4, 3, 2)]:
        out.append(["threshold", "--kind", "debarre", "--n", str(n), "--c", str(c),
                    "--e", str(e), "--degL", str(d)])
    out.append(["threshold", "--kind", "debarre", "--n", "4", "--c", "2",
                "--e-list", "2,3", "--degL", "1"])
    out.append(["threshold", "--kind", "debarre", "--n", "6", "--c", "3",
                "--e-list", "1,2,3", "--degL", "2"])
    for n, w in [(2, 9), (1, 1), (3, 5), (5, 40), (7, 1000)]:
        out.append(["threshold", "--kind", "lemma-p", "--n", str(n),
                    "--deg-omega", str(w)])
    for coeffs, order in [("1,1", 3), ("1,2,1", 2), ("1,-3,0,5", 6), ("1", 0),
                          ("1,0,0,7", 2), ("1,4", 5)]:
        out.append(["series", "invert", "--coeffs", coeffs, "--order", str(order)])
    for c, m in [(1, 4), (2, 6), (3, 3), (5, 8), (7, 0)]:
        out.append(["series", "wtable", "--c", str(c), "--max-m", str(m)])
    for exps, i in [("1,2", 4), ("2,3", 3), ("1,1,1", 6), ("3", 5), ("1,2,3,4", 7)]:
        out.append(["series", "ztable", "--e-list", exps, "--max-i", str(i)])
    witt_cases = [(3, "2,1", "1,2"), (4, "3,1", "2,3"), (9, "8,5", "7,4")]
    for p, a, b in witt_cases:
        for op in ("add", "mul", "sub", "neg", "frobenius", "verschiebung", "ghost"):
            argv = ["witt", "--p", str(p), "--op", op, "--a", a]
            if op in ("add", "mul", "sub"):
                argv += ["--b", b]
            out.append(argv)
    return out


def _broken_invocations():
    base = ["--c", "2", "--degL", "1"]
    return [
        ["bound", "--n", "4", *base],
        ["bound", "--n", "4", "--e", "2", "--e-list", "2,2", *base],
        ["bound", "--n", "4", "--e-list", "2,x", *base],
        ["bound", "--n", "4", "--e-list", "2", *base],
        ["bound", "--n", "4", "--e", "0", *base],
        ["bound", "--n", "4", "--e-list", "2,-1", *base],
        ["bound", "--n", "4", "--c", "2", "--e", "2", "--degL", "0"],
        ["bound", "--n", "1", "--c", "1", "--e", "1", "--degL", "1"],
        ["bound", "--n", "4", "--c", "4", "--e", "1", "--degL", "1"],
        ["bound", "--n", "4", "--c", "0", "--e", "1", "--degL", "1"],
        ["bound", "--n", "5", "--c", "2", "--e", "1", "--degL", "1"],
        ["bound", "--n", "4", "--e", "2", "--p", "4", *base],
        ["bound", "--n", "4", "--e", "2", "--p", "23", *base],
        ["bound", "--n", "4", "--e", "2", "--p", "29", *base],
        ["bound", "--n", "4", "--e", "2", "--p", "abc", *base],
        ["bound", "--n", "4", "--e", "2", "--p", "-7", *base],
        ["bound", "--n", "4", "--e", "2", "--sweep-p", "1:2:3", *base],
        ["bound", "--n", "4", "--e", "2", "--sweep-p", "a:9", *base],
        ["bound", "--n", "4", "--e", "2", "--sweep-p", "9:5", *base],
        ["bound", "--n", "4", "--e", "2", "--sweep-p=-1:5", *base],
        ["bound", "--n", "5", "--c", "2", "--e", "1", "--degL", "1",
         "--sweep-p", "1:100"],
        ["bound", "--n", "4", "--e", "0", "--sweep-p", "1:100", *base],
        ["bound", "--n", "4", "--e", "2", "--degL", "0", "--c", "2",
         "--sweep-p", "1:100"],
        ["bound", "--n", "4", "--sweep-p", "1:100", *base],
        ["bound", "--n", "2", "--c", "1", "--e", str(2 * 10**12), "--degL", "1"],
        ["threshold", "--kind", "debarre", "--c", "2", "--e", "2", "--degL", "1"],
        ["threshold", "--kind", "debarre", "--n", "5", "--c", "2", "--e", "1",
         "--degL", "1"],
        ["threshold", "--kind", "debarre", "--n", "4", "--c", "2", "--degL", "1"],
        ["threshold", "--kind", "lemma-p", "--n", "2"],
        ["threshold", "--kind", "lemma-p", "--n", "0", "--deg-omega", "3"],
        ["threshold", "--kind", "lemma-p", "--n", "2", "--deg-omega", "0"],
        ["series", "invert", "--coeffs", "2,1", "--order", "2"],
        ["series", "invert", "--coeffs", "1,x", "--order", "2"],
        ["series", "invert", "--coeffs", "1,1", "--order", "-1"],
        ["series", "wtable", "--c", "0", "--max-m", "3"],
        ["series", "wtable", "--c", "2", "--max-m", "-1"],
        ["series", "ztable", "--e-list", "1,2", "--max-i", "-1"],
        ["series", "ztable", "--e-list", "1,y", "--max-i", "2"],
        ["witt", "--p", "6", "--op", "add", "--a", "1,1", "--b", "1,1"],
        ["witt", "--p", "5", "--op", "add", "--a", "1,1"],
        ["witt", "--p", "5", "--op", "mul", "--a", "1,1,1", "--b", "1,1"],
        ["witt", "--p", "5", "--op", "neg", "--a", "1,z"],
    ]


def invocations():
    return _bound_invocations() + _other_invocations() + _broken_invocations()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest():
    h = hashlib.sha256()
    for argv in invocations():
        code, out, err = run(argv)
        h.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    return h.hexdigest()


def test_invocation_set_covers_the_cli():
    calls = invocations()
    assert 180 <= len(calls) <= 240
    bound = [a for a in calls if a[0] == "bound"]
    combos = {(a[a.index("--format") + 1], a[a.index("--mode") + 1])
              for a in bound if "--format" in a and "--mode" in a}
    assert combos == {(f, m) for f in FORMATS for m in MODES}
    assert sum("--sweep-p" in a for a in bound) >= 20
    assert {a[0] for a in calls} == {"bound", "threshold", "series", "witt"}


def test_cli_bytes_match_the_frozen_digest():
    assert digest() == GOLDEN_SHA256
