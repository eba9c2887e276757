"""The oracles reproduce the README values and reject corrupted output."""

import itertools
import math

from perfbench import oracles, run, workloads


def test_bound_report_readme_values():
    x = oracles.expected_report(2, 1, (2,), 1, 5)
    assert x["threshold"] == 4
    assert (x["deg_pex_paper"], x["deg_pex_dual"]) == (-16, 24)
    assert x["deg_abelian"] == 625
    assert (x["bound_paper"], x["bound_dual"]) == (-10000, 15000)
    assert x["deg_cotangent"] == 4
    assert x["w_table"] == (1, -1)
    assert x["terms"] == ((0, 1, 1, -20, 20), (1, 2, 1, 4, 4))
    assert x["flags"] == {"e_below_simple_threshold", "paper_mode_nonpositive",
                          "uniform_specialization_checked"}


def test_smallest_prime_readme_values():
    x = oracles.expected_report(3, 2, (1, 1), 1, 3)
    assert (x["threshold"], x["prime_used"], x["bound_dual"]) == (2, 3, 5832)


def test_threshold_series_and_witt_readme_values():
    assert oracles.threshold(4, 2, (3, 3), 2) == 432
    assert [(-1) ** m * h for m, h in enumerate(oracles.complete((1, 1, 1), 3))] == [1, -3, 6, -10]
    assert [(-1) ** i * h for i, h in enumerate(oracles.complete((1, 2), 2))] == [1, -3, 7]

    def ghost(p, a):
        return oracles.WittOracle(p).w(((a[0],), (a[1],)))[0]

    assert ghost(7, (3, 2)) == 45


def test_sieve_and_miller_rabin_agree():
    flags = oracles.sieve(5000)
    assert [k for k in range(5001) if flags[k]] == [k for k in range(5001) if oracles.is_prime(k)]
    assert oracles.is_prime(2**61 - 1) and not oracles.is_prime(3215031751)


def test_symmetric_dps_match_monomial_sums():
    vals = (3, 1, 4, 1, 5)
    e = oracles.elementary(vals)
    h = oracles.complete(vals, 4)
    for j in range(len(vals) + 1):
        assert e[j] == sum(math.prod(s) for s in itertools.combinations(vals, j))
    for i in range(5):
        assert h[i] == sum(math.prod(s) for s in itertools.combinations_with_replacement(vals, i))


def test_sweep_check_rejects_a_changed_row():
    wl = workloads.PrimeSweep()
    op = wl.make_ops(1)[0]
    _, (n, c, exps, d), primes = op
    good = oracles.sweep_csv(n, c, exps, d, primes)
    assert wl.check(op, (0, good)) == []
    assert wl.check(op, (0, good.replace(f",{primes[3]},", f",{primes[4]},", 1))) == ["csv output"]
    assert wl.check(op, (2, good)) == ["exit code 2"]


def test_witt_oracle_accepts_program_and_rejects_corruption(keep_modules):
    pkg, _ = run.load_program()
    wl = workloads.WittRingOps()
    for op in wl.make_ops(3):
        res = wl.run_op(pkg, op)
        assert wl.check(op, res.output) == []
        wrong = list(res.output)
        i = next(k for k, entry in enumerate(op[2]) if entry[0] in ("add", "mul", "times"))
        a0, a1 = wrong[i]
        wrong[i] = (a0, tuple((a + 1) % op[0] for a in a1))
        assert wl.check(op, wrong) == [f"{op[2][i][0]} #{i}"]


def test_measure_counts_wrong_outputs_as_failed(keep_modules, monkeypatch):
    real_load = run.load_program

    def load_with_broken_ghost():
        pkg, dt = real_load()
        monkeypatch.setattr(pkg.WittPair, "ghost", lambda self: 0)
        return pkg, dt

    wl = workloads.WittRingOps()
    ops = wl.make_ops(5)
    ops_with_ghost = sum(any(e[0] == "ghost" for e in op[2]) for op in ops)
    assert 0 < ops_with_ghost < len(ops)
    ok = run.Phase(len(ops))
    run.run_pass(wl, ops, ok, {})
    assert (ok.attempted, ok.failed) == (len(ops), 0)
    monkeypatch.setattr(run, "load_program", load_with_broken_ghost)
    broken, verified = run.Phase(len(ops)), {}
    for _ in range(2):
        run.run_pass(wl, ops, broken, verified)
    assert (broken.attempted, broken.failed) == (2 * len(ops), 2 * ops_with_ghost)
    assert len(broken.done()) == len(ops) - ops_with_ghost
