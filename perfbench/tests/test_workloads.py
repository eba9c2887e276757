"""Seeded inputs are reproducible and keep the workloads' stated properties."""

import shutil
import subprocess
import sys

import pytest

from perfbench import oracles, run, workloads


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name):
    a = workloads.make(name)
    b = workloads.make(name)
    assert a.make_ops(11) == b.make_ops(11)
    assert a.make_ops(11) != a.make_ops(12)


def test_sweep_ranges_hold_exactly_rows_admissible_primes():
    wl = workloads.PrimeSweep()
    for argv, (n, c, exps, d), primes in wl.make_ops(9):
        lo, hi = map(int, argv[argv.index("--sweep-p") + 1].split(":"))
        t = oracles.threshold(n, c, exps, d)
        assert list(primes) == [k for k in range(max(lo, t + 1), hi + 1) if oracles.is_prime(k)]
        assert len(primes) == wl.ROWS


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witt-ring", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout



def test_pass_stops_at_its_deadline(keep_modules):
    wl = workloads.WittRingOps()
    ops = wl.make_ops(3)
    ph = run.Phase(len(ops))
    run.run_pass(wl, ops, ph, {}, deadline=run.clock())
    assert ph.attempted == 0 and ph.done() == []
