"""torbound benchmark.

    python3 perfbench/run.py --workload prime-sweep --seed 1 --seconds 60 --trace 0

Runs one workload against the working tree's src/ for about --seconds
seconds, checks every output with the oracles in perfbench/oracles.py and
prints every metric by name and unit, then one JSON line with the result.
--trace 0 gives the end-to-end metrics; --trace 1 gives the per-layer metrics
from traced passes alternating with untraced passes over the same ops, whose
difference is reported as the tracing overhead. See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(SRC))

from perfbench import tracer, workloads  # noqa: E402

clock = time.perf_counter
SETUP_REPEATS = 25
PROBE_REPEATS = 5

# module -> layer; errors does no work and is left out
LAYERS = {f"torbound.{m}": m for m in
          ("primes", "combinatorics", "series", "chern", "bounds", "witt", "cli")}

SPAN_COUNTERS = {
    "combinatorics.enumerate_compositions": lambda args, result: len(result),
    "series.TruncatedSeries.invert": lambda args, result: len(result.coefficients),
    "primes.is_prime": lambda args, result: result is True,
}
DISTINCT_PREFIXES = ("chern.", "combinatorics.enumerate_compositions", "witt.WittRing.carry")
PARSE_ARGS_SPAN = "cli.ArgumentParser.parse_args"


def load_program():
    """Import torbound and torbound.cli into a clean module table; (the
    package, import seconds). The cli module is reached as `pkg.cli`."""
    for name in [m for m in sys.modules if m == "torbound" or m.startswith("torbound.")]:
        del sys.modules[name]
    gc.collect()
    t0 = clock()
    pkg = importlib.import_module("torbound")
    importlib.import_module("torbound.cli")
    dt = clock() - t0
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported torbound from {pkg.__file__}, not from {SRC}")
    return pkg, dt


class Phase:
    """Per-op fastest times over the passes of one measured phase."""

    def __init__(self, n_ops):
        self.best = [None] * n_ops        # fastest op time per op, seconds
        self.best_first = [None] * n_ops  # fastest time to the first item
        self.items = [0] * n_ops
        self.imports = []                 # import time of each pass's program
        self.attempted = self.failed = self.passes = 0

    def record(self, i, res):
        if self.best[i] is None or res.seconds < self.best[i]:
            self.best[i] = res.seconds
        if self.best_first[i] is None or res.first < self.best_first[i]:
            self.best_first[i] = res.first
        self.items[i] = res.items

    def done(self):
        return [i for i, b in enumerate(self.best) if b is not None]

    def busy(self):
        """Seconds of one pass at each op's fastest."""
        return sum(self.best[i] for i in self.done())


def run_pass(wl, ops, ph, verified, recorder=None, deadline=None):
    """Run every op once on a freshly imported program, traced if a recorder
    is given, stopping early at `deadline` (a clock() value), so a run ends
    within one op of its time. `verified` maps op index to an output that
    passed its check."""
    pkg, import_s = load_program()
    ph.imports.append(import_s)
    patch = None
    if recorder is not None:
        patch = tracer.Patch(recorder, LAYERS).install()
        patch.extra(argparse.ArgumentParser, "parse_args", PARSE_ARGS_SPAN)
    try:
        for i, op in enumerate(ops):
            if deadline is not None and clock() >= deadline:
                break
            ph.attempted += 1
            try:
                res = wl.run_op(pkg, op)
            except Exception as exc:  # a failed op is counted, the run goes on
                _report_failure(ph, wl, op, f"raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if recorder is not None:
                    recorder.end_op()
            if i not in verified or verified[i] != res.output:
                problems = wl.check(op, res.output)
                if problems:
                    _report_failure(ph, wl, op, "; ".join(problems))
                    continue
                verified[i] = res.output
            ph.record(i, res)
    finally:
        if patch is not None:
            patch.restore()
    ph.passes += 1


def measure(wl, ops, seconds):
    """Run passes over ops until `seconds` have gone by."""
    ph = Phase(len(ops))
    verified = {}
    deadline = clock() + seconds
    while clock() < deadline:
        run_pass(wl, ops, ph, verified, deadline=deadline)
    return ph


def _report_failure(ph, wl, op, why):
    ph.failed += 1
    if ph.failed <= 5:
        print(f"# FAIL {wl.name} op={op!r:.300}: {why:.500}", file=sys.stderr)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def gmean_ms(seconds):
    return statistics.geometric_mean(seconds) * 1e3 if seconds else 0.0


def end_to_end(wl, ops, seconds, setup_imports):
    ph = measure(wl, ops, seconds)
    busy = ph.busy()
    metrics = {
        # the geometric mean weighs every op alike, whatever its size, and
        # moves less with one op's noise than a quantile that rests on one
        # or two ops
        "op_ms_gmean": (gmean_ms([ph.best[i] for i in ph.done()]), "ms"),
        "items_per_s": (sum(ph.items) / busy if busy else 0.0, "1/s"),
        "first_item_ms_gmean": (gmean_ms([ph.best_first[i] for i in ph.done()]), "ms"),
        # the fastest import, as each op is timed at its fastest pass
        "setup_s": (min(setup_imports + ph.imports), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return ph, metrics


def _sum(rec, prefix, field):
    return sum(getattr(st, field) for name, st in rec.stats.items() if name.startswith(prefix))


def _named(rec, *names):
    """Stats whose span name ends with one of the given function names."""
    return [st for name, st in rec.stats.items() if name.rsplit(".", 1)[-1] in names]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, ops):
    """Per-op numbers from the recorder's span totals."""
    def per_op(x):
        return x / ops

    def self_ms(layer):
        return per_op(_sum(rec, layer + ".", "self_time") * 1e3)

    def calls(*names):
        return sum(st.calls for st in _named(rec, *names))

    def items(*names):
        return sum(st.items for st in _named(rec, *names))

    def distinct_ratio(prefix):
        return _ratio(_sum(rec, prefix, "distinct"), _sum(rec, prefix, "calls"))

    def span_calls(name):
        return rec.stats[name].calls if name in rec.stats else 0

    cli_spans = [(n, st) for n, st in rec.stats.items() if n.startswith("cli.")]
    parse = sum(st.self_time for n, st in cli_spans
                if n in (PARSE_ARGS_SPAN, "cli.build_parser"))
    emit = sum(st.self_time for n, st in cli_spans
               if n not in (PARSE_ARGS_SPAN, "cli.build_parser", "cli.main"))
    return {
        "combinatorics.self_ms_per_op": (self_ms("combinatorics"), "ms/op"),
        "combinatorics.calls_per_op": (per_op(_sum(rec, "combinatorics.", "calls")), "count/op"),
        "combinatorics.multisets_per_op": (per_op(items("enumerate_compositions")), "count/op"),
        "combinatorics.enum_distinct_ratio": (
            distinct_ratio("combinatorics.enumerate_compositions"), "ratio"),
        "combinatorics.sym_elementary_per_op": (per_op(calls("sym_elementary")), "count/op"),
        "series.self_ms_per_op": (self_ms("series"), "ms/op"),
        "series.inverted_coeffs_per_op": (per_op(items("invert")), "count/op"),
        "chern.self_ms_per_op": (self_ms("chern"), "ms/op"),
        "chern.calls_per_op": (per_op(_sum(rec, "chern.", "calls")), "count/op"),
        "chern.distinct_ratio": (distinct_ratio("chern."), "ratio"),
        "bounds.self_ms_per_op": (self_ms("bounds"), "ms/op"),
        "bounds.pex_tables_per_op": (per_op(calls("pex_terms")), "count/op"),
        "bounds.cross_checks_per_op": (
            per_op(calls("deg_pex", "deg_cotangent", "segre_cotangent")), "count/op"),
        "primes.self_ms_per_op": (self_ms("primes"), "ms/op"),
        "primes.is_prime_per_op": (per_op(calls("is_prime")), "count/op"),
        "primes.prime_hit_ratio": (_ratio(items("is_prime"), calls("is_prime")), "ratio"),
        "witt.self_ms_per_op": (self_ms("witt"), "ms/op"),
        "witt.carry_distinct_ratio": (distinct_ratio("witt.WittRing.carry"), "ratio"),
        "witt.fq_mul_per_op": (per_op(span_calls("witt.FqElement.__mul__")), "count/op"),
        "witt.fq_pow_per_op": (per_op(span_calls("witt.FqElement.__pow__")), "count/op"),
        "cli.parse_ms_per_op": (per_op(parse * 1e3), "ms/op"),
        "cli.emit_ms_per_op": (per_op(emit * 1e3), "ms/op"),
    }


def _median_ms(samples):
    return statistics.median(samples) * 1e3


def ring_build_ms(pkg):
    """Mean over the witt-ring fields of the median time to build W2(F_q)."""
    per_field = []
    for p, modulus in workloads.WittRingOps.FIELDS:
        times = []
        for _ in range(20):
            t0 = clock()
            field = pkg.FiniteField(p) if modulus is None else pkg.FiniteField(p, modulus)
            pkg.WittRing(field)
            times.append(clock() - t0)
        per_field.append(_median_ms(times))
    return statistics.fmean(per_field)


def _import_ms(stderr):
    """Cumulative import time of the top-level torbound imports, from -X importtime."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        name = fields[2]
        # one leading space marks a top-level import; nested ones are indented
        if name.strip().split(".")[0] == "torbound" and len(name) - len(name.lstrip()) == 1:
            total_us += int(fields[1])
    return total_us / 1e3


def interpreter_probes():
    """(median torbound import ms, median bare interpreter start ms)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    imports, floors = [], []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        floors.append(clock() - t0)
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import torbound.cli"],
                             env=env, check=True, capture_output=True, text=True)
        imports.append(_import_ms(out.stderr))
    return statistics.median(imports), _median_ms(floors)


def traced(wl, ops, seconds):
    rec = tracer.SpanRecorder(counters=SPAN_COUNTERS, distinct=DISTINCT_PREFIXES)
    with_trace, without = Phase(len(ops)), Phase(len(ops))
    verified = {}
    deadline = clock() + seconds
    # alternate traced and untraced passes, so a swing in machine speed
    # falls on both sides of the overhead ratio
    while clock() < deadline:
        run_pass(wl, ops, with_trace, verified, rec, deadline)
        run_pass(wl, ops, without, verified, deadline=deadline)
    metrics = layer_metrics(rec, max(with_trace.attempted, 1))
    metrics["witt.ring_build_ms"] = (ring_build_ms(load_program()[0]), "ms")
    import_ms, floor_ms = interpreter_probes()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.python_floor_ms"] = (floor_ms, "ms")
    both = set(with_trace.done()) & set(without.done())
    overhead = _ratio(sum(with_trace.best[i] for i in both),
                      sum(without.best[i] for i in both)) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return with_trace, without, metrics


def environment():
    """Revision, interpreter and machine load, so a noisy neighbour shows."""
    rev = "none"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "torbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "torbound" / "__init__.py").is_file():
        print(f"error: no torbound sources under {SRC}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True))
    wl = workloads.make(args.workload)
    ops = wl.make_ops(args.seed)
    if args.trace:
        ph, untraced, metrics = traced(wl, ops, args.seconds)
        attempted = ph.attempted + untraced.attempted
        failed = ph.failed + untraced.failed
        print(f"# {args.workload}: {len(ops)} ops x {ph.passes} traced passes, "
              f"alternating with {untraced.passes} untraced")
    else:
        setup_imports = [load_program()[1] for _ in range(SETUP_REPEATS)]
        ph, metrics = end_to_end(wl, ops, args.seconds, setup_imports)
        attempted, failed = ph.attempted, ph.failed
        print(f"# {args.workload}: {len(ops)} ops x {ph.passes} passes, "
              f"each op timed at its fastest pass; {sum(ph.items)} items per pass")
    print(f"fail_frac = {failed / max(attempted, 1)!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
