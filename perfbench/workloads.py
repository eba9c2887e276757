"""The benchmark's two workloads.

Each workload turns a seed into the run's list of op inputs, runs one op
against the program through its public entry points, and checks the op's
output with the oracles. The run loop repeats the whole list (a pass), each
time on a freshly imported program, until its time is up, and keeps each
op's fastest pass: on a shared 2-vCPU host the speed swings by a third over
windows of a few seconds, and the minimum over passes spread across the run
is the figure that repeats from run to run.
"""

import contextlib
import io
import random
import time

from . import oracles

clock = time.perf_counter


class OpResult:
    """Program time of one op, time until its first output item, the number
    of items it produced, and the output to check."""

    __slots__ = ("seconds", "first", "items", "output")

    def __init__(self, seconds, first, items, output):
        self.seconds, self.first, self.items, self.output = seconds, first, items, output


def seeded(workload, seed):
    return random.Random(f"{workload}:{seed}")


class _Capture(io.StringIO):
    """stdout stand-in that notes when the second line (the first CSV data
    row, after the header) is written."""

    def __init__(self):
        super().__init__()
        self.lines_written = 0
        self.first_row_at = None

    def write(self, text):
        n = super().write(text)
        if self.first_row_at is None:
            self.lines_written += text.count("\n")
            if self.lines_written >= 2:
                self.first_row_at = clock()
        return n


def cli_in_process(pkg, argv):
    """cli.main(argv) with stdout captured: (exit code, stdout, first-row time)."""
    out = _Capture()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue(), out.first_row_at


class PrimeSweep:
    """One in-process `bound --sweep-p FROM:TO --format csv` per op.

    The run cycles ROUNDS times over three fixed shapes; each op's range is
    seeded and holds exactly ROWS admissible primes, so every row repeats the
    same shape-level work and op latency does not depend on range widths.
    """

    name = "prime-sweep"
    ROUNDS = 10
    ROWS = 12
    SHAPES = (
        (8, 4, (2, 2, 2, 2), 1),
        (12, 6, (1, 2, 3, 1, 2, 3), 2),
        (10, 5, (3, 1, 2, 2, 1), 1),
    )
    FROM_SPAN = (-40, 4000)

    def __init__(self):
        top = max(oracles.threshold(*shape) for shape in self.SHAPES)
        self.flags = oracles.sieve(top + self.FROM_SPAN[1] + 4000)

    def _primes_from(self, start, count):
        out = []
        k = start
        while len(out) < count:
            if self.flags[k]:
                out.append(k)
            k += 1
        return out

    def make_ops(self, seed):
        rng = seeded(self.name, seed)
        ops = []
        for n, c, exps, d in self.SHAPES * self.ROUNDS:
            t = oracles.threshold(n, c, exps, d)
            lo = t + rng.randint(*self.FROM_SPAN)
            primes = self._primes_from(max(lo, t + 1), self.ROWS + 1)
            hi = rng.randint(primes[-2], primes[-1] - 1)
            if len(set(exps)) == 1:
                shape_args = ["--e", str(exps[0])]
            else:
                shape_args = ["--e-list", ",".join(map(str, exps))]
            argv = ["bound", "--n", str(n), "--c", str(c), *shape_args, "--degL", str(d),
                    "--sweep-p", f"{lo}:{hi}", "--format", "csv"]
            ops.append((argv, (n, c, exps, d), tuple(primes[:-1])))
        return ops

    def run_op(self, pkg, op):
        t0 = clock()
        code, text, first_row_at = cli_in_process(pkg, op[0])
        dt = clock() - t0
        first = dt if first_row_at is None else first_row_at - t0
        return OpResult(dt, first, max(text.count("\n") - 1, 0), (code, text))

    def check(self, op, output):
        _, (n, c, exps, d), primes = op
        code, text = output
        bad = [] if code == 0 else [f"exit code {code}"]
        if text != oracles.sweep_csv(n, c, exps, d, primes):
            bad.append("csv output")
        return bad


class WittRingOps:
    """A fresh W2(F_q) and a seeded batch of BATCH operations per op.

    The fresh ring keeps the carry memo cold at the start of every op, so the
    run does not drift as a long-lived ring warms. The fields cover both memo
    regimes: q = 9 and 25 revisit residue pairs, q = 101 and 343 mostly miss.
    Ops cost about 5, 7, 30 and 130 ms on F_9, F_25, F_343 and F_101, and
    each field gets enough batches that the run's figures do not hinge on
    one seed's draw.
    """

    name = "witt-ring"
    BATCH = 48
    FIELDS = ((101, None), (3, (2, 2, 1)), (5, (2, 0, 1)), (7, (4, 0, 0, 1)))
    BATCHES = (8, 16, 31, 8)   # per field, in FIELDS order
    KINDS = ("add", "sub", "neg", "mul", "frobenius", "verschiebung", "times", "add_sub")

    def __init__(self):
        self.oracles = {(p, m): oracles.WittOracle(p, m) for p, m in self.FIELDS}

    def make_ops(self, seed):
        rng = seeded(self.name, seed)
        ops = []
        fields = [f for k in range(max(self.BATCHES))
                  for f, count in zip(self.FIELDS, self.BATCHES) if k < count]
        for p, modulus in fields:
            deg = 1 if modulus is None else len(modulus) - 1
            kinds = self.KINDS + (("ghost",) if modulus is None else ())

            def pair():
                return tuple(tuple(rng.randrange(p) for _ in range(deg)) for _ in range(2))

            # every kind equally often, and times(k) over the same spread of
            # k in 2..12, in shuffled order, so a batch's cost does not hinge
            # on the draw; the opening add makes the first result always
            # cost one cold carry
            rest = [(kinds[i % len(kinds)], 2 + i % 11) for i in range(self.BATCH - 1)]
            rng.shuffle(rest)
            batch = tuple((kind, pair(), pair(), k) for kind, k in [("add", 2)] + rest)
            ops.append((p, modulus, batch))
        return ops

    def run_op(self, pkg, op):
        p, modulus, batch = op
        t0 = clock()
        field = pkg.FiniteField(p) if modulus is None else pkg.FiniteField(p, modulus)
        ring = pkg.WittRing(field)
        results = []
        first = None
        for kind, xa, ya, k in batch:
            x = ring.element(*xa)
            if kind == "add":
                r = x + ring.element(*ya)
            elif kind == "sub":
                r = x - ring.element(*ya)
            elif kind == "mul":
                r = x * ring.element(*ya)
            elif kind == "add_sub":
                y = ring.element(*ya)
                r = (x + y) - y
            elif kind == "neg":
                r = -x
            elif kind == "frobenius":
                r = x.frobenius()
            elif kind == "verschiebung":
                r = x.verschiebung()
            elif kind == "times":
                r = x.times(k)
            else:
                r = x.ghost()
            results.append(r)
            if first is None:
                first = clock() - t0
        dt = clock() - t0
        out = [r if isinstance(r, int) else (r.a0.coeffs, r.a1.coeffs) for r in results]
        return OpResult(dt, first, len(batch), out)

    def check(self, op, output):
        p, modulus, batch = op
        oracle = self.oracles[p, modulus]
        gr = oracle.ghost_ring
        bad = [] if len(output) == len(batch) else ["result count"]
        for i, ((kind, x, y, k), got) in enumerate(zip(batch, output)):
            if kind == "ghost":
                ok = got == oracle.w(x)[0]
            elif kind == "frobenius":
                ok = got == oracle.frobenius(x)
            elif kind == "verschiebung":
                ok = got == ((0,) * len(x[0]), x[0])
            elif kind == "add_sub":
                ok = got == x
            else:
                wx, wy = oracle.w(x), oracle.w(y)
                if kind == "add":
                    want = gr.add(wx, wy)
                elif kind == "sub":
                    want = gr.add(wx, wy, -1)
                elif kind == "neg":
                    want = gr.scale(wx, -1)
                elif kind == "mul":
                    want = gr.mul(wx, wy)
                else:  # times(k) is k repeated additions
                    want = gr.scale(wx, k)
                ok = oracle.w(got) == want
            if not ok:
                bad.append(f"{kind} #{i}")
        return bad


NAMES = ("prime-sweep", "witt-ring")


def make(name):
    if name == "prime-sweep":
        return PrimeSweep()
    if name == "witt-ring":
        return WittRingOps()
    raise ValueError(f"unknown workload {name!r}")
