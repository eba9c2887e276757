"""Self-time arithmetic and callable discovery of the span recorder."""

import sys
import types

import pytest

from perfbench import run, tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    rec = tracer.SpanRecorder(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def mid():
        clock.advance(1)
        rec.span("b.leaf", leaf, 2)
        clock.advance(3)
        rec.span("b.leaf", leaf, 4)

    def root():
        clock.advance(10)
        rec.span("a.mid", mid)
        clock.advance(5)

    rec.span("a.root", root)
    st = rec.stats
    assert st["a.root"].self_time == 15
    assert st["a.mid"].self_time == 4
    assert st["b.leaf"].calls == 2 and st["b.leaf"].self_time == 6
    assert sum(s.self_time for s in st.values()) == 25


def test_recursion_counts_each_level_once():
    clock = FakeClock()
    rec = tracer.SpanRecorder(clock=clock)

    def walk(depth):
        clock.advance(1)
        if depth:
            rec.span("a.walk", walk, depth - 1)

    rec.span("a.walk", walk, 2)
    assert rec.stats["a.walk"].calls == 3
    assert rec.stats["a.walk"].self_time == 3


def test_a_raising_span_still_closes():
    clock = FakeClock()
    rec = tracer.SpanRecorder(clock=clock)

    def boom():
        clock.advance(2)
        raise ValueError

    def outer():
        with pytest.raises(ValueError):
            rec.span("a.boom", boom)
        clock.advance(1)

    rec.span("a.outer", outer)
    assert rec.stats["a.outer"].self_time == 1
    assert rec.stats["a.boom"].self_time == 2


def test_counters_and_distinct_arguments_per_op():
    rec = tracer.SpanRecorder(counters={"a.f": lambda args, result: len(result)},
                              distinct=("a.",))
    for m in (1, 2, 1):
        rec.span("a.f", lambda k: [0] * k, m)
    rec.end_op()
    rec.span("a.f", lambda k: [0] * k, 1)
    rec.end_op()
    st = rec.stats["a.f"]
    assert (st.calls, st.items, st.distinct) == (4, 5, 3)


@pytest.fixture
def fake_package():
    core = types.ModuleType("fakepkg.core")
    exec(
        "def work(x):\n    return x + 1\n"
        "def _hidden():\n    return 0\n"
        "class Thing:\n"
        "    def go(self):\n        return work(1)\n"
        "    def __add__(self, other):\n        return 3\n"
        "    def __repr__(self):\n        return 'Thing'\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.work = core.work
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


def test_patch_finds_callables_by_module_in_every_namespace(fake_package):
    core, user = fake_package["fakepkg.core"], fake_package["fakepkg.user"]
    original = core.work
    rec = tracer.SpanRecorder()
    patch = tracer.Patch(rec, {"fakepkg.core": "core"}).install()
    assert user.work(1) == 2
    thing = core.Thing()
    assert thing.go() == 2 and thing + thing == 3 and repr(thing) == "Thing"
    assert rec.stats["core.work"].calls == 2   # via user and via the method
    assert rec.stats["core.Thing.go"].calls == 1
    assert rec.stats["core.Thing.__add__"].calls == 1
    assert not any("hidden" in name or "repr" in name for name in rec.stats)
    patch.restore()
    assert core.work is original and user.work is original


def test_import_time_parser():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 | argparse\n"
        "import time:        50 |       3000 | torbound\n"
        "import time:       500 |       2000 |   torbound.bounds\n"
        "import time:       400 |       1200 | torbound.cli\n"
    )
    assert run._import_ms(stderr) == 4.2
