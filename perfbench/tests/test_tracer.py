"""Tests of the benchmark's own machinery: wrapper install and removal,
self-time arithmetic, the per-layer remainder, and the tail rule.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from shares import outermost_ns  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402
from workloads import stratified_points  # noqa: E402


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.lib`` defines ``work``; ``fakepkg.user`` imported it by
    name and under an alias, the way program modules do."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x * 2

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    lib.work = work
    lib.Base, lib.Child = Base, Child
    user.work = work
    user.do_work = work
    for name, mod in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return lib, user


def counting(calls):
    def make(original):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return wrapped

    return make


def test_patch_function_rebinds_aliases_and_restores(fake_package):
    lib, user = fake_package
    original = lib.work
    calls = []
    patcher = Patcher(prefix="fakepkg")
    patcher.patch_function(lib, "work", counting(calls))
    assert lib.work is not original
    assert user.work is lib.work and user.do_work is lib.work
    assert user.do_work(3) == 6 and len(calls) == 1
    patcher.restore()
    assert lib.work is original
    assert user.work is original and user.do_work is original
    assert patcher.active == 0


def test_patch_method_own_and_inherited(fake_package):
    lib, _user = fake_package
    calls = []
    patcher = Patcher(prefix="fakepkg")
    patcher.patch_method(lib.Child, "own", counting(calls))
    patcher.patch_method(lib.Child, "step", counting(calls))
    child = lib.Child()
    assert child.own() == "own" and child.step() == "base"
    assert lib.Base().step() == "base"  # the base class is untouched
    assert len(calls) == 2
    patcher.restore()
    assert "step" not in lib.Child.__dict__
    assert lib.Child.__dict__["own"].__name__ == "own"
    child.own()
    child.step()
    assert len(calls) == 2


def test_restore_undoes_stacked_wrappers_in_order(fake_package):
    lib, user = fake_package
    original = lib.work
    patcher = Patcher(prefix="fakepkg")
    inner, outer = [], []
    patcher.patch_function(lib, "work", counting(inner))
    patcher.patch_function(lib, "work", counting(outer))
    assert user.work(1) == 2 and len(inner) == len(outer) == 1
    patcher.restore()
    assert lib.work is original and user.work is original


def test_self_time_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("root")          # t=0
    clock.now = 10
    a = tracer.enter("a")                # t=10
    clock.now = 15
    hot = tracer.enter("h", hot=True)    # t=15
    clock.now = 18
    tracer.exit(hot)                     # h: 3
    clock.now = 30
    b = tracer.enter("b")                # t=30
    clock.now = 37
    tracer.exit(b)                       # b: 7
    clock.now = 40
    tracer.exit(a)                       # a: 30, self 30 - 3 - 7 = 20
    clock.now = 50
    tracer.exit(root)                    # root: 50, self 50 - 30 = 20
    assert tracer.totals["a"] == [1, 30, 20]
    assert tracer.totals["h"] == [1, 3, 3]
    assert tracer.totals["b"] == [1, 7, 7]
    assert tracer.totals["root"] == [1, 50, 20]
    assert sum(entry[2] for entry in tracer.totals.values()) == 50
    # hot spans are aggregated, not stored; stored parents skip them
    names = [span[0] for span in tracer.spans]
    assert names == ["root", "a", "b"]
    assert tracer.spans[2][3] == 1 and tracer.spans[1][3] == 0
    assert tracer.spans[1][1:3] == [10, 40]


def test_out_of_order_exit_is_refused():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_wrapper_spans_op_ids_and_post_hook_on_raise(fake_package):
    lib, user = fake_package
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def post(tr, args, kwargs, result):
        seen.append(result)

    def boom(x):
        clock.now += 5
        raise ValueError(x)

    lib.boom = boom
    patcher = Patcher(prefix="fakepkg")
    patcher.patch_function(lib, "work", tracer.wrapper("op", op=True))
    patcher.patch_function(lib, "boom", tracer.wrapper("boom", post=post))
    lib.work(1)
    lib.work(2)
    with pytest.raises(ValueError):
        lib.boom(3)
    patcher.restore()
    assert [span[4] for span in tracer.spans] == [0, 1, 1]
    assert seen == [None]
    assert tracer.totals["boom"] == [1, 5, 5]
    assert tracer._stack == []


def test_hot_wrapper_matches_enter_exit_arithmetic(fake_package):
    lib, _user = fake_package
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(x):
        clock.now += 4
        return x

    def outer(x):
        clock.now += 10
        lib.leaf(x)
        clock.now += 1
        return x

    lib.leaf, lib.outer = leaf, outer
    patcher = Patcher(prefix="fakepkg")
    patcher.patch_function(lib, "leaf", tracer.wrapper("leaf", hot=True))
    patcher.patch_function(lib, "outer", tracer.wrapper("outer"))
    root = tracer.enter("rep")
    lib.outer(1)
    lib.leaf(2)
    tracer.exit(root)
    patcher.restore()
    assert tracer.totals["leaf"] == [2, 8, 8]
    assert tracer.totals["outer"] == [1, 15, 11]
    assert tracer.totals["rep"] == [1, 19, 0]
    assert [span[0] for span in tracer.spans] == ["rep", "outer"]


def test_per_layer_remainder_sums_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("rep")
    clock.now = 100
    run_span = tracer.enter("Machine.run")
    clock.now = 150
    cb = tracer.enter("CapriSystem.on_store", hot=True)
    clock.now = 170
    tracer.exit(cb)
    clock.now = 400
    tracer.exit(run_span)
    clock.now = 450
    op = tracer.enter("op:execute_spec")
    clock.now = 500
    tracer.exit(op)
    clock.now = 1000
    tracer.exit(root)
    out = layers.per_layer_metrics(
        tracer, wall_ns=tracer.totals["rep"][1], instructions=7,
        outcomes={"ok": 2}, extras={"fault.points": 2},
    )
    assert out["isa.interp_s"] == pytest.approx(280e-9)
    assert out["arch.observer_s"] == pytest.approx(20e-9)
    assert out["traced_wall_s"] == pytest.approx(1000e-9)
    named = sum(
        value for name, value in out.items()
        if layers.PER_LAYER[name] == "s" and name not in ("traced_wall_s", "other_s")
    )
    assert named + out["other_s"] == pytest.approx(out["traced_wall_s"])
    assert out["other_s"] == pytest.approx(700e-9)  # root self + op span
    assert out["fault.outcomes.ok"] == 2 and out["fault.points"] == 2
    combined = layers.combine([out, out], overhead_pct=3.0)
    assert combined["isa.instructions"] == 14
    assert combined["isa.ns_per_instr"] == pytest.approx(560 / 14)
    assert combined["tracing_overhead_pct"] == 3.0


def test_outermost_ns_counts_nested_group_spans_once():
    spans = [
        ["rep", 0, 100, -1, -1],
        ["recover", 10, 40, 0, 0],
        ["run_recovery", 12, 38, 1, 0],
        ["run_recovery", 50, 60, 0, 1],
    ]
    assert outermost_ns(spans, ("recover", "run_recovery")) == 40
    assert outermost_ns(spans, ("run_recovery",)) == 36


def test_tail_rule_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1000)]) == (90.0, 899.0)
    assert run.tail([float(i) for i in range(99)])[0] == 75.0
    assert run.tail([1.0] * 12)[0] == 50.0


def test_stratified_points_are_seeded_and_cover_each_slice():
    import random

    points = stratified_points(random.Random("s"), 1000, 40)
    assert points == stratified_points(random.Random("s"), 1000, 40)
    assert points == sorted(points) and points[0] == 0 and points[-1] == 999
    slices = {p // 25 for p in points}
    assert slices == set(range(40))
    assert stratified_points(random.Random(1), 3, 40) == [0, 1, 2]


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
