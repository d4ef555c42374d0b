import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("analyze", "a/0"):
        clock.now += 1.0
        with tracer.span("decode", "a/0"):
            clock.now += 3.0
        with tracer.span("recover", "a/0"):
            clock.now += 2.0
            with tracer.span("inner", "a/0"):
                clock.now += 0.5
        clock.now += 0.25
    selfs = tracer.self_times()
    assert selfs == pytest.approx([1.25, 3.0, 2.0, 0.5])
    # Self times partition the root's duration exactly.
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration)


def test_self_by_op_groups_under_root_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    for op, work in (("a/0", 1.0), ("b/0", 2.0)):
        with tracer.span("analyze", op):
            with tracer.span("decode", op):
                clock.now += work
            clock.now += 0.1
    with tracer.span("stream.poll", "all/0"):  # not under a root
        clock.now += 5.0
    by_op = tracer.self_by_op("analyze")
    assert set(by_op) == {"a/0", "b/0"}
    assert by_op["a/0"]["decode"] == pytest.approx(1.0)
    assert by_op["b/0"]["analyze"] == pytest.approx(0.1)
    assert tracer.durations("stream.poll") == pytest.approx([5.0])


def test_counts_and_parents():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("analyze", "a/0"):
        with tracer.span("decode", "a/0"):
            tracer.count("steps", "a/0", 10)
        tracer.count("steps", "a/0", 5)
    assert tracer.counts_by_op()["a/0"]["steps"] == 15
    assert [span.parent for span in tracer.spans] == [None, 0]
