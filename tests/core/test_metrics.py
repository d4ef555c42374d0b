"""Unit tests for the pipeline metrics registry."""

import threading

from repro.core.metrics import MetricsRegistry


class TestCounters:
    def test_incr_and_read_per_thread(self):
        registry = MetricsRegistry()
        registry.incr("decode.packets", 5, tid=1)
        registry.incr("decode.packets", 7, tid=2)
        registry.incr("decode.packets", 3, tid=1)
        assert registry.counter("decode.packets", tid=1) == 8
        assert registry.counter("decode.packets", tid=2) == 7
        assert registry.counter("decode.packets") == 15

    def test_missing_counter_is_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("nope") == 0
        assert registry.counter("nope", tid=3) == 0

    def test_global_and_per_thread_keys_are_distinct(self):
        registry = MetricsRegistry()
        registry.incr("x", 1)  # global (tid=None)
        registry.incr("x", 2, tid=0)
        assert registry.counter("x", tid=0) == 2
        assert registry.counter("x") == 3  # aggregate includes both


class TestTimingsAndMaxima:
    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        with registry.timer("decode", tid=1):
            pass
        with registry.timer("decode", tid=1):
            pass
        assert registry.timing("decode", tid=1) > 0
        assert registry.timing("decode") == registry.timing("decode", tid=1)

    def test_observe_max_keeps_high_water_mark(self):
        registry = MetricsRegistry()
        registry.observe_max("frontier", 4, tid=0)
        registry.observe_max("frontier", 2, tid=0)
        registry.observe_max("frontier", 9, tid=1)
        assert registry.maximum("frontier", tid=0) == 4
        assert registry.maximum("frontier") == 9
        assert registry.maximum("absent") == 0.0

    def test_tids_enumerates_threads_seen(self):
        registry = MetricsRegistry()
        registry.incr("a", tid=3)
        registry.add_time("p", 0.1, tid=1)
        registry.observe_max("m", 5, tid=2)
        registry.incr("g")  # global: not a tid
        assert registry.tids() == [1, 2, 3]


class TestMergeAndSnapshot:
    def test_merge_folds_all_kinds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.incr("c", 1, tid=0)
        right.incr("c", 2, tid=0)
        right.add_time("p", 0.5, tid=1)
        right.observe_max("m", 7, tid=1)
        left.set_gauge("g", 4.0, tid=2)
        right.set_gauge("g", 1.0, tid=2)
        right.set_state("s", "degraded", tid=3)
        left.merge(right)
        assert left.counter("c", tid=0) == 3
        assert left.timing("p", tid=1) == 0.5
        assert left.maximum("m", tid=1) == 7
        assert left.gauge("g", tid=2) == 1.0
        assert left.state("s", tid=3) == "degraded"

    def test_merge_keeps_the_higher_maximum(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.observe_max("m", 9, tid=0)
        right.observe_max("m", 7, tid=0)
        left.merge(right)
        assert left.maximum("m", tid=0) == 9

    def test_merge_leaves_the_other_registry_unchanged(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.incr("c", 1, tid=0)
        left.observe_max("m", 9, tid=0)
        right.incr("c", 2, tid=0)
        right.observe_max("m", 7, tid=0)
        before = right.snapshot()
        left.merge(right)
        assert right.snapshot() == before

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.incr("decode.packets", 4, tid=0)
        registry.incr("decode.packets", 6, tid=1)
        registry.observe_max("project.frontier_peak", 3, tid=0)
        snapshot = registry.snapshot()
        packets = snapshot["counters"]["decode.packets"]
        assert packets["total"] == 10
        assert packets["by_thread"] == {0: 4, 1: 6}
        peak = snapshot["maxima"]["project.frontier_peak"]
        assert peak["total"] == 3


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        rounds = 2_000

        def worker(tid):
            for _ in range(rounds):
                registry.incr("hits", tid=tid)
                registry.observe_max("peak", tid, tid=tid)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("hits") == 4 * rounds
        for tid in range(4):
            assert registry.counter("hits", tid=tid) == rounds

    def test_registries_merging_into_each_other_do_not_deadlock(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.incr("c", 1)
        right.incr("c", 1)
        rounds = 500

        def fold(into, source):
            for _ in range(rounds):
                into.merge(source)

        threads = [
            threading.Thread(target=fold, args=pair, daemon=True)
            for pair in ((left, right), (right, left))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert left.counter("c") > 1 and right.counter("c") > 1
