"""Persistent analysis-cache coverage: hits, and every way to miss.

The cache's contract mirrors the archive layer's salvage semantics: no
state of the cache file may ever raise or change analysis results -- a
damaged entry reads as a miss (cold rebuild) and publishes a
``cache.anomaly.<kind>`` counter.  Each failure mode gets a directed
test: corruption, stale format version, and partial write (truncation),
plus store-failure and the warm-run skip-determinize verification the
ISSUE's acceptance criteria name.
"""

import os
import pickle

import repro.analysis.report as report_module
from repro.core import JPortal
from repro.core.dfacache import (
    ANOMALY_CORRUPT,
    ANOMALY_STALE_VERSION,
    ANOMALY_STORE_FAILED,
    ANOMALY_TRUNCATED,
    CACHE_METRIC_PREFIX,
    CACHE_VERSION,
    MAGIC,
    AnalysisCache,
    analysis_cache_key,
)

from ..conftest import build_figure2_program, lossless_config, run_program_traced


def _entry_path(cache_dir, program):
    return AnalysisCache(str(cache_dir)).path_for(analysis_cache_key(program))


class TestCacheRoundTrip:
    def test_cold_build_stores_then_warm_build_hits(self, figure2, tmp_path):
        cold = JPortal(figure2, cache_dir=str(tmp_path))
        assert cold._cache_events == {"cache.misses": 1, "cache.stores": 1}
        assert os.path.exists(_entry_path(tmp_path, figure2))
        warm = JPortal(figure2, cache_dir=str(tmp_path))
        assert warm._cache_events == {"cache.hits": 1}
        # The loaded report carries the same verdicts as the rebuilt one.
        assert sorted(warm.analysis_report.checks) == sorted(
            cold.analysis_report.checks
        )
        assert warm.analysis_report.summary()["decodable"] == (
            cold.analysis_report.summary()["decodable"]
        )

    def test_key_is_stable_and_content_sensitive(self, figure2):
        assert analysis_cache_key(figure2) == analysis_cache_key(figure2)
        other = build_figure2_program(iterations=7)
        # Same structure, different constant -> different bytecode digest.
        assert analysis_cache_key(other) != analysis_cache_key(figure2)
        # Opaque-site choice is part of the identity.
        assert analysis_cache_key(figure2, [("Test.main", 9)]) != (
            analysis_cache_key(figure2)
        )

    def test_frontend_is_part_of_the_cache_identity(self, figure2, tmp_path):
        """Regression: a report built under one frontend's projection
        model must never satisfy a lookup for another frontend.  Before
        the key folded the frontend in, a pt-warmed cache served pt
        verdicts to an etrace analysis."""
        pt_key = analysis_cache_key(figure2)
        assert pt_key == analysis_cache_key(figure2, frontend="pt")
        etrace_key = analysis_cache_key(figure2, frontend="etrace")
        assert pt_key != etrace_key
        # Bumping a model's version (a projection-semantics change)
        # invalidates that frontend's entries without touching others.
        assert analysis_cache_key(figure2, frontend="pt", model_version=2) != pt_key
        assert analysis_cache_key(
            figure2, frontend="etrace", model_version=2
        ) != etrace_key

        # End to end: warming the cache under pt leaves etrace cold.
        JPortal(figure2, cache_dir=str(tmp_path))  # pt populate
        crossed = JPortal(
            figure2, cache_dir=str(tmp_path), analysis_frontend="etrace"
        )
        assert crossed._cache_events == {"cache.misses": 1, "cache.stores": 1}
        assert crossed.analysis_report.frontend == "etrace"
        # And each frontend now hits its own entry.
        assert JPortal(figure2, cache_dir=str(tmp_path))._cache_events == {
            "cache.hits": 1
        }
        warm_etrace = JPortal(
            figure2, cache_dir=str(tmp_path), analysis_frontend="etrace"
        )
        assert warm_etrace._cache_events == {"cache.hits": 1}
        assert warm_etrace.analysis_report.frontend == "etrace"

    def test_warm_build_produces_identical_results(self, figure2, tmp_path):
        run = run_program_traced(figure2)
        config = lossless_config()
        baseline = JPortal(figure2).analyze_run(run, config)
        JPortal(figure2, cache_dir=str(tmp_path))  # populate
        warm = JPortal(figure2, cache_dir=str(tmp_path)).analyze_run(run, config)
        assert warm.flows == baseline.flows
        assert warm.anomalies_by_kind == baseline.anomalies_by_kind

    def test_warm_run_skips_subset_construction(
        self, figure2, tmp_path, monkeypatch
    ):
        """Acceptance criterion: a warm-cache repeat runs no subset
        construction and reports ~zero ``analysis.static`` time.  The
        construction is counted at ``analyze_program``, which
        ``JPortal._static_analysis`` imports at call time."""
        run = run_program_traced(figure2)
        config = lossless_config()
        JPortal(figure2, cache_dir=str(tmp_path))  # populate
        calls = []
        build = report_module.analyze_program

        def counting_build(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(report_module, "analyze_program", counting_build)
        JPortal(figure2).analyze_run(run, config)
        cold_calls = len(calls)
        warm = JPortal(figure2, cache_dir=str(tmp_path)).analyze_run(run, config)
        assert cold_calls >= 1
        assert len(calls) == cold_calls  # the warm build constructed nothing
        warm_static = warm.metrics.timings_by_prefix("analysis")[".static"]
        assert warm_static < 0.05  # a disk load, not a determinize
        assert warm.metrics.counter("cache.hits") == 1


class TestCacheFailureModes:
    """One directed test per damage class; none may raise."""

    def _damage_then_rebuild(self, program, tmp_path, damage):
        JPortal(program, cache_dir=str(tmp_path))  # populate
        path = _entry_path(tmp_path, program)
        damage(path)
        rebuilt = JPortal(program, cache_dir=str(tmp_path))
        return rebuilt, path

    def test_corrupt_payload_falls_back_to_cold_build(self, figure2, tmp_path):
        def flip_payload_bytes(path):
            blob = bytearray(open(path, "rb").read())
            blob[-10] ^= 0xFF
            open(path, "wb").write(bytes(blob))

        rebuilt, path = self._damage_then_rebuild(
            figure2, tmp_path, flip_payload_bytes
        )
        events = rebuilt._cache_events
        assert events[CACHE_METRIC_PREFIX + ANOMALY_CORRUPT] == 1
        assert events["cache.misses"] == 1
        assert events["cache.stores"] == 1  # cold result re-persisted
        # The rewritten entry is valid again.
        assert JPortal(figure2, cache_dir=str(tmp_path))._cache_events == {
            "cache.hits": 1
        }

    def test_bad_magic_counts_as_corrupt(self, figure2, tmp_path):
        def clobber_magic(path):
            blob = bytearray(open(path, "rb").read())
            blob[:4] = b"XXXX"
            open(path, "wb").write(bytes(blob))

        rebuilt, _ = self._damage_then_rebuild(figure2, tmp_path, clobber_magic)
        assert rebuilt._cache_events[CACHE_METRIC_PREFIX + ANOMALY_CORRUPT] == 1

    def test_stale_version_falls_back_to_cold_build(self, figure2, tmp_path):
        def bump_version(path):
            blob = bytearray(open(path, "rb").read())
            assert blob[:4] == MAGIC
            blob[4] = (CACHE_VERSION + 1) & 0xFF
            open(path, "wb").write(bytes(blob))

        rebuilt, _ = self._damage_then_rebuild(figure2, tmp_path, bump_version)
        events = rebuilt._cache_events
        assert events[CACHE_METRIC_PREFIX + ANOMALY_STALE_VERSION] == 1
        assert events["cache.misses"] == 1

    def test_partial_write_falls_back_to_cold_build(self, figure2, tmp_path):
        def truncate(path):
            size = os.path.getsize(path)
            with open(path, "rb+") as handle:
                handle.truncate(size // 2)

        rebuilt, _ = self._damage_then_rebuild(figure2, tmp_path, truncate)
        assert rebuilt._cache_events[CACHE_METRIC_PREFIX + ANOMALY_TRUNCATED] == 1

    def test_header_only_fragment_counts_truncated(self, figure2, tmp_path):
        def to_fragment(path):
            open(path, "wb").write(b"JP")

        rebuilt, _ = self._damage_then_rebuild(figure2, tmp_path, to_fragment)
        assert rebuilt._cache_events[CACHE_METRIC_PREFIX + ANOMALY_TRUNCATED] == 1

    def test_valid_checksum_bad_pickle_counts_corrupt(self, figure2, tmp_path):
        """A consistent entry whose body isn't a pickled report (e.g. a
        hostile rewrite) still degrades to a cold build."""
        import hashlib
        import struct

        cache = AnalysisCache(str(tmp_path))
        body = b"not a pickle at all"
        header = struct.pack(
            "<4sI32sQ", MAGIC, CACHE_VERSION, hashlib.sha256(body).digest(), len(body)
        )
        key = analysis_cache_key(figure2)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(header + body)
        rebuilt = JPortal(figure2, cache_dir=str(tmp_path))
        assert rebuilt._cache_events[CACHE_METRIC_PREFIX + ANOMALY_CORRUPT] == 1

    def test_unwritable_cache_dir_never_raises(self, figure2, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        jportal = JPortal(figure2, cache_dir=str(blocker))
        events = jportal._cache_events
        assert events[CACHE_METRIC_PREFIX + ANOMALY_STORE_FAILED] == 1
        assert jportal.analysis_report is not None  # cold build succeeded

    def test_anomalies_surface_on_result_metrics(self, figure2, tmp_path):
        """Cache damage is visible on the same surfaces as decode and
        archive damage: run metrics and ``anomalies_by_kind``."""
        def truncate(path):
            with open(path, "rb+") as handle:
                handle.truncate(8)

        rebuilt, _ = self._damage_then_rebuild(figure2, tmp_path, truncate)
        run = run_program_traced(figure2)
        result = rebuilt.analyze_run(run, lossless_config())
        assert result.metrics.counter(
            CACHE_METRIC_PREFIX + ANOMALY_TRUNCATED
        ) == 1
        assert result.anomalies_by_kind.get(ANOMALY_TRUNCATED) == 1


class TestCachePrimitives:
    def test_store_and_load_arbitrary_object(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        assert cache.store("k" * 8, {"payload": list(range(10))})
        assert cache.load("k" * 8) == {"payload": list(range(10))}
        assert cache.events == {"cache.stores": 1, "cache.hits": 1}

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        assert cache.load("absent") is None
        assert cache.events == {"cache.misses": 1}

    def test_atomic_replace_leaves_no_temp_files(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        for round_trip in range(3):
            assert cache.store("samekey", round_trip)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []
        assert cache.load("samekey") == 2

    def test_entry_survives_pickle_of_loaded_report(self, figure2, tmp_path):
        """Loaded reports are themselves picklable (process workers ship
        analyser state built from them)."""
        JPortal(figure2, cache_dir=str(tmp_path))
        cache = AnalysisCache(str(tmp_path))
        report = cache.load(analysis_cache_key(figure2))
        assert report is not None
        assert pickle.loads(pickle.dumps(report)).checks.keys() == report.checks.keys()


class TestCacheConcurrency:
    """The temp+rename store must be safe under concurrent access: a
    reader racing a writer sees either the old value, the new value, or
    a miss -- never a partial write, never an exception, and never a
    ``cache.anomaly.*`` event caused purely by the race."""

    def test_store_load_race_never_yields_partial_entry(self, tmp_path):
        import threading

        key = "racekey1"
        payload = {"table": list(range(5000)), "tag": "x" * 4096}
        stop = threading.Event()
        failures = []

        def writer(cache):
            while not stop.is_set():
                if not cache.store(key, payload):
                    failures.append("store returned False")

        def reader(cache):
            while not stop.is_set():
                got = cache.load(key)
                if got is not None and got != payload:
                    failures.append("partial entry observed")

        caches = [AnalysisCache(str(tmp_path)) for _ in range(4)]
        threads = [
            threading.Thread(target=writer, args=(caches[0],)),
            threading.Thread(target=writer, args=(caches[1],)),
            threading.Thread(target=reader, args=(caches[2],)),
            threading.Thread(target=reader, args=(caches[3],)),
        ]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()

        assert failures == []
        for cache in caches:
            anomalies = {
                name: count
                for name, count in cache.events.items()
                if name.startswith("cache.anomaly.")
            }
            assert anomalies == {}, anomalies
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []
        assert AnalysisCache(str(tmp_path)).load(key) == payload

    def test_many_writers_distinct_keys_all_land(self, tmp_path):
        import threading

        def hammer(cache, worker):
            for round_trip in range(25):
                key = "w%dk%d" % (worker, round_trip % 5)
                assert cache.store(key, (worker, round_trip))

        caches = [AnalysisCache(str(tmp_path)) for _ in range(6)]
        threads = [
            threading.Thread(target=hammer, args=(cache, worker))
            for worker, cache in enumerate(caches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        fresh = AnalysisCache(str(tmp_path))
        for worker in range(6):
            for slot in range(5):
                value = fresh.load("w%dk%d" % (worker, slot))
                assert value is not None and value[0] == worker
        assert not any(
            name.startswith("cache.anomaly.") for name in fresh.events
        )
