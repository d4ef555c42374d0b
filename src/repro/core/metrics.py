"""Lightweight metrics registry for the offline pipeline.

The offline side runs decode -> lift -> project -> recover once per
thread, so every phase needs to be observable without the phases
knowing about each other: :class:`MetricsRegistry` is the shared sink.
It records three kinds of facts, each keyed by ``(name, tid)`` where
``tid`` is the analysed thread (``None`` for process-global facts):

* **counters** -- monotonically increasing counts (packets decoded,
  anomalies, restarts, holes filled, ...);
* **timings** -- accumulated wall-clock seconds per phase;
* **maxima** -- high-water marks (peak projection frontier);
* **gauges** -- last-written instantaneous values (streaming lag,
  queue depth): unlike counters they overwrite rather than add, so a
  gauge read reports the *current* state, not history.

All mutation takes a single lock.  The per-thread chains run one after
another; the only remaining concurrency is the
:class:`~repro.stream.service.StreamSupervisor` pool, whose tenant polls
write their tenant's registry off the caller's thread (and a poll the
watchdog abandoned keeps writing while the caller reads).  Reads
with ``tid=None`` aggregate across all threads, so
``registry.counter("decode.anomalies")`` is the process-wide total while
``registry.counter("decode.anomalies", tid=3)`` is thread 3's share.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: A metric key: (metric name, analysed thread id or None for global).
Key = Tuple[str, Optional[int]]


class MetricsRegistry:
    """Thread-safe counters, per-phase timings, and high-water marks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Key, int] = {}
        self._timings: Dict[Key, float] = {}
        self._maxima: Dict[Key, float] = {}
        self._gauges: Dict[Key, float] = {}
        self._states: Dict[Key, str] = {}

    # ---------------------------------------------------------------- writes
    def incr(self, name: str, value: int = 1, tid: Optional[int] = None) -> None:
        """Add *value* to the counter *name* for thread *tid*."""
        key = (name, tid)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def add_time(
        self, phase: str, seconds: float, tid: Optional[int] = None
    ) -> None:
        """Accumulate *seconds* of wall-clock time under *phase*."""
        key = (phase, tid)
        with self._lock:
            self._timings[key] = self._timings.get(key, 0.0) + seconds

    def observe_max(
        self, name: str, value: float, tid: Optional[int] = None
    ) -> None:
        """Record *value* as a high-water mark candidate for *name*."""
        key = (name, tid)
        with self._lock:
            current = self._maxima.get(key)
            if current is None or value > current:
                self._maxima[key] = value

    def set_gauge(
        self, name: str, value: float, tid: Optional[int] = None
    ) -> None:
        """Set the instantaneous gauge *name* for *tid* (overwrites)."""
        with self._lock:
            self._gauges[(name, tid)] = value

    def set_state(
        self, name: str, value: str, tid: Optional[int] = None
    ) -> None:
        """Set the string-valued state *name* for *tid* (overwrites).

        States are gauges whose value is a label rather than a number
        -- e.g. ``stream.health`` is ``"healthy"``/``"degraded"``/
        ``"quarantined"`` per tenant index.  They overwrite like gauges,
        also under :meth:`merge`.
        """
        with self._lock:
            self._states[(name, tid)] = str(value)

    @contextmanager
    def timer(self, phase: str, tid: Optional[int] = None) -> Iterator[None]:
        """Time a ``with`` block into ``add_time(phase, ..., tid)``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(phase, time.perf_counter() - started, tid=tid)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s facts into this registry.

        Counters and timings add, maxima keep the high-water mark, and
        gauges and states take *other*'s value.  *other* is copied under
        its own lock first, so two registries merging into each other
        never hold both locks at once.
        """
        with other._lock:
            counters = dict(other._counters)
            timings = dict(other._timings)
            maxima = dict(other._maxima)
            gauges = dict(other._gauges)
            states = dict(other._states)
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in timings.items():
                self._timings[key] = self._timings.get(key, 0.0) + value
            for key, value in maxima.items():
                current = self._maxima.get(key)
                if current is None or value > current:
                    self._maxima[key] = value
            self._gauges.update(gauges)
            self._states.update(states)

    # ----------------------------------------------------------------- reads
    def counter(self, name: str, tid: Optional[int] = None) -> int:
        """The counter's value; ``tid=None`` sums across all threads."""
        with self._lock:
            if tid is not None:
                return self._counters.get((name, tid), 0)
            return sum(
                value for (key, _t), value in self._counters.items() if key == name
            )

    def counters_by_prefix(
        self, prefix: str, tid: Optional[int] = None
    ) -> Dict[str, int]:
        """All counters whose name starts with *prefix*, keyed by the
        suffix after it; ``tid=None`` sums each across all threads.

        The degradation layer uses this to collect the per-kind anomaly
        counters (``decode.anomaly.<kind>``) without enumerating kinds.
        """
        result: Dict[str, int] = {}
        with self._lock:
            for (name, key_tid), value in self._counters.items():
                if not name.startswith(prefix):
                    continue
                if tid is not None and key_tid != tid:
                    continue
                suffix = name[len(prefix):]
                result[suffix] = result.get(suffix, 0) + value
        return result

    def timings_by_prefix(
        self, prefix: str, tid: Optional[int] = None
    ) -> Dict[str, float]:
        """All timings whose phase starts with *prefix*, keyed by the
        suffix after it; ``tid=None`` sums each across all threads.

        The analysis-cost benchmark uses this to pick up every
        ``analysis``-family phase in one call.
        """
        result: Dict[str, float] = {}
        with self._lock:
            for (name, key_tid), value in self._timings.items():
                if not name.startswith(prefix):
                    continue
                if tid is not None and key_tid != tid:
                    continue
                suffix = name[len(prefix):]
                result[suffix] = result.get(suffix, 0.0) + value
        return result

    def timing(self, phase: str, tid: Optional[int] = None) -> float:
        """Accumulated seconds; ``tid=None`` sums across all threads."""
        with self._lock:
            if tid is not None:
                return self._timings.get((phase, tid), 0.0)
            return sum(
                value for (key, _t), value in self._timings.items() if key == phase
            )

    def maximum(self, name: str, tid: Optional[int] = None) -> float:
        """The high-water mark; ``tid=None`` maximises across threads."""
        with self._lock:
            if tid is not None:
                return self._maxima.get((name, tid), 0.0)
            values = [
                value for (key, _t), value in self._maxima.items() if key == name
            ]
            return max(values) if values else 0.0

    def gauge(self, name: str, tid: Optional[int] = None) -> float:
        """The gauge's current value; ``tid=None`` sums across threads
        (per-tenant lag gauges aggregate to total backlog)."""
        with self._lock:
            if tid is not None:
                return self._gauges.get((name, tid), 0.0)
            return sum(
                value for (key, _t), value in self._gauges.items() if key == name
            )

    def state(self, name: str, tid: Optional[int] = None) -> Optional[str]:
        """The state's current label for *(name, tid)*, or ``None``."""
        with self._lock:
            return self._states.get((name, tid))

    def states_by_name(self, name: str) -> Dict[Optional[int], str]:
        """Every tid's current label for *name* (health dashboards)."""
        with self._lock:
            return {
                tid: value
                for (key, tid), value in self._states.items()
                if key == name
            }

    def tids(self) -> List[int]:
        """All thread ids that recorded any fact, sorted."""
        with self._lock:
            seen = {
                tid
                for source in (
                    self._counters, self._timings, self._maxima,
                    self._gauges, self._states,
                )
                for (_name, tid) in source
                if tid is not None
            }
        return sorted(seen)

    def snapshot(self) -> Dict[str, Dict[str, Dict]]:
        """A plain-dict view: ``{kind: {name: {"total", "by_thread"}}}``."""
        with self._lock:
            sources = {
                "counters": dict(self._counters),
                "timings": dict(self._timings),
                "maxima": dict(self._maxima),
                "gauges": dict(self._gauges),
            }
            states = dict(self._states)
        result: Dict[str, Dict[str, Dict]] = {}
        # States are labels, not numbers: no total to accumulate.
        state_view: Dict[str, Dict] = {}
        for (name, tid), value in sorted(
            states.items(),
            key=lambda item: (item[0][0], item[0][1] is not None, item[0][1] or 0),
        ):
            entry = state_view.setdefault(name, {"total": None, "by_thread": {}})
            if tid is None:
                entry["total"] = value
            else:
                entry["by_thread"][tid] = value
        result["states"] = state_view
        for kind, data in sources.items():
            view: Dict[str, Dict] = {}
            for (name, tid), value in sorted(
                data.items(), key=lambda item: (item[0][0], item[0][1] is not None, item[0][1] or 0)
            ):
                entry = view.setdefault(name, {"total": 0, "by_thread": {}})
                if tid is None:
                    entry["total"] += value
                else:
                    entry["by_thread"][tid] = value
                    if kind == "maxima":
                        entry["total"] = max(entry["total"], value)
                    else:
                        entry["total"] += value
            result[kind] = view
        return result
