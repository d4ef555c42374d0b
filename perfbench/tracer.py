"""In-memory spans recorded around calls into the program's layers.

Spans live only in the benchmark's own files: each wraps one call into a
public function of a layer (``split_by_thread``, ``decode_into``,
``project_arrays``, ...).  They are kept in a list while the run lasts
and written out as JSON once it ends, so recording costs one clock read
and one list append per boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "op", "parent", "start", "end")

    def __init__(self, name: str, op: str, parent: Optional[int], start: float):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and counts; single-threaded by design.

    *op* identifies the operation a span belongs to (``subject/pass`` or
    ``tenant/round``); a span's parent is whichever span was open when
    it started.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: List[Tuple[str, str, float]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, op, parent, self.clock())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def count(self, name: str, op: str, value: float) -> None:
        self.counts.append((name, op, value))

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover.

        Children of one parent run one after another inside it, so the
        part they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - covered[i] for i, span in enumerate(self.spans)]

    def self_by_op(self, root: str) -> Dict[str, Dict[str, float]]:
        """``{op: {span name: self seconds}}`` for spans under *root* spans.

        ``root`` itself appears under its own name, carrying the glue
        time no layer span accounts for.
        """
        selfs = self.self_times()
        under_root = [False] * len(self.spans)
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            if span.name == root:
                under_root[i] = True
            elif span.parent is not None and under_root[span.parent]:
                under_root[i] = True
            if under_root[i]:
                out[span.op][span.name] += selfs[i]
        return out

    def counts_by_op(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, op, value in self.counts:
            out[op][name] += value
        return out

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def dump(self, path: str) -> None:
        document = {
            "spans": [
                {
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                for span in self.spans
            ],
            "counts": [
                {"name": name, "op": op, "value": value}
                for name, op, value in self.counts
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
