"""Workload definitions and input generation (the benchmark's set-up).

Every input comes from ``--seed``: the seed perturbs each subject's
``size`` by up to :data:`SIZE_JITTER`, drawn from
``random.Random(f"{seed}:{subject}")``; seed 0 is exactly the sizes
below.  The program only ever sees the resulting runs, traces and
metadata.

The sizes are the DaCapo-style defaults scaled down so that one run of
the slowest workload, set-up included, stays well under a minute on a
2-core host.  Sunflow keeps its role as the recovery-bound subject.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import JPortal
from repro.core.metadata import collect_metadata
from repro.core.recovery import RecoveryConfig
from repro.pt.archive import iter_archive_events
from repro.pt.buffer import RingBufferConfig
from repro.pt.perf import PTConfig, calibrate_drain_period, collect
from repro.workloads import build_subject, default_config

from .harness import at_reference_speed

#: The "128 MB" buffer in scaled bytes, as in the Table 5 experiment.
BUFFER_128 = 2048
#: Loss the periodic drain is calibrated to (the paper's 22-28% regime).
TARGET_LOSS = 0.25
#: Largest relative size change a non-zero seed applies.
SIZE_JITTER = 0.05
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Packets per archive segment record in the stream workload.
SEGMENT_PACKETS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "stream"
    lossy: bool
    sizes: Dict[str, int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Hole recovery does most of the work: the three subjects with
        # the largest recovery share (sunflow, batik, avrora) and the two
        # most multi-threaded ones (h2, pmd).
        Workload(
            "batch-lossy",
            "batch",
            True,
            {"avrora": 1000, "batik": 38, "h2": 150, "pmd": 20, "sunflow": 3},
        ),
        # Zero holes: decode, split_by_thread and projection dominate, so
        # a recovery change should move only the zero-hole index cost.
        Workload(
            "batch-lossless",
            "batch",
            False,
            {"fop": 15, "jython": 375, "luindex": 62, "lusearch": 6, "pmd": 20},
        ),
        # Archive appends and tail reads at once, plus poll, checkpoint,
        # finalize and restore -- none of which the batch workloads run.
        Workload(
            "stream-live",
            "stream",
            True,
            {"avrora": 500, "h2": 75, "luindex": 10, "pmd": 6},
        ),
    )
}


def subject_sizes(workload: str, seed: int) -> Dict[str, int]:
    """The seeded ``size`` argument of every subject of *workload*."""
    sizes = {}
    for subject, base in WORKLOADS[workload].sizes.items():
        if seed == 0:
            sizes[subject] = base
            continue
        rng = random.Random("%d:%s" % (seed, subject))
        factor = 1.0 + SIZE_JITTER * (2.0 * rng.random() - 1.0)
        sizes[subject] = max(1, round(base * factor))
    return sizes


def lossless_config() -> PTConfig:
    return PTConfig(
        buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
    )


def lossy_config(drain_period: int) -> PTConfig:
    return PTConfig(
        buffer=RingBufferConfig(capacity_bytes=BUFFER_128, drain_period=drain_period)
    )


@dataclass
class Prepared:
    """One subject's inputs plus the profiler built for it."""

    name: str
    size: int
    subject: object
    run: object
    trace: object
    database: object
    jportal: Optional[JPortal] = None
    #: Archive record sequence (stream workload only).
    events: List[tuple] = field(default_factory=list)


@dataclass
class SetupTimes:
    """Set-up seconds by phase for each repetition, plus the calibration."""

    reps: List[Dict[str, float]] = field(default_factory=list)
    #: The drain-period search runs once per run, outside ``setup_s``:
    #: it picks the benchmark's loss regime and is no part of JPortal.
    calibrate_s: float = 0.0
    #: Host-speed probe seconds before each repetition and after the
    #: last, when :func:`prepare` was given a probe.
    probes: List[float] = field(default_factory=list)

    def total(self) -> float:
        """``setup_s``: median over repetitions of the whole set-up, each
        at reference speed."""
        return statistics.median(
            at_reference_speed(sum(rep.values()), before, after)
            for rep, before, after in zip(self.reps, self.probes, self.probes[1:])
        )

    def phase(self, name: str) -> float:
        return statistics.median(rep.get(name, 0.0) for rep in self.reps)


def make_jportal(subject, run, engine: str = "array") -> JPortal:
    return JPortal(
        subject.program,
        recovery=RecoveryConfig(cost_per_instruction=run.config.compiled_step_cost),
        engine=engine,
    )


def _timed(times: Dict[str, float], phase: str, fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    times[phase] = times.get(phase, 0.0) + time.perf_counter() - started
    return value


def prepare(
    workload: str, seed: int, repeats: int = SETUP_REPEATS, probe=None
) -> Tuple[List[Prepared], SetupTimes]:
    """Build, run, trace and profile every subject of *workload*.

    The whole set-up runs *repeats* times so ``setup_s`` can be a median;
    the last repetition's inputs are kept.  *probe* (``HostSpeed.probe``)
    runs before every repetition and after the last, outside their
    times.  Before the last repetition's profilers are built, everything
    allocated so far -- above all the simulator's ``RunResult`` heap --
    is collected and frozen, so the cyclic garbage collector never
    rescans it during timed analyses, while the program's own
    structures are still collected as usual.
    """
    spec = WORKLOADS[workload]
    sizes = subject_sizes(workload, seed)
    setup = SetupTimes()
    periods: Dict[str, int] = {}
    for rep in range(repeats):
        if probe is not None:
            setup.probes.append(probe())
        last = rep == repeats - 1
        prepared = _setup_once(spec, sizes, periods, setup, freeze=last)
        if not last:
            prepared = None
            gc.collect()
    if probe is not None:
        setup.probes.append(probe())
    return prepared, setup


def _setup_once(spec, sizes, periods, setup, freeze) -> List[Prepared]:
    times: Dict[str, float] = {}
    prepared = []
    for name, size in sizes.items():
        subject = _timed(times, "run", build_subject, name, size=size)
        run = _timed(times, "run", subject.run, default_config())
        if spec.lossy:
            if name not in periods:
                started = time.perf_counter()
                periods[name] = calibrate_drain_period(run, BUFFER_128, TARGET_LOSS)
                setup.calibrate_s += time.perf_counter() - started
            config = lossy_config(periods[name])
        else:
            config = lossless_config()
        trace = _timed(times, "collect", collect, run, config)
        database = _timed(times, "metadata", collect_metadata, run)
        events = []
        if spec.kind == "stream":
            events = _timed(
                times, "collect", list,
                iter_archive_events(trace, database, SEGMENT_PACKETS),
            )
        prepared.append(Prepared(name, size, subject, run, trace, database, events=events))
    if freeze:
        gc.collect()
        gc.freeze()
    for item in prepared:
        item.jportal = _timed(times, "static_analysis", make_jportal, item.subject, item.run)
    setup.reps.append(times)
    return prepared
