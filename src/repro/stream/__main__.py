"""CLI for the streaming service: ``python -m repro.stream``.

Two modes:

* ``--demo [--subject NAME] [--kill-at N]`` -- end to end: run a
  workload subject, commit its trace record-by-record into a growing
  archive while a :class:`~repro.stream.StreamSupervisor` tail-follows
  it, then finalize and check the streamed result against batch
  ``analyze_archive`` on the same sealed file.  With ``--kill-at N``
  the supervisor is discarded after its *N*-th poll (simulating a
  crash) and a fresh one resumes from the ``JPSC`` checkpoint sidecar,
  demonstrating recovery without a finalize replay.

* ``PATH [--interval SECONDS]`` -- monitor an existing (possibly still
  growing) archive with the bare tail reader: print committed records
  and salvage events as they land, finalize on seal or Ctrl-C.  Needs
  no program metadata, so it works on any ``RPT2`` file.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time


def _demo(subject_name: str, kill_at=None) -> int:
    from ..core import JPortal
    from ..core.metadata import collect_metadata
    from ..core.recovery import RecoveryConfig
    from ..pt.archive import ArchiveWriter, iter_archive_events, write_archive_event
    from ..pt.perf import PTConfig, collect
    from ..workloads import build_subject, default_config
    from .resilience import ResilienceConfig
    from .service import StreamSupervisor

    print("demo: running subject %r" % subject_name)
    subject = build_subject(subject_name)
    run = subject.run(default_config())
    config = PTConfig()
    trace = collect(run, config)
    database = collect_metadata(run)
    jportal = JPortal(
        subject.program,
        recovery=RecoveryConfig(cost_per_instruction=run.config.compiled_step_cost),
    )
    resilience = ResilienceConfig(checkpoint=kill_at is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.rpt2")
        supervisor = StreamSupervisor(resilience=resilience)
        try:
            tenant = supervisor.add_tenant(subject_name, path, jportal)
            polls = 0
            with ArchiveWriter(path) as writer:
                writer.snapshot_metadata(database, include_dumps=False)
                committed = 0
                for event in iter_archive_events(
                    trace, database, config.archive_segment_packets
                ):
                    write_archive_event(writer, event)
                    committed += 1
                    if committed % 4 == 0:  # poll while the file grows
                        delta = supervisor.poll_all()[subject_name]
                        polls += 1
                        if delta.records:
                            print("demo:", delta.describe())
                        if kill_at is not None and polls == kill_at:
                            # Simulate a crash: drop the supervisor and
                            # resume a fresh one from the checkpoint.
                            supervisor.close()
                            print(
                                "demo: killed supervisor after poll %d; "
                                "restoring from checkpoint" % polls
                            )
                            supervisor = StreamSupervisor(resilience=resilience)
                            tenant = supervisor.add_tenant(
                                subject_name, path, jportal, resume=True
                            )
                            restored = supervisor.metrics.counter(
                                "stream.checkpoint.restored"
                            )
                            print(
                                "demo: restore %s (poll cursor at %d)"
                                % (
                                    "clean" if restored else "cold",
                                    tenant.polls,
                                )
                            )
                writer.close()
            delta = supervisor.poll_all()[subject_name]
            print("demo:", delta.describe())
            streamed = supervisor.finalize(subject_name)
        finally:
            supervisor.close()
        print(
            "demo: streamed %d entries, %d anomalies (replayed=%s)"
            % (streamed.total_entries(), streamed.anomalies, tenant.replayed)
        )
        batch = jportal.analyze_archive(path)
        same = (
            streamed.total_entries() == batch.total_entries()
            and streamed.anomalies == batch.anomalies
            and sorted(streamed.flows) == sorted(batch.flows)
        )
        print(
            "demo: batch    %d entries, %d anomalies -> %s"
            % (
                batch.total_entries(),
                batch.anomalies,
                "identical" if same else "MISMATCH",
            )
        )
        return 0 if same else 1


def _monitor(path: str, interval: float) -> int:
    from ..pt.archive import REC_SEGMENT, ArchiveTailReader

    reader = ArchiveTailReader(path)
    print("monitor: tailing %s (Ctrl-C to finalize)" % path)
    try:
        while not reader.sealed:
            records = reader.poll()
            for record in records:
                if record.rtype == REC_SEGMENT:
                    print(
                        "monitor: seq %d core %d tsc [%d, %d] (%d entries)"
                        % (
                            record.seq,
                            record.core,
                            record.tsc_lo,
                            record.tsc_hi,
                            len(record.payload),
                        )
                    )
                else:
                    print(
                        "monitor: seq %d record type 0x%02x"
                        % (record.seq, record.rtype)
                    )
            if not records:
                time.sleep(interval)
    except KeyboardInterrupt:
        print("monitor: interrupted; finalizing")
    contents = reader.finalize()
    stats = contents.stats
    print(
        "monitor: %d/%d segments salvaged, %d bytes, sealed=%s"
        % (
            stats.segments_salvaged,
            stats.segments_total,
            stats.bytes_salvaged,
            stats.sealed,
        )
    )
    for event in stats.events:
        print(
            "monitor: salvage %s at offset %d: %s"
            % (event.kind.value, event.offset, event.detail)
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream", description=__doc__
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="RPT2 archive to tail-follow (monitor mode)",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run the end-to-end grow/stream/finalize demo",
    )
    parser.add_argument(
        "--subject", default="luindex",
        help="workload subject for --demo (default: luindex)",
    )
    parser.add_argument(
        "--kill-at", type=int, default=None, metavar="N",
        help="demo mode: kill the supervisor after its N-th poll and "
             "resume a fresh one from the JPSC checkpoint",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5,
        help="monitor-mode poll interval in seconds (default: 0.5)",
    )
    args = parser.parse_args(argv)
    if args.demo:
        return _demo(args.subject, kill_at=args.kill_at)
    if args.path is None:
        parser.error("either --demo or an archive PATH is required")
    return _monitor(args.path, args.interval)


if __name__ == "__main__":
    sys.exit(main())
