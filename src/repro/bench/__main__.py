"""CLI for the perf trajectory: ``python -m repro.bench [options]``.

Default invocation runs the full Table 5 matrix plus the archive
overhead benchmark and merges the entry into ``BENCH_<today>.json``
under the label ``post``; CI's perf-smoke gate runs::

    python -m repro.bench --subjects avrora,h2,luindex --skip-archive \\
        --label ci-smoke --out /tmp/bench_ci.json \\
        --check-against BENCH_<date>.json
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    SMOKE_SUBJECTS,
    check_regression,
    merge_into,
    run_advisor_accuracy,
    run_archive_overhead,
    run_cross_format,
    run_id,
    run_resilience,
    run_stream_lag,
    run_table5,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "--label", default="post",
        help="run label inside the bench file (default: post)",
    )
    parser.add_argument(
        "--out", default=None,
        help="bench file path (default: BENCH_<today>.json)",
    )
    parser.add_argument(
        "--subjects", default=None,
        help="comma-separated subject subset (default: all); "
             "'smoke' selects the CI matrix %s" % (SMOKE_SUBJECTS,),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent analysis cache directory (default: off)",
    )
    parser.add_argument(
        "--skip-archive", action="store_true",
        help="skip the archive-overhead benchmark",
    )
    parser.add_argument(
        "--skip-stream", action="store_true",
        help="skip the streaming-lag benchmark",
    )
    parser.add_argument(
        "--skip-resilience", action="store_true",
        help="skip the checkpoint/recovery resilience benchmark",
    )
    parser.add_argument(
        "--skip-etrace", action="store_true",
        help="skip the PT-vs-E-Trace cross-format benchmark",
    )
    parser.add_argument(
        "--skip-advisor", action="store_true",
        help="skip the advisor prediction-accuracy benchmark "
             "(implied by --skip-etrace: it reuses the cross-format run)",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="BENCH_JSON",
        help="compare decode throughput, phase times and flow fingerprints "
             "against this committed bench file and exit 1 on a regression "
             "beyond --tolerance or a changed fingerprint",
    )
    parser.add_argument(
        "--check-run", default="post",
        help="label inside --check-against to compare to (default: post)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="fractional regression tolerance for --check-against "
             "(default: 0.20)",
    )
    args = parser.parse_args(argv)

    subjects = None
    if args.subjects == "smoke":
        subjects = SMOKE_SUBJECTS
    elif args.subjects:
        subjects = tuple(name.strip() for name in args.subjects.split(","))

    out = args.out or ("BENCH_%s.json" % time.strftime("%Y-%m-%d"))

    entry = dict(run_id())
    print("bench: subjects=%s" % (subjects or "all",))
    entry["table5"] = run_table5(subjects=subjects, cache_dir=args.cache_dir)
    totals = entry["table5"]["totals"]
    print(
        "bench: decode %.3fs over %d bytes -> %.1f KB/s (decode), %.1f KB/s (DT)"
        % (
            totals["decode_s"],
            totals["pt_bytes"],
            totals["decode_throughput_kbs"],
            totals["dt_throughput_kbs"],
        )
    )
    if not args.skip_archive:
        entry["archive"] = run_archive_overhead()
        print(
            "bench: archive framing %.1f%% / write %.1f KB/s / read %.1f KB/s"
            % (
                100.0 * entry["archive"]["framing_overhead"],
                entry["archive"]["write_throughput_kbs"],
                entry["archive"]["read_throughput_kbs"],
            )
        )
    if not args.skip_stream:
        entry["stream"] = run_stream_lag()
        print(
            "bench: stream poll %.2fms mean / %.2fms max, lag <= %d segments,"
            " finalize %.3fs (batch %.3fs)"
            % (
                1e3 * entry["stream"]["poll_latency_mean_s"],
                1e3 * entry["stream"]["poll_latency_max_s"],
                entry["stream"]["max_lag_segments"],
                entry["stream"]["finalize_s"],
                entry["stream"]["batch_s"],
            )
        )
    if not args.skip_resilience:
        entry["resilience"] = run_resilience()
        print(
            "bench: resilience checkpoint %.2fms mean write (%d bytes, %.1f%%"
            " of poll time), recovery %.3fs vs cold replay %.3fs (%.2fx)"
            % (
                1e3 * entry["resilience"]["checkpoint_write_mean_s"],
                entry["resilience"]["checkpoint_bytes"],
                100.0 * entry["resilience"]["checkpoint_overhead_fraction"],
                entry["resilience"]["recovery_s"],
                entry["resilience"]["cold_replay_s"],
                entry["resilience"]["recovery_speedup"],
            )
        )
    if not args.skip_etrace:
        entry["cross_format"] = run_cross_format()
        formats = entry["cross_format"]["formats"]
        print(
            "bench: cross-format pt %.2f B/branch vs etrace %.2f B/branch"
            " (ratio %.2fx), lossy loss %.1f%% vs %.1f%%"
            % (
                formats["pt"]["bytes_per_branch"],
                formats["etrace"]["bytes_per_branch"],
                entry["cross_format"]["compression_ratio"],
                100.0 * formats["pt"]["lossy_loss_fraction"],
                100.0 * formats["etrace"]["lossy_loss_fraction"],
            )
        )
        if not args.skip_advisor:
            entry["advisor_accuracy"] = run_advisor_accuracy(
                cross_format=entry["cross_format"]
            )
            accuracy = entry["advisor_accuracy"]
            errors = [
                row["relative_error"]
                for row in accuracy["frontends"].values()
                if row["relative_error"] is not None
            ]
            print(
                "bench: advisor recommends %s (measured best %s),"
                " max relative error %.3f, sound=%s"
                % (
                    accuracy["recommended"],
                    accuracy["measured_best"],
                    max(errors) if errors else 0.0,
                    accuracy["sound"],
                )
            )
    merge_into(out, args.label, entry)
    print("bench: wrote %r run to %s" % (args.label, out))

    if args.check_against:
        ok, messages = check_regression(
            entry,
            args.check_against,
            against=args.check_run,
            tolerance=args.tolerance,
            subjects=subjects,
        )
        for message in messages:
            print("bench:", message)
        if not ok:
            print("bench: FAIL regression against baseline")
            return 1
        print("bench: OK within %.0f%% of baseline" % (args.tolerance * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
